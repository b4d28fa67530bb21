"""`python -m gazelidar`: the gazelidar command line."""
from .cli import entry

if __name__ == "__main__":
    entry()
