"""Driver gaze model: acuity thresholding and angular region algebra.

The driver's region of focus (RoF) is the set of bearings where perceived
visual acuity exceeds a threshold; the sensor's region of interest (RoI) is
its complement on the circle.
"""
from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TAU = math.tau


def normalize_angle(angle: float) -> float:
    """Map an angle in radians to [0, tau)."""
    a = angle % TAU
    if a >= TAU:
        # a % TAU can round up to TAU itself for tiny negative inputs
        a -= TAU
    return a


@dataclass(frozen=True)
class ArcSet:
    """Union of disjoint half-open arcs [start, end) on the circle [0, tau).

    Canonical form: arcs sorted by start, non-overlapping, positive width,
    merged where adjacent. A wrapping arc is stored split at 0/tau, so the
    representation is unique and equality is structural.
    """

    arcs: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        prev_end = None
        for start, end in self.arcs:
            if not (0.0 <= start < end <= TAU):
                raise ValueError(f"arc ({start}, {end}) not inside [0, tau)")
            if prev_end is not None and start < prev_end:
                raise ValueError("arcs overlap")
            prev_end = end

    @classmethod
    def empty(cls) -> "ArcSet":
        return cls(())

    @classmethod
    def full(cls) -> "ArcSet":
        return cls(((0.0, TAU),))

    @classmethod
    def from_arc(cls, start: float, end: float) -> "ArcSet":
        """Single possibly-wrapping arc [start, end); start == end is empty."""
        s = normalize_angle(start)
        e = normalize_angle(end)
        if s == e:
            return cls.empty()
        if s < e:
            return cls(((s, e),))
        if e == 0.0:
            return cls(((s, TAU),))
        return cls(((0.0, e), (s, TAU)))

    @cached_property
    def width(self) -> float:
        return sum(end - start for start, end in self.arcs)

    def is_empty(self) -> bool:
        return not self.arcs

    def contains(self, angle: float) -> bool:
        a = normalize_angle(angle)
        for start, end in self.arcs:
            if start <= a < end:
                return True
            if a < start:
                break
        return False

    @cached_property
    def bounds(self) -> np.ndarray:
        """Arc starts and ends as a read-only (2, n) array, built once per set."""
        bounds = np.array(self.arcs, dtype=np.float64).reshape(-1, 2).T
        bounds.flags.writeable = False
        return bounds

    def contains_many(self, angles) -> np.ndarray:
        """contains() over an array of angles, as a boolean array."""
        a = np.array(angles, dtype=np.float64)      # 0-d input stays an array the fold can assign
        with np.errstate(invalid="ignore"):     # inf gives nan, contained nowhere
            np.mod(a, TAU, out=a)
        a[a >= TAU] -= TAU      # as in normalize_angle
        if not self.arcs:
            return np.zeros(a.shape, dtype=bool)
        starts, ends = self.bounds
        # the last arc starting at or before a holds it if a is short of its end
        i = np.searchsorted(starts, a, side="right") - 1
        return (i >= 0) & (a < ends[i])

    def complement(self) -> "ArcSet":
        gaps = []
        prev_end = 0.0
        for start, end in self.arcs:
            if start > prev_end:
                gaps.append((prev_end, start))
            prev_end = end
        if prev_end < TAU:
            gaps.append((prev_end, TAU))
        return ArcSet(tuple(gaps))

    def intersection_width(self, other: "ArcSet") -> float:
        """Total width of the overlap between the two sets."""
        total = 0.0
        for a0, a1 in self.arcs:
            for b0, b1 in other.arcs:
                lo = max(a0, b0)
                hi = min(a1, b1)
                if hi > lo:
                    total += hi - lo
        return total


@dataclass(frozen=True)
class AcuityFunction:
    """Even, unit-peak visual acuity profile V(alpha), alpha in radians.

    kind:
        "boxcar": V = 1 for |alpha| <= half_width, else 0.
        "gaussian": V = exp(-alpha^2 / (2 sigma^2)).
    """

    kind: str
    half_width: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "boxcar":
            if not 0.0 < self.half_width <= math.pi:
                raise ValueError("boxcar half_width must be in (0, pi]")
        elif self.kind == "gaussian":
            if self.sigma <= 0.0:
                raise ValueError("gaussian sigma must be positive")
        else:
            raise ValueError(f"unknown acuity kind {self.kind!r}")

    @classmethod
    def boxcar(cls, half_width: float) -> "AcuityFunction":
        return cls("boxcar", half_width=half_width)

    @classmethod
    def gaussian(cls, sigma: float) -> "AcuityFunction":
        return cls("gaussian", sigma=sigma)

    def threshold_half_width(self, eta: float) -> float:
        """Half-width of {alpha : V(alpha) > eta}, capped at pi."""
        if eta >= 1.0:
            # V never strictly exceeds its peak of 1
            return 0.0
        if self.kind == "boxcar":
            return self.half_width
        hw = self.sigma * math.sqrt(2.0 * math.log(1.0 / eta))
        return min(hw, math.pi)


@dataclass(frozen=True)
class GazeState:
    """Gaze direction theta_g (radians, normalized) and threshold eta."""

    theta_g: float
    eta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        object.__setattr__(self, "theta_g", normalize_angle(self.theta_g))


def compute_rof(gaze: GazeState, acuity: AcuityFunction) -> ArcSet:
    """Region of focus: bearings alpha with V(alpha - theta_g) > eta."""
    hw = acuity.threshold_half_width(gaze.eta)
    if hw <= 0.0:
        return ArcSet.empty()
    if 2.0 * hw >= TAU:
        return ArcSet.full()
    return ArcSet.from_arc(gaze.theta_g - hw, gaze.theta_g + hw)


def compute_roi(rof: ArcSet) -> ArcSet:
    """Sensor region of interest: the complement of the region of focus."""
    return rof.complement()


class GazeTraceError(ValueError):
    """Raised for malformed or empty gaze trace files."""


@dataclass(frozen=True)
class GazeTrace:
    """Piecewise-constant gaze schedule sampled from a trace file."""

    times: tuple[float, ...]
    states: tuple[GazeState, ...]

    def at(self, t: float) -> GazeState:
        """State in effect at time t; queries before the first entry clamp."""
        i = bisect_right(self.times, t) - 1
        if i < 0:
            i = 0
        return self.states[i]


def load_gaze_trace(path, eta: float = 0.5) -> GazeTrace:
    """Load a gaze trace CSV with header ``t_s,theta_g_deg``.

    Read as UTF-8, a leading BOM skipped. Values must be finite, timestamps strictly increasing
    and the file non-empty. The threshold eta is applied to every entry.
    """
    times: list[float] = []
    states: list[GazeState] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise GazeTraceError(f"{path}: {exc}") from exc
    header = rows[0] if rows else None
    if header != ["t_s", "theta_g_deg"]:
        raise GazeTraceError(f"{path}: expected header 't_s,theta_g_deg', got {header}")
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise GazeTraceError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
        try:
            t = float(row[0])
            theta_deg = float(row[1])
        except ValueError as exc:
            raise GazeTraceError(f"{path}: line {lineno}: {exc}") from exc
        if not (math.isfinite(t) and math.isfinite(theta_deg)):
            raise GazeTraceError(f"{path}: line {lineno}: t_s and theta_g_deg must be finite")
        if times and t <= times[-1]:
            raise GazeTraceError(f"{path}: line {lineno}: timestamps must be strictly increasing")
        times.append(t)
        states.append(GazeState(math.radians(theta_deg), eta))
    if not times:
        raise GazeTraceError(f"{path}: trace contains no entries")
    return GazeTrace(tuple(times), tuple(states))
