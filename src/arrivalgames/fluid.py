"""Closed-form fluid equilibrium of the arrival game.

Two deterministic fluid populations choose arrival-time distributions on
[0, T]. Type a believes the server drains mass at rate mu_a, type b at
mu_b > mu_a. Equilibria consist of an atom at the opening plus
piecewise-uniform densities, with the case structure governed by four
thresholds on the horizon. The queue faced at the opening counts half
the opening atoms (simultaneous arrivals are randomly ordered).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .signals import _side
from .workload import _count

CASE_TAGS = ("i", "ii", "iii", "iv", "v", "vi")


class InvalidCaseError(ValueError):
    """Requested equilibrium case does not apply at these parameters."""


@dataclass(frozen=True)
class FluidParams:
    lam_a: float
    lam_b: float
    mu_a: float
    mu_b: float
    horizon: float

    def __post_init__(self):
        vals = (self.lam_a, self.lam_b, self.mu_a, self.mu_b, self.horizon)
        if any(v <= 0.0 or not math.isfinite(v) for v in vals):
            raise ValueError("all fluid parameters must be positive and finite")
        if not self.mu_a < self.mu_b:
            raise ValueError("optimistic drain rate mu_b must exceed mu_a")


@dataclass(frozen=True)
class Segment:
    """Arrival interval (start, end) of constant positive density."""

    start: float
    end: float
    density: float

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError("segment must have positive length")
        if not 0.0 < self.density < math.inf:
            raise ValueError("segment density must be positive and finite")

    @property
    def mass(self) -> float:
        return self.density * (self.end - self.start)


@dataclass(frozen=True)
class FluidEquilibrium:
    horizon: float
    atom_a: float
    atom_b: float
    segments_a: tuple[Segment, ...]
    segments_b: tuple[Segment, ...]
    q0: float
    non_unique: bool = False

    def atom(self, side: str) -> float:
        return (self.atom_a, self.atom_b)[_side(side)]

    def segments(self, side: str) -> tuple[Segment, ...]:
        return (self.segments_a, self.segments_b)[_side(side)]

    def cdf(self, side: str, t) -> np.ndarray | float:
        """Arrival cdf F_side evaluated at t (scalar or array) in [0, horizon]."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < -1e-12) or np.any(arr > self.horizon + 1e-12):
            raise ValueError("evaluation time outside [0, horizon]")
        out = np.full(arr.shape, self.atom(side))
        for seg in self.segments(side):
            out = out + seg.density * np.clip(arr - seg.start, 0.0, seg.end - seg.start)
        return float(out) if np.isscalar(t) else out


def thresholds(params: FluidParams) -> tuple[float, float, float, float]:
    """Horizon thresholds separating the equilibrium cases; strictly increasing."""
    la, lb, ma, mb = params.lam_a, params.lam_b, params.mu_a, params.mu_b
    return (
        (la + lb) / (2.0 * mb),
        (la + 2.0 * lb) / (2.0 * mb),
        la / (2.0 * ma) + lb / mb,
        la / ma + lb / mb,
    )


def _cases(params: FluidParams) -> dict[str, FluidEquilibrium]:
    """The profile of every case that applies, keyed by tag: the case of
    the horizon's band, and case v where its side conditions hold. A
    segment whose start is not below its end is left out and an opening
    atom is capped at one, so a horizon next to a threshold gets its band's
    limit. A profile that cannot be built in floats (a density past the
    float range, or a type's mass off one by more than 1e-9) raises
    ``ValueError``."""
    la, lb, ma, mb, T = astuple(params)
    x1, x2, x3, x4 = thresholds(params)

    def profile(atom_a, atom_b, spans_a, spans_b, q0, non_unique=False):
        segs = [tuple(Segment(*s) for s in side if s[0] < s[1]) for side in (spans_a, spans_b)]
        for atom, own in zip((atom_a, atom_b), segs):
            if not abs(atom + sum(seg.mass for seg in own) - 1.0) <= 1e-9:
                raise ValueError("the fluid profile loses mass to rounding at these parameters")
        return FluidEquilibrium(T, atom_a, atom_b, *segs, q0, non_unique)

    second = mb >= 2.0 * ma and (la + lb) / mb < T <= la / (2.0 * ma) + lb / ma
    if T <= x1:
        cases = {"i": profile(1.0, 1.0, (), (), (la + lb) / 2.0)}
    elif T < x2:
        atom_b = min(1.0, (2.0 * mb / lb) * (x2 - T))
        t_b = (la + lb * atom_b) / (2.0 * mb)
        cases = {"ii": profile(1.0, atom_b, (), [(t_b, T, mb / lb)], (la + lb * atom_b) / 2.0)}
    elif T <= x3:
        cases = {"iii": profile(1.0, 0.0, (), [(T - lb / mb, T, mb / lb)], la / 2.0, second)}
    elif T <= x4:
        atom_a = min(1.0, (2.0 * ma / la) * (x4 - T))
        t_a, t_b = la * atom_a / (2.0 * ma), T - lb / mb
        spans = [(t_a, t_b, ma / la)], [(t_b, T, mb / lb)]
        cases = {"iv": profile(atom_a, 0.0, *spans, la * atom_a / 2.0, second)}
    else:
        # vi: fully degenerate, queue never forms under either belief
        t_split = la / ma
        spans = [(0.0, t_split, ma / la)], [(t_split, t_split + lb / mb, mb / lb)]
        cases = {"vi": profile(0.0, 0.0, *spans, 0.0, True)}
    # v: partially degenerate. a gains by moving into b's interval unless
    # the joint arrival rate there stays below mu_a (needs mu_b >= 2 mu_a).
    atom_a = 2.0 * (la + lb - ma * T) / la
    denom = (la + lb - ma * T) * (mb - 2.0 * ma) + lb * mb
    if 0.0 < atom_a < 1.0 and denom > 0.0:
        k = ma * mb / denom
        t_a, t_b = (la * atom_a + 2.0 * lb) / (2.0 * ma), la * atom_a / mb
        if lb * k <= ma * (1.0 + 1e-12) and t_b < t_a <= T + 1e-12:
            spans = [(t_a, T, ma / la)], [(t_b, t_a, k)]
            cases["v"] = profile(atom_a, 0.0, *spans, la * atom_a / 2.0, True)
    return cases


def classify(params: FluidParams) -> set[str]:
    """All equilibrium case tags applicable at these parameters: exactly
    the tags ``solve_case`` builds. Cases i-iv partition the horizon axis;
    v and vi may overlap with iv and with each other. Every applicable
    profile is built, so one that cannot be built in floats (e.g. a density
    past the float range) raises ``ValueError``."""
    return set(_cases(params))


def solve_case(params: FluidParams, tag: str) -> FluidEquilibrium:
    """Equilibrium arrival profile for a tag of ``classify(params)``, which
    holds exactly the tags built here; any other tag raises
    ``InvalidCaseError``.

    For the degenerate cases v and vi (a continuum of equilibria exists)
    the canonical uniform-density representative is returned with
    ``non_unique`` set, as are cases iii and iv where a second profile,
    type a all at the opening and type b uniform on [lam_a / mu_b, T],
    verifies: mu_b >= 2 mu_a and (lam_a + lam_b) / mu_b < T <= lam_a /
    (2 mu_a) + lam_b / mu_a.
    """
    if tag not in CASE_TAGS:
        raise InvalidCaseError(f"unknown case tag {tag!r}")
    cases = _cases(params)
    if tag not in cases:
        raise InvalidCaseError(f"case {tag!r} does not apply at these parameters")
    return cases[tag]


def _verification_grid(eq: FluidEquilibrium, grid_n: int) -> np.ndarray:
    pts = [np.linspace(0.0, eq.horizon, grid_n)]
    for side in ("a", "b"):
        for seg in eq.segments(side):
            pts.append(np.array([seg.start, seg.end]))
    grid = np.unique(np.concatenate(pts))
    return grid[(grid >= 0.0) & (grid <= eq.horizon)]


def _faced_queue(params: FluidParams, eq: FluidEquilibrium, side: str, grid: np.ndarray) -> np.ndarray:
    """Queue mass ahead of an arrival at each grid time, under one belief.

    Uses the reflected (never-negative) drain dynamics so the check stays
    meaningful when a belief's queue empties. At t = 0 the faced mass is
    q0: half the opening atoms stand ahead of a simultaneous arrival.
    """
    mu = (params.mu_a, params.mu_b)[_side(side)]
    inflow = params.lam_a * eq.cdf("a", grid) + params.lam_b * eq.cdf("b", grid)
    net = inflow - mu * grid
    faced = net - np.minimum(0.0, np.minimum.accumulate(net))
    faced[grid == 0.0] = eq.q0
    return faced


def _support_mask(eq: FluidEquilibrium, side: str, grid: np.ndarray) -> np.ndarray:
    mask = np.zeros(grid.size, dtype=bool)
    if eq.atom(side) > 1e-12:
        mask |= grid == 0.0
    for seg in eq.segments(side):
        mask |= (grid >= seg.start - 1e-12) & (grid <= seg.end + 1e-12)
    return mask


def verify_fluid(params: FluidParams, eq: FluidEquilibrium, grid_n: int = 10_000) -> float:
    """Check the equilibrium conditions on a grid and return the worst
    violation.

    For each belief the faced queue must be constant across the strategy's
    support and no smaller anywhere else. The violation is the larger, over
    both beliefs, of the support spread (max - min of the faced queue on
    the support) and the off-support gain (how far the faced queue off the
    support falls below its minimum on the support). ``grid_n`` must be
    an integer of at least 2 (integral floats pass), else ``ValueError``.
    """
    grid_n = _count(grid_n, "grid_n")
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    grid = _verification_grid(eq, grid_n)
    worst = 0.0
    for side in ("a", "b"):
        faced = _faced_queue(params, eq, side, grid)
        mask = _support_mask(eq, side, grid)
        on = faced[mask]
        spread = float(on.max() - on.min()) if on.size else 0.0
        ref = float(on.min()) if on.size else 0.0
        off = faced[~mask]
        gain = float(max(0.0, (ref - off).max())) if off.size else 0.0
        worst = max(worst, spread, gain)
    return worst
