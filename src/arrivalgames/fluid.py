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
from dataclasses import dataclass

import numpy as np

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
    """Uniform-density arrival interval (start, end, constant density)."""

    start: float
    end: float
    density: float

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError("segment must have positive length")
        if self.density < 0.0:
            raise ValueError("segment density must be nonnegative")

    @property
    def mass(self) -> float:
        return self.density * (self.end - self.start)


@dataclass(frozen=True)
class FluidEquilibrium:
    case_tag: str
    horizon: float
    atom_a: float
    atom_b: float
    segments_a: tuple[Segment, ...]
    segments_b: tuple[Segment, ...]
    q0: float
    non_unique: bool = False

    def atom(self, side: str) -> float:
        return self.atom_a if side == "a" else self.atom_b

    def segments(self, side: str) -> tuple[Segment, ...]:
        return self.segments_a if side == "a" else self.segments_b

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


def _case_v_solution(params: FluidParams):
    """Candidate partially-degenerate solution; None when any of the
    construction's side conditions fails."""
    la, lb, ma, mb, T = (
        params.lam_a,
        params.lam_b,
        params.mu_a,
        params.mu_b,
        params.horizon,
    )
    atom_a = 2.0 * (la + lb - ma * T) / la
    if not 0.0 < atom_a < 1.0:
        return None
    denom = (la + lb - ma * T) * (mb - 2.0 * ma) + lb * mb
    if denom <= 0.0:
        return None
    k = ma * mb / denom
    # The construction needs the joint arrival rate during b's interval to
    # stay below a's believed drain rate, else a-customers gain by moving
    # into that interval. This holds only when mu_b >= 2 mu_a.
    if lb * k > ma * (1.0 + 1e-12):
        return None
    t_a = (la * atom_a + 2.0 * lb) / (2.0 * ma)
    t_b = la * atom_a / mb
    if not t_b < t_a <= T + 1e-12:
        return None
    return atom_a, k, t_a, t_b


def classify(params: FluidParams) -> set[str]:
    """All equilibrium case tags applicable at these parameters.

    Cases i-iv partition the horizon axis; v and vi may overlap with iv
    and with each other, so the result can hold several tags.
    """
    x1, x2, x3, x4 = thresholds(params)
    T = params.horizon
    tags: set[str] = set()
    if T <= x1:
        tags.add("i")
    elif T < x2:
        tags.add("ii")
    elif T <= x3:
        tags.add("iii")
    elif T <= x4:
        tags.add("iv")
    if T > x4:
        tags.add("vi")
    if _case_v_solution(params) is not None:
        tags.add("v")
    return tags


def solve_case(params: FluidParams, tag: str) -> FluidEquilibrium:
    """Equilibrium arrival profile for one applicable case tag.

    For the degenerate cases v and vi (a continuum of equilibria exists)
    the canonical uniform-density representative is returned with
    ``non_unique`` set.
    """
    if tag not in CASE_TAGS:
        raise InvalidCaseError(f"unknown case tag {tag!r}")
    if tag not in classify(params):
        raise InvalidCaseError(f"case {tag!r} does not apply at these parameters")
    la, lb, ma, mb, T = (
        params.lam_a,
        params.lam_b,
        params.mu_a,
        params.mu_b,
        params.horizon,
    )
    x1, x2, x3, x4 = thresholds(params)
    if tag == "i":
        return FluidEquilibrium("i", T, 1.0, 1.0, (), (), (la + lb) / 2.0)
    if tag == "ii":
        atom_b = (2.0 * mb / lb) * (x2 - T)
        t_b = (la + lb * atom_b) / (2.0 * mb)
        seg_b = Segment(t_b, T, mb / lb)
        return FluidEquilibrium("ii", T, 1.0, atom_b, (), (seg_b,), (la + lb * atom_b) / 2.0)
    if tag == "iii":
        t_b = T - lb / mb
        seg_b = Segment(t_b, T, mb / lb)
        return FluidEquilibrium("iii", T, 1.0, 0.0, (), (seg_b,), la / 2.0)
    if tag == "iv":
        atom_a = (2.0 * ma / la) * (x4 - T)
        t_a = la * atom_a / (2.0 * ma)
        t_b = T - lb / mb
        segs_a = (Segment(t_a, t_b, ma / la),) if t_a < t_b else ()
        seg_b = Segment(t_b, T, mb / lb)
        return FluidEquilibrium("iv", T, atom_a, 0.0, segs_a, (seg_b,), la * atom_a / 2.0)
    if tag == "v":
        sol = _case_v_solution(params)
        atom_a, k, t_a, t_b = sol
        segs_a = (Segment(t_a, T, ma / la),) if t_a < T else ()
        return FluidEquilibrium(
            "v", T, atom_a, 0.0, segs_a, (Segment(t_b, t_a, k),), la * atom_a / 2.0,
            non_unique=True,
        )
    # vi: fully degenerate, queue never forms under either belief
    t_split = la / ma
    seg_a = Segment(0.0, t_split, ma / la)
    seg_b = Segment(t_split, t_split + lb / mb, mb / lb)
    return FluidEquilibrium("vi", T, 0.0, 0.0, (seg_a,), (seg_b,), 0.0, non_unique=True)


@dataclass(frozen=True)
class FluidCheck:
    """Grid verification outcome: deviation from constancy on each support
    plus the worst off-support improvement; both fold into max_violation."""

    max_violation: float
    support_spread_a: float
    support_spread_b: float
    offsupport_violation_a: float
    offsupport_violation_b: float
    grid_n: int


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
    mu = params.mu_a if side == "a" else params.mu_b
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


def verify_fluid(params: FluidParams, eq: FluidEquilibrium, grid_n: int = 10_000) -> FluidCheck:
    """Check the equilibrium conditions on a grid.

    For each belief the faced queue must be constant across the strategy's
    support and no smaller anywhere else; the returned ``max_violation``
    is the worst deviation over both beliefs.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    grid = _verification_grid(eq, grid_n)
    spreads = {}
    offs = {}
    for side in ("a", "b"):
        faced = _faced_queue(params, eq, side, grid)
        mask = _support_mask(eq, side, grid)
        on = faced[mask]
        spreads[side] = float(on.max() - on.min()) if on.size else 0.0
        ref = float(on.min()) if on.size else 0.0
        off = faced[~mask]
        offs[side] = float(max(0.0, (ref - off).max())) if off.size else 0.0
    worst = max(spreads["a"], spreads["b"], offs["a"], offs["b"])
    return FluidCheck(worst, spreads["a"], spreads["b"], offs["a"], offs["b"], grid.size)
