"""Integer-valued probability distributions used throughout the library.

Everything lives on the nonnegative integer lattice: service-time laws
(deterministic, geometric, two-component geometric mixtures), pmf
convolution, and the compound-Poisson law of the work arriving in one
time slot. All pmfs are dense float arrays carrying an explicit bound on
the probability mass lost to truncation, so downstream recursions can
account for accumulated error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TAIL_TOL = 1e-12

# Service laws are truncated three orders tighter than the working
# tolerance: a compound law at rate lam inherits roughly lam times the
# jump law's deficit, which must stay negligible at the rates used here.
SERVICE_TAIL_TOL = DEFAULT_TAIL_TOL * 1e-3

# Largest Poisson rate handled by a single Panjer pass; larger rates are
# split in half and recombined by convolution so exp(-rate) never underflows.
_PANJER_SPLIT = 350.0

# Hard ceiling on adaptive support growth; hitting it means the jump law
# or rate is far outside the regimes this library targets.
_SUPPORT_CAP = 2_000_000


class NumericFailure(RuntimeError):
    """A numerical invariant of a recursion or search does not hold."""


def _trim_trailing_zeros(arr: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(arr)
    if nz.size == 0:
        return arr[:1]
    return arr[: nz[-1] + 1]


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function on {0, 1, 2, ...}.

    ``mass[k]`` is P(X = k) up to the truncation point K = len(mass) - 1.
    ``tail_bound`` is an upper bound on the mass beyond K; when not given
    it is set to the measured deficit ``max(0, 1 - sum(mass))``.
    """

    mass: np.ndarray
    tail_bound: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.mass, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("pmf must be a non-empty 1-D array")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("pmf entries must be finite and nonnegative")
        arr = _trim_trailing_zeros(arr)
        total = float(arr.sum())
        if total > 1.0 + 1e-9:
            raise ValueError(f"pmf total mass {total!r} exceeds 1")
        deficit = max(0.0, 1.0 - total)
        if self.tail_bound is None:
            bound = deficit
        else:
            bound = float(self.tail_bound)
            if bound < 0.0:
                raise ValueError("tail_bound must be nonnegative")
            if deficit > bound + 1e-9:
                raise ValueError(
                    f"measured deficit {deficit!r} exceeds tail_bound {bound!r}"
                )
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)
        object.__setattr__(self, "tail_bound", bound)

    @classmethod
    def point_mass(cls, k: int) -> "Pmf":
        if k < 0 or int(k) != k:
            raise ValueError("point mass location must be a nonnegative integer")
        arr = np.zeros(int(k) + 1)
        arr[int(k)] = 1.0
        return cls(arr, 0.0)

    def __len__(self) -> int:
        return self.mass.size

    @property
    def total(self) -> float:
        return float(self.mass.sum())

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.mass.size)

    def mean(self) -> float:
        return float(np.arange(self.mass.size) @ self.mass)

    def variance(self) -> float:
        k = np.arange(self.mass.size)
        m = float(k @ self.mass)
        return max(0.0, float((k * k) @ self.mass) - m * m)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.mass)


def moments(f: Pmf) -> tuple[float, float, float]:
    """Mean, variance and coefficient of variation on the truncated support."""
    m = f.mean()
    v = f.variance()
    if m > 0.0:
        cv = math.sqrt(v) / m
    else:
        cv = 0.0 if v == 0.0 else math.inf
    return m, v, cv


def convolve(f: Pmf, g: Pmf) -> Pmf:
    """Distribution of the sum of two independent lattice variables."""
    return Pmf(np.convolve(f.mass, g.mass))


@dataclass(frozen=True, eq=False)
class ServiceDist:
    """Positive integer-valued service-time law.

    ``chi`` and ``cv`` are the analytic mean and coefficient of variation;
    ``pmf`` is the (possibly truncated) mass function with pmf.mass[0] == 0.
    """

    kind: str
    chi: float
    cv: float
    pmf: Pmf

    def __post_init__(self):
        if self.chi <= 0.0:
            raise ValueError("service mean must be positive")
        if self.pmf.mass[0] != 0.0:
            raise ValueError("service times must be positive integers")
        k = len(self.pmf) - 1
        tol = 10.0 * max(self.pmf.tail_bound, DEFAULT_TAIL_TOL) * max(k, 1)
        if abs(self.pmf.mean() - self.chi) > tol + 1e-9 * self.chi:
            raise ValueError("pmf mean inconsistent with declared mean")

    def second_moment(self) -> float:
        return (self.cv * self.chi) ** 2 + self.chi**2


def make_deterministic(chi) -> ServiceDist:
    """Point mass at an integer service time."""
    if chi != int(chi) or chi < 1:
        raise ValueError("deterministic service time must be an integer >= 1")
    chi = int(chi)
    return ServiceDist("deterministic", float(chi), 0.0, Pmf.point_mass(chi))


def make_geometric(chi: float) -> ServiceDist:
    """Geometric law on {1, 2, ...} with success probability 1/chi."""
    if chi < 1.0:
        raise ValueError("geometric service mean must be >= 1")
    if chi == 1.0:
        return ServiceDist("geometric", 1.0, 0.0, Pmf.point_mass(1))
    p = 1.0 / chi
    k_max = int(math.ceil(math.log(SERVICE_TAIL_TOL) / math.log1p(-p))) + 1
    k = np.arange(1, k_max + 1)
    mass = np.zeros(k_max + 1)
    mass[1:] = p * (1.0 - p) ** (k - 1)
    return ServiceDist("geometric", chi, math.sqrt(1.0 - p), Pmf(mass))


def make_geometric_mixture(chi: float, cv_target: float) -> ServiceDist:
    """Two-component geometric mixture with prescribed mean and CV.

    Convention: the first component is pinned to mean 1 (a unit point mass)
    and the mixing weight is the root of the two moment equations, which
    here reduces to a closed form. Any CV above the single-geometric value
    sqrt(1 - 1/chi) is feasible; at the boundary the mixture degenerates
    to the plain geometric law.
    """
    if chi < 1.0:
        raise ValueError("mixture service mean must be >= 1")
    if cv_target <= 0.0:
        raise ValueError("target CV must be positive")
    cv_geo = math.sqrt(1.0 - 1.0 / chi)
    if cv_target <= cv_geo + 1e-9:
        if cv_target < cv_geo - 1e-3:
            raise ValueError(
                f"target CV {cv_target} below geometric CV {cv_geo:.6f} at mean {chi}"
            )
        geo = make_geometric(chi)
        return ServiceDist("geometric_mixture", chi, geo.cv, geo.pmf)
    s2 = chi * chi * (1.0 + cv_target * cv_target)
    denom = s2 - 3.0 * chi + 2.0
    if denom <= 0.0:
        raise ValueError("mixture infeasible at this mean/CV pair")
    beta = (s2 + chi - 2.0 * chi * chi) / denom
    if not 0.0 < beta < 1.0:
        raise ValueError("mixture infeasible at this mean/CV pair")
    m2 = (chi - beta) / (1.0 - beta)
    p2 = 1.0 / m2
    k_max = int(math.ceil(math.log(SERVICE_TAIL_TOL) / math.log1p(-p2))) + 1
    mass = np.zeros(k_max + 1)
    k = np.arange(1, k_max + 1)
    mass[1:] = (1.0 - beta) * p2 * (1.0 - p2) ** (k - 1)
    mass[1] += beta
    return ServiceDist("geometric_mixture", chi, cv_target, Pmf(mass))


def mix_services(x_a: ServiceDist, x_b: ServiceDist, weight_a: float) -> ServiceDist:
    """Probabilistic mixture of two service laws (weight on the first)."""
    if not 0.0 <= weight_a <= 1.0:
        raise ValueError("mixture weight must lie in [0, 1]")
    n = max(len(x_a.pmf), len(x_b.pmf))
    mass = np.zeros(n)
    mass[: len(x_a.pmf)] += weight_a * x_a.pmf.mass
    mass[: len(x_b.pmf)] += (1.0 - weight_a) * x_b.pmf.mass
    chi = weight_a * x_a.chi + (1.0 - weight_a) * x_b.chi
    m2 = weight_a * x_a.second_moment() + (1.0 - weight_a) * x_b.second_moment()
    cv = math.sqrt(max(0.0, m2 - chi * chi)) / chi
    return ServiceDist("mixture", chi, cv, Pmf(mass))


def _panjer_extend(lam: float, jump_rev: np.ndarray, h: np.ndarray, upto: int) -> np.ndarray:
    """Continue the compound-Poisson recursion h(k) = (lam/k) sum_j j x(j) h(k-j).

    ``jump_rev`` holds j * x(j) for j = K_x .. 1 (reversed), so each step is
    a contiguous dot product.
    """
    kx = jump_rev.size
    out = np.empty(upto + 1)
    out[: h.size] = h
    for k in range(h.size, upto + 1):
        m = min(k, kx)
        out[k] = (lam / k) * float(out[k - m : k] @ jump_rev[kx - m :])
    return out


def compound_poisson(
    lam: float,
    jumps: ServiceDist | Pmf,
    tail_tol: float = DEFAULT_TAIL_TOL,
    k_max: int | None = None,
) -> Pmf:
    """Law of a Poisson(lam)-indexed sum of iid positive jumps.

    Support is extended adaptively until the truncated tail is below
    ``tail_tol``; passing ``k_max`` instead fixes the truncation point.
    """
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError("compound rate must be finite and nonnegative")
    x = jumps.pmf if isinstance(jumps, ServiceDist) else jumps
    if x.mass[0] != 0.0:
        raise ValueError("jump law must put no mass at zero")
    if lam == 0.0:
        return Pmf.point_mass(0)
    if lam > _PANJER_SPLIT:
        half = compound_poisson(lam / 2.0, x, tail_tol / 2.0, k_max)
        out = convolve(half, half)
        return out if k_max is None else Pmf(out.mass[: k_max + 1])
    jump = x.mass
    jx = np.arange(jump.size) * jump
    jump_rev = jx[1:][::-1]
    mean_j = float(jx.sum())
    m2_j = float((np.arange(jump.size) ** 2) @ jump)
    guess = int(math.ceil(lam * mean_j + 12.0 * math.sqrt(lam * m2_j))) + jump.size + 16
    target = guess if k_max is None else int(k_max)
    h = np.array([math.exp(-lam)])
    h = _panjer_extend(lam, jump_rev, h, target)
    if k_max is None:
        # The truncated jump law leaves an irreducible deficit of about
        # lam times its own tail; stop once within tail_tol of that floor.
        floor = -math.expm1(-lam * x.tail_bound)
        while 1.0 - h.sum() > tail_tol + floor:
            if 2 * target > _SUPPORT_CAP:
                raise RuntimeError("compound-Poisson support exceeded the hard cap")
            target *= 2
            h = _panjer_extend(lam, jump_rev, h, target)
    return Pmf(h)
