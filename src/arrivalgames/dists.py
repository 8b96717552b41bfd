"""Integer-valued probability distributions used throughout the library.

Everything lives on the nonnegative integer lattice: service-time laws
(deterministic, geometric, two-component geometric mixtures), pmf
convolution, and the compound-Poisson law of the work arriving in one
time slot. A checked ``Pmf`` is a dense float array whose mass lost to
truncation is its measured deficit, one minus its total.

One private kernel on plain arrays adds a slot's compound-Poisson work
to a workload law. For long jump laws (geometric, mixtures) it takes one
FFT per step, ``irfft(rfft(v, n) * exp(lam * (X_n - 1)))``, with the
jump law's transform ``X_n`` kept per FFT length; for short ones
(deterministic service and its mixtures) it convolves a Poisson count on
the multiples of each atom (Embrechts and Frei 2009, "Panjer recursion
versus FFT for compound distributions"). A Chernoff bound sets the
window so that both the dropped mass and the dropped first moment stay
within tolerance; the bound is unimodal in s, so a walk on scalars from
where the last search ended finds its minimum over a fixed grid. A window
longer than a fixed size is then cut at the first entry past which its
remaining first moment, and so its remaining mass, is within tolerance
too: FFT round-off and the Poisson tail never reach exact zeros, and
without the cut supports grow slot by slot. On the FFT path the trailing
entries within round-off, a floor scaled by eps times the window's
2-norm, go before that cut: over a long window their first moment alone
passes the tolerance. The kernel carries the lost mass, the cuts'
included, as a float. A step on a short law costs a couple of dozen
numpy calls, not arithmetic, so the kernel makes as few as it can: index
vectors are views of one shared array, grown on demand.
``compound_poisson`` is the same kernel applied to a point mass at zero.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_TAIL_TOL = 1e-12

# Service laws are truncated three orders tighter than the working
# tolerance: a compound law at rate lam inherits roughly lam times the
# jump law's deficit, which must stay negligible at the rates used here.
SERVICE_TAIL_TOL = DEFAULT_TAIL_TOL * 1e-3

# Widest window of a workload law plus its arriving work that the kernel
# builds, on either path, and the longest service law the constructors
# build: an input that needs more fails fast with SupportBudgetError.
_MAX_SUPPORT = 1 << 21

# Jump laws with at most this many atoms (deterministic service and its
# mixtures) are added by Poisson thinning; longer ones by one FFT.
_THINNING_ATOMS = 8

# FFT lengths: powers of two and three times powers of two, up to the budget.
_FFT_SIZES = sorted([2**k for k in range(4, 22)] + [3 * 2**k for k in range(3, 20)])

# Points of the grid of s on which the kernel minimises its Chernoff bound.
_CHERNOFF_POINTS = 128

# Windows longer than this are cut where their tail is negligible; on
# shorter ones the cut costs more than it saves.
_CUT_MIN = 256

# The FFT path's round-off floor per entry, per unit of the window's
# 2-norm: about twice the largest round-off measured on long windows,
# 1.1 eps.
_NOISE_FLOOR = 2.0 * float(np.finfo(float).eps)


class NumericFailure(RuntimeError):
    """A numerical invariant of a recursion or search does not hold."""


class SupportBudgetError(ValueError):
    """An input needs a support past the kernel's fixed size budget."""


def _count(value, name: str, least: int = 1) -> int:
    """``value`` as an int if it is an integer of at least ``least``
    (integral floats pass), else ``ValueError``, also for NaN, infinity and
    an integer past the float range."""
    try:
        whole = value >= least and float(value).is_integer()
    except OverflowError:
        raise ValueError(f"{name} lies past the float range") from None
    if not whole:
        kinds = {1: "a positive integer", 0: "a nonnegative integer"}
        kind = kinds.get(least, f"an integer of at least {least}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def _check_counts(obj, **names: str) -> None:
    """Store each given field of the frozen dataclass ``obj`` as an int
    through ``_count``; the keyword's value names the field in errors."""
    for field, name in names.items():
        object.__setattr__(obj, field, _count(getattr(obj, field), name))


_INDEX = np.arange(0.0)


def _index(n: int) -> np.ndarray:
    """0.0, 1.0, ..., n - 1 as a read-only view of one shared array, which
    grows by doubling when a longer one is asked for (lazily, so importing
    the library allocates none of it)."""
    global _INDEX
    index = _INDEX
    if index.size < n:
        index = np.arange(float(max(n, min(2 * index.size, _MAX_SUPPORT))))
        index.flags.writeable = False
        _INDEX = index
    return index[:n]


def _trim_trailing_zeros(arr: np.ndarray) -> np.ndarray:
    if arr[-1] != 0.0:
        return arr
    nz = arr.nonzero()[0]
    return arr[: nz[-1] + 1] if nz.size else arr[:1]


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function on {0, 1, 2, ...}.

    ``mass[k]`` is P(X = k) up to the truncation point K = len(mass) - 1.
    ``tail_bound``, the mass beyond K, is the measured deficit
    ``max(0, 1 - sum(mass))``.
    """

    mass: np.ndarray

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
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)

    @classmethod
    def point_mass(cls, k: int) -> "Pmf":
        k = _count(k, "point mass location", 0)
        if not k < _MAX_SUPPORT:
            raise SupportBudgetError(
                f"a point mass at {k!r} needs {k + 1} entries, past the budget of {_MAX_SUPPORT}"
            )
        arr = np.zeros(k + 1)
        arr[k] = 1.0
        return cls(arr)

    def __len__(self) -> int:
        return self.mass.size

    @property
    def total(self) -> float:
        return float(self.mass.sum())

    @property
    def tail_bound(self) -> float:
        return max(0.0, 1.0 - self.total)

    def mean(self) -> float:
        return float(np.arange(self.mass.size) @ self.mass)


def convolve(f: Pmf, g: Pmf) -> Pmf:
    """Distribution of the sum of two independent lattice variables."""
    return Pmf(np.convolve(f.mass, g.mass))


@dataclass(frozen=True, eq=False)
class ServiceDist:
    """Positive integer-valued service-time law, and the one check of a
    jump law of the compound-Poisson kernel.

    ``chi`` and ``cv`` are the analytic mean and coefficient of variation;
    ``pmf`` is the (possibly truncated) mass function with pmf.mass[0] == 0
    and at most 1e-9 of its mass missing.
    """

    kind: str
    chi: float
    cv: float
    pmf: Pmf

    def __post_init__(self):
        if not 0.0 < self.chi < math.inf:
            raise ValueError("service mean must be positive and finite")
        if not 0.0 <= self.cv < math.inf:
            raise ValueError("service CV must be nonnegative and finite")
        if self.pmf.mass[0] != 0.0:
            raise ValueError("service times must be positive integers")
        if self.pmf.tail_bound > 1e-9:
            raise ValueError(f"service pmf may miss mass {self.pmf.tail_bound!r}, past 1e-9")
        k = len(self.pmf) - 1
        tol = 10.0 * max(self.pmf.tail_bound, DEFAULT_TAIL_TOL) * max(k, 1)
        if abs(self.pmf.mean() - self.chi) > tol + 1e-9 * self.chi:
            raise ValueError("pmf mean inconsistent with declared mean")

    def second_moment(self) -> float:
        return (self.cv * self.chi) ** 2 + self.chi**2

    @cached_property
    def _as_jumps(self) -> "_JumpLaw":
        """This law as the jump law of the compound-Poisson kernel."""
        return _JumpLaw(self.pmf)


def make_deterministic(chi) -> ServiceDist:
    """Point mass at an integer service time; past the support budget it
    raises ``SupportBudgetError`` before allocating."""
    chi = _count(chi, "deterministic service time")
    return ServiceDist("deterministic", float(chi), 0.0, Pmf.point_mass(chi))


def _geometric_mass(mean: float, weight: float = 1.0) -> np.ndarray:
    """``weight`` times a geometric law on {1, 2, ...} with this mean, cut
    where its tail is within SERVICE_TAIL_TOL."""
    p = 1.0 / mean
    # The mass past k is (1 - p) ** k; near the float range the quotient
    # is inf, which fails the check.
    past = math.log(SERVICE_TAIL_TOL) / math.log1p(-p)
    if not past <= _MAX_SUPPORT - 2:
        raise SupportBudgetError(
            f"a geometric law of mean {mean!r} needs {past + 2:.4g} entries, past the "
            f"budget of {_MAX_SUPPORT}"
        )
    k = np.arange(math.ceil(past) + 1)
    mass = np.zeros(k.size + 1)
    mass[1:] = weight * p * (1.0 - p) ** k
    return mass


def make_geometric(chi: float) -> ServiceDist:
    """Geometric law on {1, 2, ...} with success probability 1/chi."""
    if not 1.0 <= chi < math.inf:
        raise ValueError("geometric service mean must be finite and >= 1")
    if chi == 1.0:
        return ServiceDist("geometric", 1.0, 0.0, Pmf.point_mass(1))
    return ServiceDist("geometric", chi, math.sqrt(1.0 - 1.0 / chi), Pmf(_geometric_mass(chi)))


def make_geometric_mixture(chi: float, cv_target: float) -> ServiceDist:
    """Two-component geometric mixture with prescribed mean and CV.

    Convention: the first component is pinned to mean 1 (a unit point mass)
    and the mixing weight is the root of the two moment equations, which
    here reduces to a closed form. Any CV above the single-geometric value
    sqrt(1 - 1/chi) is feasible; at the boundary the mixture degenerates
    to the plain geometric law.
    """
    if not 1.0 <= chi < math.inf:
        raise ValueError("mixture service mean must be finite and >= 1")
    if not 0.0 < cv_target < math.inf:
        raise ValueError("target CV must be positive and finite")
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
    mass = _geometric_mass((chi - beta) / (1.0 - beta), 1.0 - beta)
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


class _JumpLaw:
    """What the compound-Poisson kernel reuses per jump law: its atoms, the
    terms of a Chernoff bound on a fixed grid of s, and its transforms by
    FFT length.

    A law of at most _THINNING_ATOMS atoms is added by Poisson thinning,
    any longer one by FFT.
    """

    def __init__(self, x: Pmf):
        mass = x.mass
        atoms = np.flatnonzero(mass)
        weights = mass[atoms]
        self.mass = mass
        # The FFT path loses the missing mass of the truncated jump law
        # through exp(lam (X(0) - 1)); thinning scales by the same factor.
        self.deficit = max(0.0, 1.0 - float(weights.sum()))
        self.thin = atoms.size <= _THINNING_ATOMS
        self.atoms = list(zip(atoms.tolist(), weights.tolist()))
        # M(s) - 1 and M'(s) of the jump law on a grid of s wide enough for
        # every rate: from far below the reach of the longest atom to far
        # above that of the shortest.
        grid = np.geomspace(1e-3 / atoms[-1], 40.0 / atoms[0], _CHERNOFF_POINTS)
        grow = np.empty_like(grid)
        slope = np.empty_like(grid)
        with np.errstate(over="ignore"):
            for i, s in enumerate(grid):
                e = np.expm1(s * atoms)
                grow[i] = weights @ e
                slope[i] = (weights * atoms) @ (e + 1.0)
        # Where the bound is useless anyway, inf keeps lam times it from
        # overflowing.
        useless = ~((grow < 1e150) & (slope < 1e150))
        grow[useless] = slope[useless] = np.inf
        # Memoryviews of the arrays, whose items cutoff reads as Python
        # floats (the array module would add its shared library to the RSS).
        self.s = memoryview(grid)
        self.mgf_m1 = memoryview(grow - self.deficit)
        self.dmgf = memoryview(slope)
        # The grid point where the last cutoff search ended.
        self._best = _CHERNOFF_POINTS // 2
        self._spectra: dict[int, np.ndarray] = {}
        self._log_factorial = np.zeros(1)

    def __reduce__(self):
        # Memoryviews do not pickle, so a copy is rebuilt from the jump law.
        return _JumpLaw, (Pmf(self.mass),)

    def cutoff(self, lam: float, k: int, tol: float) -> float:
        """A length L with E[(k + S); S >= L] <= tol for the compound sum S
        at rate lam: exp(-sL) E[(k + S) exp(sS)] at the best s of the grid.
        It bounds both the mass and the first moment of what a window of
        k - 1 + L entries drops from a workload law of k entries plus S.

        The bound at s is L(s) = psi(s) / s with psi(s) = lam (M(s) - 1) +
        log(k + lam M'(s)) - log(tol) = log(E[(k + S) exp(sS)] / tol), which
        is convex with psi(0) > 0. So s psi'(s) - psi(s), the numerator of
        L'(s), grows with s, and L falls, then rises. The search walks the
        grid downhill from where the last one ended, on Python floats, so it
        returns the same value as the minimum over the whole grid. Its left
        walk crosses ties, so it leaves the run of infinite bounds at the
        grid's top end."""
        s, grow, slope, log_tol = self.s, self.mgf_m1, self.dmgf, math.log(tol)

        def bound(i: int) -> float:
            return (lam * grow[i] + math.log(k + lam * slope[i]) - log_tol) / s[i]

        i = self._best
        best = bound(i)
        while i > 0 and not (left := bound(i - 1)) > best:
            i, best = i - 1, left
        while i + 1 < len(s) and (right := bound(i + 1)) < best:
            i, best = i + 1, right
        self._best = i
        return best

    def floor(self, lam: float) -> float:
        """Mass the compound law misses because the jump law is truncated."""
        return -math.expm1(-lam * self.deficit)

    def spectrum(self, n: int) -> np.ndarray:
        """rfft of the jump law wrapped onto n points, minus one."""
        out = self._spectra.get(n)
        if out is None:
            wrapped = np.pad(self.mass, (0, -self.mass.size % n)).reshape(-1, n).sum(axis=0)
            out = self._spectra[n] = np.fft.rfft(wrapped) - 1.0
        return out

    def thinned(self, lam: float, n: int) -> np.ndarray:
        """The compound law at rate lam on 0 .. n-1: a Poisson(lam x_j)
        count on the multiples of each atom j, convolved over the atoms.
        The counts come from logs, so that no rate over- or underflows."""
        if self._log_factorial.size < n:
            size = min(max(n, 2 * self._log_factorial.size), _MAX_SUPPORT)
            self._log_factorial = np.array([math.lgamma(i + 1.0) for i in range(size)])
        h = None
        for j, x in self.atoms:
            mu = lam * x
            # a rate that underflows to zero leaves the point mass at zero
            m = (n - 1) // j + 1 if mu > 0.0 else 1
            count = _index(m) * math.log(mu or 1.0)
            count -= mu
            count -= self._log_factorial[:m]
            np.exp(count, out=count)
            if j > 1:
                lattice = np.zeros((m - 1) * j + 1)
                lattice[::j] = count
                count = lattice
            h = count if h is None else np.convolve(h, count)[:n]
        return h * math.exp(-lam * self.deficit) if self.deficit else h


def _add_compound(
    v: np.ndarray, tail: float, lam: float, service: ServiceDist
) -> tuple[np.ndarray, float]:
    """Law of V + S on plain arrays, for V with law ``v`` (missing at most
    ``tail`` of its mass) and S compound Poisson with rate ``lam`` and
    jump law ``service``, independent of V.

    The window is the shortest one whose dropped mass and first moment are
    both within DEFAULT_TAIL_TOL by a Chernoff bound. Checks what a
    ``Pmf`` checks: finite, nonnegative up to FFT round-off, mass at most
    one, and a deficit within the bound. A window of more than _CUT_MIN
    entries is then cut at the first entry past which the rest of its mass
    and first moment are both within DEFAULT_TAIL_TOL, which also drops
    trailing zeros; on the FFT path its trailing entries within round-off
    go first. A shorter one loses only its trailing zeros. Returns the
    window, a fresh array the caller may overwrite, and the bound on its
    missing mass, plus what the cuts drop.
    """
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError("compound rate must be finite and nonnegative")
    if lam == 0.0:
        return v.copy(), tail
    law = service._as_jumps
    k = v.size
    cut = law.cutoff(lam, k, DEFAULT_TAIL_TOL)
    if not k + cut <= _MAX_SUPPORT:
        raise SupportBudgetError(
            f"compound-Poisson rate {lam!r} on a workload of {k} entries needs a "
            f"support past the budget of {_MAX_SUPPORT} entries"
        )
    # A window of k - 1 + L entries drops only outcomes with S >= L.
    m = k + max(int(math.ceil(cut)), 1) - 1
    if law.thin:
        c = np.convolve(v, law.thinned(lam, m - k + 1))[:m]
    else:
        # Outcomes at or past n wrap onto the window; n >= m keeps their
        # mass and first moment within the tolerance as well.
        n = _FFT_SIZES[bisect.bisect_left(_FFT_SIZES, m)]
        c = np.fft.irfft(np.fft.rfft(v, n) * np.exp(lam * law.spectrum(n)), n)[:m]
    total = float(c.sum())
    if not math.isfinite(total):
        raise NumericFailure("compound-Poisson step produced non-finite mass")
    low = float(c.min())
    if low < 0.0:
        if low < -1e-12:
            raise NumericFailure(f"compound-Poisson step produced mass {low!r} < 0")
        c = np.maximum(c, 0.0)
        total = float(c.sum())
    if total > 1.0 + 1e-9:
        raise NumericFailure(f"compound-Poisson step produced total mass {total!r} > 1")
    bound = tail + law.floor(lam) + DEFAULT_TAIL_TOL
    if 1.0 - total > bound + 1e-9:
        raise NumericFailure(
            f"compound-Poisson step lost mass {1.0 - total!r} past its bound {bound!r}"
        )
    if c.size <= _CUT_MIN:
        return _trim_trailing_zeros(c), bound
    end = c.size
    if not law.thin:
        # An FFT leaves round-off of about eps times the window's 2-norm in
        # every entry, which over a long window carries more first moment
        # than the tolerance: the entries past the last one above a floor
        # of that size are round-off, and go first.
        end -= int((c[::-1] > _NOISE_FLOOR * math.sqrt(c @ c)).argmax())
    # The first moment of the entries from index j >= 1 on is at least
    # their mass, so one reverse cumulative sum of it places the cut.
    moment = np.cumsum((_index(end) * c[:end])[::-1])
    end = max(end - int(np.searchsorted(moment, DEFAULT_TAIL_TOL, "right")), 1)
    return c[:end], bound + float(c[end:].sum())


def compound_poisson(lam: float, service: ServiceDist) -> Pmf:
    """Law of a Poisson(lam)-indexed sum of iid jumps with law ``service``.

    The support ends where the dropped tail mass and first moment are both
    within DEFAULT_TAIL_TOL.
    """
    c, _ = _add_compound(np.ones(1), 0.0, lam, service)
    return Pmf(c)
