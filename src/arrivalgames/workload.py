"""Transient workload of the discrete-time arrival game.

The acceptance period is split into slots of integer length tau; arrivals
happen at slot openings and the server drains one unit of work per time
unit. Under a fixed belief about the service law, the law of the
unfinished workload just before each slot follows a collapse-and-shift
recursion driven by the compound-Poisson work arriving per slot. The
expected wait of an arrival is the mean pre-slot workload plus half its
own cohort's work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dists import (
    DEFAULT_TAIL_TOL,
    NumericFailure,
    Pmf,
    ServiceDist,
    _add_compound,
    _check_counts,
    _count,
    _index,
)
# Unused here: bench/tracer.py wraps both names in this namespace, and
# tests/test_bench_hooks.py checks that they stay importable from it.
from .dists import compound_poisson, convolve  # noqa: F401
from .signals import _side

_DELTA0 = np.ones(1)
_DELTA0.flags.writeable = False


class InvalidStrategyError(ValueError):
    """Arrival strategy is not a probability vector within tolerance."""


@dataclass(frozen=True)
class SlotGame:
    """Discrete-time game instance: mean populations, slot structure and
    the two believed service laws (slots are indexed 0 .. n_slots-1)."""

    lam_a: float
    lam_b: float
    tau: int
    n_slots: int
    x_a: ServiceDist
    x_b: ServiceDist

    def __post_init__(self):
        if not all(0.0 <= lam < math.inf for lam in (self.lam_a, self.lam_b)):
            raise ValueError("population means must be finite and nonnegative")
        _check_counts(self, tau="slot length", n_slots="slot count")

    def service(self, belief: str) -> ServiceDist:
        return (self.x_a, self.x_b)[_side(belief)]

    def own_lam(self, belief: str) -> float:
        return (self.lam_a, self.lam_b)[_side(belief)]

    def other_lam(self, belief: str) -> float:
        return (self.lam_b, self.lam_a)[_side(belief)]


@dataclass(frozen=True)
class ArrivalStrategy:
    """Probability vector over slots, built from an array-like or from
    another ``ArrivalStrategy``. Entries must be finite and at least
    -1e-12, else ``InvalidStrategyError``; they are clipped at zero."""

    probs: np.ndarray

    def __post_init__(self):
        p = self.probs
        arr = np.asarray(p.probs if isinstance(p, ArrivalStrategy) else p, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidStrategyError("strategy must be a non-empty 1-D vector")
        # min and max are NaN when any entry is.
        if not (arr.min() >= -1e-12 and arr.max() < math.inf):
            raise InvalidStrategyError("strategy entries must be finite and nonnegative")
        arr = np.maximum(arr, 0.0)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @classmethod
    def point_mass(cls, n_slots: int, slot: int = 0) -> "ArrivalStrategy":
        """All mass on ``slot``, an integer in [0, n_slots), else ``ValueError``."""
        arr = np.zeros(_count(n_slots, "slot count"))
        slot = _count(slot, "slot", 0)
        if slot >= arr.size:
            raise ValueError(f"slot must be an integer in [0, {arr.size}), got {slot!r}")
        arr[slot] = 1.0
        return cls(arr)

    @classmethod
    def uniform(cls, n_slots: int) -> "ArrivalStrategy":
        """Equal mass on ``n_slots`` slots, a positive integer, else ``ValueError``."""
        n_slots = _count(n_slots, "slot count")
        return cls(np.full(n_slots, 1.0 / n_slots))

    @property
    def total(self) -> float:
        return float(self.probs.sum())

    def normalized(self) -> "ArrivalStrategy":
        total = self.total
        if total <= 0.0:
            raise ValueError("cannot normalize a zero strategy")
        return ArrivalStrategy(self.probs / total)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)


def _as_probs(p, n_slots: int, mass_tol: float) -> np.ndarray:
    """The checked slot vector of a strategy given as an array-like or an
    ``ArrivalStrategy``: ``n_slots`` entries that pass the entry check of
    ``ArrivalStrategy`` (clipped at zero) and a total mass within
    ``mass_tol`` of one (``math.inf`` skips the mass check). Raises
    ``InvalidStrategyError``."""
    probs = ArrivalStrategy(p).probs
    if probs.size != n_slots:
        raise InvalidStrategyError(f"strategy must have length {n_slots}")
    total = float(probs.sum())
    if abs(total - 1.0) > mass_tol:
        raise InvalidStrategyError(f"strategy mass {total!r} is off the simplex")
    return probs


def _collapse_shift(c: np.ndarray, tau: int) -> tuple[np.ndarray, float]:
    """Drain tau units from the workload-plus-arrivals law ``c``, a fresh
    window that this overwrites: its mass at or below tau collapses onto
    entry tau, and the window from there on, shifted left by tau, is
    returned as a view, with the idle credit E[(tau - C)^+]."""
    if tau == 1 and c.size > 1:
        # One unit slot, the most common step, on scalars: the same sums.
        idle_credit = float(c[0])
        c[1] += c[0]
        return c[1:], idle_credit
    head = c[:tau]
    idle_credit = float((tau - _index(head.size)) @ head)
    if c.size <= tau + 1:
        return np.array([float(c.sum())]), idle_credit
    c[tau] = c[: tau + 1].sum()
    return c[tau:], idle_credit


class _SlotFields(NamedTuple):
    slot: int
    v: np.ndarray
    ev: float
    ev_tel: float
    tail: float


class SlotState(_SlotFields):
    """Workload law just before a slot, as a plain array, with the carried
    bound on its missing mass and its direct and telescoped means. A
    ``Pmf`` given as ``v`` is unwrapped into its array and bound. A tuple,
    so it is immutable and cheap to build."""

    __slots__ = ()

    def __new__(cls, slot: int, v, ev: float, ev_tel: float, tail: float = 0.0):
        if isinstance(v, Pmf):
            v, tail = v.mass, v.tail_bound
        return super().__new__(cls, slot, v, ev, ev_tel, tail)


class WorkloadStepper:
    """Advances the pre-slot workload law slot by slot under one belief.

    States are immutable, so alternative continuations (as in best-response
    search) can branch from any prefix without copying.
    """

    def __init__(self, service: ServiceDist, tau: int):
        self.service = service
        self.tau = int(tau)

    def initial(self) -> SlotState:
        return SlotState(0, _DELTA0, 0.0, 0.0)

    def wait(self, state: SlotState, load: float) -> float:
        """Expected wait of an arrival this slot when the mean number of
        same-slot arrivals is ``load``."""
        return state.ev + 0.5 * load * self.service.chi

    def advance(self, state: SlotState, load: float, slots: int = 1) -> SlotState:
        """State after the slot's arrivals at mean count ``load`` and
        ``slots`` slots of draining: the ``slots - 1`` slots after this
        one take no arrivals, and one collapse-and-shift drains all of
        them. The mean cross-check spans the whole step. The collapse
        writes into the kernel's fresh window and keeps a view of it.

        The step's mean falls by at most ``slots * tau`` and rises by the
        arriving work, ``load`` times the mean of the truncated jump law,
        less the kernel's truncation dust: E[(V + A - slots tau)^+] >=
        E[V] + m E[N] - slots tau. ``solver._ResponseEngine`` bounds later
        waits from below with this, with a margin of 1e-9 relative per
        slot of the horizon and 1e-9 (1 + tau) absolute per slot, far
        above the dust of about 5e-14 relative and 2e-11 absolute.
        """
        c, tail = _add_compound(state.v, state.tail, load, self.service)
        drain = self.tau * slots
        v_next, idle_credit = _collapse_shift(c, drain)
        ev_tel = state.ev_tel + load * self.service.chi - drain + idle_credit
        v_next.flags.writeable = False
        ev = float(_index(v_next.size) @ v_next)
        t_next = state.slot + slots
        # Both means are exact up to truncation dust, which grows with the
        # support size and the number of slots composed so far.
        slack = 10.0 * DEFAULT_TAIL_TOL * c.size * (t_next + 1) + 1e-9
        if not abs(ev - ev_tel) <= slack:
            raise NumericFailure(
                f"workload mean cross-check failed at slot {t_next}: "
                f"direct {ev!r} vs telescoped {ev_tel!r}"
            )
        return SlotState(t_next, v_next, ev, ev_tel, tail)


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-slot mean workloads and expected waits under one belief, for a
    fixed pair of arrival strategies: ``ev`` holds the means of the
    workload laws."""

    ev: np.ndarray
    w: np.ndarray


def workload_profile(
    game: SlotGame,
    p_a,
    p_b,
    belief: str,
    mass_tol: float = 1e-6,
) -> WorkloadProfile:
    """Mean workload and expected wait for every slot."""
    pa = _as_probs(p_a, game.n_slots, mass_tol)
    pb = _as_probs(p_b, game.n_slots, mass_tol)
    loads = game.lam_a * pa + game.lam_b * pb
    stepper = WorkloadStepper(game.service(belief), game.tau)
    state = stepper.initial()
    evs, ws = [], []
    for t in range(game.n_slots):
        evs.append(state.ev)
        ws.append(stepper.wait(state, loads[t]))
        if t + 1 < game.n_slots:
            state = stepper.advance(state, loads[t])
    return WorkloadProfile(np.array(evs), np.array(ws))
