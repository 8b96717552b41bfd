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

import numpy as np

from .dists import (
    DEFAULT_TAIL_TOL,
    NumericFailure,
    Pmf,
    ServiceDist,
    _add_compound,
)
# Unused here: bench/tracer.py wraps both names in this namespace, and
# tests/test_bench_hooks.py checks that they stay importable from it.
from .dists import compound_poisson, convolve  # noqa: F401

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
        if int(self.tau) != self.tau or self.tau < 1:
            raise ValueError("slot length must be a positive integer")
        if int(self.n_slots) != self.n_slots or self.n_slots < 1:
            raise ValueError("need at least one slot")

    @property
    def horizon(self) -> int:
        return self.tau * self.n_slots

    def service(self, belief: str) -> ServiceDist:
        return self.x_a if belief == "a" else self.x_b

    def own_lam(self, belief: str) -> float:
        return self.lam_a if belief == "a" else self.lam_b

    def other_lam(self, belief: str) -> float:
        return self.lam_b if belief == "a" else self.lam_a


@dataclass(frozen=True)
class ArrivalStrategy:
    """Probability vector over slots."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("strategy must be a non-empty 1-D vector")
        if np.any(arr < -1e-12) or not np.all(np.isfinite(arr)):
            raise ValueError("strategy entries must be finite and nonnegative")
        arr = np.clip(arr, 0.0, None)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @classmethod
    def point_mass(cls, n_slots: int, slot: int = 0) -> "ArrivalStrategy":
        arr = np.zeros(n_slots)
        arr[slot] = 1.0
        return cls(arr)

    @classmethod
    def uniform(cls, n_slots: int) -> "ArrivalStrategy":
        return cls(np.full(n_slots, 1.0 / n_slots))

    def __len__(self) -> int:
        return self.probs.size

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


def _strategy_probs(p) -> np.ndarray:
    """The slot vector of an ``ArrivalStrategy`` or of an array-like."""
    return p.probs if isinstance(p, ArrivalStrategy) else np.asarray(p, dtype=float)


def _as_probs(p, n_slots: int, mass_tol: float) -> np.ndarray:
    arr = _strategy_probs(p)
    if arr.shape != (n_slots,):
        raise InvalidStrategyError(f"strategy must have length {n_slots}")
    if np.any(arr < -1e-12) or not np.all(np.isfinite(arr)):
        raise InvalidStrategyError("strategy entries must be finite and nonnegative")
    total = float(arr.sum())
    if abs(total - 1.0) > mass_tol:
        raise InvalidStrategyError(f"strategy mass {total!r} is off the simplex")
    return np.clip(arr, 0.0, None)


def _collapse_shift(c: np.ndarray, tau: int) -> np.ndarray:
    """Drain tau units from the workload-plus-arrivals law ``c``: its mass
    at or below tau collapses onto zero and the remainder shifts left by
    tau."""
    if c.size <= tau + 1:
        return np.array([float(c.sum())])
    return np.concatenate(([float(c[: tau + 1].sum())], c[tau + 1 :]))


@dataclass(frozen=True)
class SlotState:
    """Workload law just before a slot, as a plain array, with the carried
    bound on its missing mass and its direct and telescoped means. A
    ``Pmf`` given as ``v`` is unwrapped into its array and bound."""

    slot: int
    v: np.ndarray
    ev: float
    ev_tel: float
    tail: float = 0.0

    def __post_init__(self):
        if isinstance(self.v, Pmf):
            object.__setattr__(self, "tail", self.v.tail_bound)
            object.__setattr__(self, "v", self.v.mass)


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

    def advance(self, state: SlotState, load: float) -> SlotState:
        c, tail = _add_compound(state.v, state.tail, load, self.service)
        tau = self.tau
        head = c[: min(tau, c.size)]
        idle_credit = float((tau - np.arange(head.size)) @ head)
        ev_tel = state.ev_tel + load * self.service.chi - tau + idle_credit
        v_next = _collapse_shift(c, tau)
        v_next.flags.writeable = False
        ev = float(np.arange(v_next.size) @ v_next)
        t_next = state.slot + 1
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
    """Per-slot workload laws, their means, and expected waits under one
    belief, for a fixed pair of arrival strategies.

    ``ev`` holds the direct pmf means, ``ev_telescoped`` the running-sum
    form; the two agree up to truncation dust.
    """

    belief: str
    v: tuple[Pmf, ...]
    ev: np.ndarray
    ev_telescoped: np.ndarray
    w: np.ndarray


def workload_profile(
    game: SlotGame,
    p_a,
    p_b,
    belief: str,
    mass_tol: float = 1e-6,
) -> WorkloadProfile:
    """Workload law, mean workload and expected wait for every slot."""
    if belief not in ("a", "b"):
        raise ValueError("belief must be 'a' or 'b'")
    pa = _as_probs(p_a, game.n_slots, mass_tol)
    pb = _as_probs(p_b, game.n_slots, mass_tol)
    loads = game.lam_a * pa + game.lam_b * pb
    stepper = WorkloadStepper(game.service(belief), game.tau)
    state = stepper.initial()
    vs, evs, tels, ws = [], [], [], []
    for t in range(game.n_slots):
        vs.append(Pmf(state.v, state.tail))
        evs.append(state.ev)
        tels.append(state.ev_tel)
        ws.append(stepper.wait(state, loads[t]))
        if t + 1 < game.n_slots:
            state = stepper.advance(state, loads[t])
    return WorkloadProfile(belief, tuple(vs), np.array(evs), np.array(tels), np.array(ws))
