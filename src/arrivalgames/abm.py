"""Learning agent-based simulation of the arrival game.

A finite pool of agents joins the queue on random days, each receiving a
noisy signal about that day's server mode. Agents keep running-average
waits and visit counts per (signal, slot) pair, their only history, and
mix uniform exploration with picking the historically best slot,
exploring less as they accumulate visits. The long-run averaged choice
frequencies and waits are compared against the equilibrium solutions of
the same ``SignalParams`` environment.

Also provides the coupled-path workload dominance experiment on the
exponential model's ``FluidParams``: with job sizes built from shared
uniforms, the slow-belief system pathwise dominates the fast-belief one.
Each path's workloads are the reflected net input in closed form,
checked at all epochs at once.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .dists import ServiceDist, _check_counts, _count
from .fluid import FluidEquilibrium, FluidParams
from .signals import SignalParams, _side
from .workload import ArrivalStrategy


def _check_sigmoid(c1: float, c2: float) -> None:
    """Both sigmoid parameters must be positive and finite, else
    ``ValueError`` (NaN included)."""
    if not (0.0 < c1 < math.inf and 0.0 < c2 < math.inf):
        raise ValueError(f"sigmoid parameters must be positive and finite, got {c1!r}, {c2!r}")


def theta(x: float, c1: float, c2: float) -> float:
    """Exploitation probability after x prior arrivals.

    exp(c1 / (1 - exp(c2 x))) for x >= 1, rising from ~0 toward 1; the
    singular point x = 0 is assigned its right limit 0 (a fresh agent
    always explores).
    """
    _check_sigmoid(c1, c2)
    if not 0 <= x < math.inf:
        raise ValueError(f"visit count must be nonnegative and finite, got {x!r}")
    if x == 0:
        return 0.0
    t = c2 * x
    if t > 700.0:
        return math.nextafter(1.0, 0.0)
    return min(math.exp(c1 / -math.expm1(t)), math.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class AbmConfig:
    """Simulation parameters in the signal environment ``signal``.

    ``pool`` agents join each day independently with probability
    signal.lam / pool (at most one); ``days`` is the simulated horizon.
    ``pool``, ``days``, ``tau`` and ``n_slots`` must be positive integers,
    ``c1``, ``c2`` positive and finite and ``seed`` a nonnegative integer,
    else ``ValueError``.
    """

    signal: SignalParams
    tau: int
    n_slots: int
    pool: int
    days: int
    c1: float = 1.0
    c2: float = 0.005
    seed: int = 0

    def __post_init__(self):
        _check_counts(
            self, pool="agent pool", days="day count", tau="slot length", n_slots="slot count"
        )
        if not self.signal.lam <= self.pool:
            raise ValueError("mean daily arrivals cannot exceed the pool size")
        _check_sigmoid(self.c1, self.c2)
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))

    @property
    def join_prob(self) -> float:
        return self.signal.lam / self.pool


def choose_slot(
    wbar: np.ndarray, visits: np.ndarray, rng: np.random.Generator, c1: float, c2: float
) -> tuple[int, bool]:
    """Pick a slot for one agent under one belief, from its average waits
    ``wbar`` and visit counts ``visits`` per slot: uniform exploration, or
    the slot with the lowest average wait so far (ties broken uniformly).
    The agent's arrivals under the belief are the sum of ``visits``.

    Returns (slot, explored).
    """
    if rng.random() >= theta(int(visits.sum()), c1, c2):
        return int(rng.integers(wbar.size)), True
    best = np.flatnonzero(wbar == wbar.min())
    return int(best[rng.integers(best.size)]), False


def simulate_day(
    slots: list[int], service: ServiceDist, tau: int, rng: np.random.Generator
) -> np.ndarray:
    """FCFS waits for one day's arrivals under the given service law.

    ``slots`` holds each arrival's slot. Within a slot the cohort is
    admitted in random order; each wait is the unfinished work ahead at
    admission. The workload drains tau units per slot. A slot that is not
    a nonnegative integer, or a ``tau`` that is not a positive integer
    (integral floats pass), raises ``ValueError``.
    """
    tau = _count(tau, "slot length")
    waits = np.zeros(len(slots))
    by_slot: dict[int, list[int]] = {}
    for idx, slot in enumerate(slots):
        by_slot.setdefault(_count(slot, "slot", 0), []).append(idx)
    support = np.arange(len(service.pmf))
    probs = service.pmf.mass / service.pmf.total
    backlog = 0.0
    for slot in range(0, max(by_slot, default=-1) + 1):
        cohort = by_slot.get(slot, ())
        if cohort:
            order = rng.permutation(len(cohort))
            jobs = rng.choice(support, size=len(cohort), p=probs)
            ahead = backlog
            for pos in order:
                waits[cohort[pos]] = ahead
                ahead += jobs[pos]
            backlog = ahead
        backlog = max(0.0, backlog - tau)
    return waits


@dataclass
class AbmResult:
    """Long-run averages: per-belief choice frequencies and waits.

    ``pbar`` rows are averaged per-agent arrival distributions (one row
    per belief); ``wbar_pop`` the matching averaged waits;
    ``slot_mean_wait`` the frequency-weighted average of agents' own mean
    waits per (belief, slot), so that wbar_pop == sum_t pbar * slot_mean_wait
    exactly; ``explored`` / ``decisions`` per-day exploration diagnostics.
    """

    pbar: np.ndarray
    wbar_pop: np.ndarray
    slot_mean_wait: np.ndarray
    explored: np.ndarray
    decisions: np.ndarray
    days: int
    contributing: np.ndarray

    def cdf(self, belief: str) -> np.ndarray:
        return np.cumsum(self.pbar[_side(belief)])


def run_abm(cfg: AbmConfig) -> AbmResult:
    """Simulate the learning dynamics for cfg.days days. Each agent learns
    a running-average wait and a visit count per (belief, slot); its choice
    frequencies under a belief are its normalised visit counts."""
    rng = np.random.default_rng(cfg.seed)
    wbar = np.zeros((cfg.pool, 2, cfg.n_slots))
    visits = np.zeros((cfg.pool, 2, cfg.n_slots), dtype=np.int64)
    explored = np.zeros(cfg.days, dtype=np.int64)
    decisions = np.zeros(cfg.days, dtype=np.int64)
    services = (cfg.signal.x_a, cfg.signal.x_b)
    for day in range(cfg.days):
        mode = 0 if rng.random() < cfg.signal.p else 1
        joiners = np.flatnonzero(rng.random(cfg.pool) < cfg.join_prob)
        if joiners.size == 0:
            continue
        correct = rng.random(joiners.size) < cfg.signal.q
        agents, beliefs = joiners.tolist(), np.where(correct, mode, 1 - mode).tolist()
        slots = []
        for k, b in zip(agents, beliefs):
            slot, did_explore = choose_slot(wbar[k, b], visits[k, b], rng, cfg.c1, cfg.c2)
            slots.append(slot)
            explored[day] += did_explore
        decisions[day] = len(slots)
        waits = simulate_day(slots, services[mode], cfg.tau, rng)
        for k, b, slot, wait in zip(agents, beliefs, slots, waits.tolist()):
            visits[k, b, slot] += 1
            wbar[k, b, slot] += (wait - wbar[k, b, slot]) / visits[k, b, slot]
    totals = visits.sum(axis=2, keepdims=True)
    freq = np.divide(visits, totals, out=np.zeros(visits.shape), where=totals > 0)
    contributing = np.count_nonzero(totals[..., 0], axis=0)
    per_belief = np.maximum(contributing, 1)[:, None]
    pbar = freq.sum(axis=0) / per_belief
    freq_wait = (freq * wbar).sum(axis=0) / per_belief
    slot_mean = np.divide(freq_wait, pbar, out=np.zeros_like(freq_wait), where=pbar > 0)
    wbar_pop = freq_wait.sum(axis=1)
    return AbmResult(pbar, wbar_pop, slot_mean, explored, decisions, cfg.days, contributing)


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of the coupled-path experiment. ``max_workload_gap`` is the
    largest excess of the fast-belief system over the slow-belief one, in
    workload or queue length, over every epoch of every path, so it does
    not depend on the order in which the epochs are checked."""

    dominance_holds: bool
    paths_checked: int
    violating_paths: int
    max_workload_gap: float


def _sample_arrival_times(
    strategy, horizon: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Arrival instants drawn from a slot vector, a fluid profile given as
    a (FluidEquilibrium, side) pair, or uniformly when no strategy is
    given."""
    if size == 0:
        return np.zeros(0)
    if strategy is None:
        return rng.uniform(0.0, horizon, size)
    if isinstance(strategy, tuple) and isinstance(strategy[0], FluidEquilibrium):
        eq, side = strategy
        u = rng.random(size)
        grid = np.linspace(0.0, eq.horizon, 4096)
        cdf = np.concatenate(([0.0], eq.cdf(side, grid)))
        return np.interp(u, cdf, np.concatenate(([0.0], grid)))
    probs = ArrivalStrategy(strategy).normalized().probs
    slots = rng.choice(probs.size, size=size, p=probs)
    return slots * (horizon / probs.size)


def coupled_dominance(
    params: FluidParams,
    f_a,
    f_b,
    n_paths: int,
    rng: np.random.Generator,
    coupled: bool = True,
) -> DominanceReport:
    """Pathwise workload/queue dominance experiment.

    Both belief systems see the same arrival stream, at the rates and on
    the horizon of ``params``; job sizes are exponential with rate mu_i
    of ``params``, built from shared uniforms when
    ``coupled`` (so the slow system's jobs are a fixed multiple of the
    fast system's). Checks V_a >= V_b and Q_a >= Q_b just after every
    arrival and departure epoch on every path. An ``n_paths`` that is not
    a positive integer (integral floats pass) raises ``ValueError``.
    """
    n_paths = _count(n_paths, "path count")
    lam_a, lam_b, mu_a, mu_b, horizon = astuple(params)
    violating = 0
    max_gap = 0.0
    for _ in range(n_paths):
        total = rng.poisson(lam_a + lam_b)
        pick_a = rng.random(total) < lam_a / (lam_a + lam_b)
        times = np.sort(
            np.concatenate(
                [
                    _sample_arrival_times(f_a, horizon, int(pick_a.sum()), rng),
                    _sample_arrival_times(f_b, horizon, int(total - pick_a.sum()), rng),
                ]
            )
        )
        if times.size == 0:
            continue
        u = rng.random(times.size)
        jobs_b = -np.log(u) / mu_b
        if coupled:
            jobs_a = (mu_b / mu_a) * jobs_b
        else:
            jobs_a = -np.log(rng.random(times.size)) / mu_a
        ok, gap = _path_dominates(times, jobs_a, jobs_b)
        max_gap = max(max_gap, gap)
        if not ok:
            violating += 1
    return DominanceReport(violating == 0, n_paths, violating, max_gap)


def _workload_path(times: np.ndarray, jobs: np.ndarray) -> np.ndarray:
    """Workloads just after each arrival of one sample path: the net input
    (work brought minus time elapsed) reflected at zero, the closed form
    of the Lindley recursion. Departure instants are ``times`` plus these
    workloads."""
    net = np.cumsum(jobs) - times
    return net - np.minimum(0.0, np.minimum.accumulate(net - jobs))


def _queue_lengths(arrived: np.ndarray, departures: np.ndarray, epochs: np.ndarray) -> np.ndarray:
    """Customers arrived and not yet departed at each epoch, per row of
    ``departures``, given the arrivals so far at each epoch: as each
    customer departs at or after arriving, the arrivals less the
    departures so far, counted by binary search."""
    # FCFS departures are nondecreasing, but as arrival time plus workload
    # they can fall by a rounding error, and the search needs sorted rows.
    departed = [np.searchsorted(d, epochs, side="right") for d in np.sort(departures, axis=1)]
    return arrived - np.stack(departed)


def _path_dominates(times, jobs_a, jobs_b) -> tuple[bool, float]:
    """Whether V_a >= V_b and Q_a >= Q_b at every arrival and departure
    epoch, and the largest excess of b over a there."""
    v_after = np.stack([_workload_path(times, jobs_a), _workload_path(times, jobs_b)])
    departures = times + v_after
    epochs = np.concatenate([times, departures.ravel()])
    # Every epoch is at or after the first arrival, so k >= 0.
    k = np.searchsorted(times, epochs, side="right") - 1
    v = np.maximum(0.0, v_after[:, k] - (epochs - times[k]))
    queue = _queue_lengths(k + 1, departures, epochs)
    worst = max(0.0, float((v[1] - v[0]).max()), float((queue[1] - queue[0]).max()))
    ok = not (np.any(v[1] > v[0] + 1e-9) or np.any(queue[1] > queue[0]))
    return ok, worst
