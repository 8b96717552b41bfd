"""The workload kernel: one slot's compound-Poisson work added to a
workload law on plain arrays, by FFT for long jump laws and by Poisson
thinning for short ones."""

import math
import pickle
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrivalgames import dists
from arrivalgames.dists import (
    DEFAULT_TAIL_TOL,
    NumericFailure,
    SupportBudgetError,
    compound_poisson,
    make_deterministic,
    make_geometric,
    make_geometric_mixture,
    mix_services,
)
from arrivalgames.solver import _DRIFT_ABS
from arrivalgames.workload import SlotState, WorkloadStepper
from test_dists import brute_force_compound
from test_workload import collapse_shift


def _service(family: str, chi: float, second: int):
    if family == "deterministic":
        return make_deterministic(second)
    if family == "geometric":
        return make_geometric(chi)
    if family == "mixture":
        return make_geometric_mixture(chi, 2.0 * math.sqrt(1.0 - 1.0 / chi))
    return mix_services(make_deterministic(second), make_deterministic(second + 1), 0.3)


def _compound_oracle(lam: float, service) -> np.ndarray:
    """The compound law at rate lam, uncut, the slow way."""
    k_max = int(lam * service.chi + 14.0 * math.sqrt(lam * service.second_moment()))
    k_max += service.pmf.mass.size + 20
    n_max = int(lam + 12.0 * math.sqrt(lam)) + 30
    return brute_force_compound(lam, service.pmf.mass, k_max, n_max)


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    n = max(a.size, b.size)
    return float(np.max(np.abs(np.pad(a, (0, n - a.size)) - np.pad(b, (0, n - b.size)))))


def _decaying_law(data, k: int) -> np.ndarray:
    """A workload law of k entries with a geometric-like tail."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    v = rng.uniform(0.5, 1.5, k) * data.draw(st.floats(0.9, 0.99)) ** np.arange(k)
    return v / v.sum()


def _state(v: np.ndarray) -> SlotState:
    ev = float(np.arange(v.size) @ v)
    return SlotState(0, v, ev, ev)


RATES = {
    "small": st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
    "large": st.floats(350.0, 400.0),
}


class TestAdvanceProperties:
    @pytest.mark.parametrize("rates", sorted(RATES))
    @pytest.mark.parametrize("family", ["deterministic", "two_atoms", "geometric", "mixture"])
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_brute_force_and_bound_covers_deficit(self, family, rates, data):
        service = _service(family, data.draw(st.floats(1.5, 5.0)), data.draw(st.integers(1, 5)))
        lam = data.draw(RATES[rates])
        tau = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 4000))
        v = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(k)
        v /= v.sum()
        out = WorkloadStepper(service, tau).advance(_state(v), lam)

        want = collapse_shift(np.convolve(v, _compound_oracle(lam, service)), tau)
        assert _max_abs_diff(out.v, want) <= 1e-10

        assert 1.0 - out.v.sum() <= out.tail + 1e-15


FAMILIES = ["deterministic", "two_atoms", "geometric", "mixture"]


class TestTailCut:
    """Windows longer than dists._CUT_MIN are cut where the rest of their
    mass and first moment are within DEFAULT_TAIL_TOL."""

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_chained_advances_match_uncut_oracle(self, family, data):
        service = _service(family, data.draw(st.floats(1.5, 5.0)), data.draw(st.integers(1, 5)))
        lam = data.draw(st.floats(0.05, 8.0))
        tau = data.draw(st.integers(1, 4))
        h = _compound_oracle(lam, service)
        stepper = WorkloadStepper(service, tau)
        state = _state(_decaying_law(data, data.draw(st.integers(dists._CUT_MIN + 1, 1500))))
        for _ in range(3):
            out = stepper.advance(state, lam)
            want = collapse_shift(np.convolve(state.v, h), tau)
            assert _max_abs_diff(out.v, want) <= 1e-10
            assert 1.0 - out.v.sum() <= out.tail + 1e-15

            # The same step without the cut: the cut only shortens it, at
            # the first entry past which at most the tolerance in first
            # moment is left, and adds the mass it drops to the carried bound.
            # On the FFT path it first drops a tail of round-off, whose first
            # moment must stay within the solver's drift margin for one slot.
            with mock.patch.object(dists, "_CUT_MIN", math.inf):
                uncut = stepper.advance(state, lam)
            kept = out.v.size
            dropped = uncut.v[kept:]
            moment = np.arange(kept - 1, uncut.v.size) + tau
            limit = DEFAULT_TAIL_TOL if service._as_jumps.thin else _DRIFT_ABS * (1.0 + tau)
            assert np.array_equal(out.v, uncut.v[:kept])
            assert moment[1:] @ dropped <= limit
            assert DEFAULT_TAIL_TOL < moment @ uncut.v[kept - 1 :]
            assert out.tail >= uncut.tail + dropped.sum() * (1.0 - 1e-9)
            state = out

    @pytest.mark.parametrize("family", ["deterministic", "two_atoms"])
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_negligible_padding_does_not_survive(self, family, data):
        service = _service(family, data.draw(st.floats(1.5, 5.0)), data.draw(st.integers(1, 5)))
        lam = data.draw(st.floats(0.05, 8.0))
        stepper = WorkloadStepper(service, data.draw(st.integers(1, 4)))
        v = _decaying_law(data, data.draw(st.integers(dists._CUT_MIN + 1, 1000)))
        # 3000 entries of 1e-30 carry a first moment of about 1e-23, far
        # below what can move the cut.
        padded = np.concatenate([v, np.full(3000, 1e-30)])
        assert stepper.advance(_state(padded), lam).v.size <= stepper.advance(_state(v), lam).v.size

    def test_negligible_padding_does_not_survive_fft(self):
        service = make_geometric(3.0)
        stepper = WorkloadStepper(service, 2)
        v = 0.9 ** np.arange(400.0)
        v /= v.sum()
        padded = np.concatenate([v, np.full(3000, 1e-30)])
        assert stepper.advance(_state(padded), 5.0).v.size <= stepper.advance(_state(v), 5.0).v.size


def cutoff_oracle(law, lam: float, k: int, tol: float) -> float:
    """`_JumpLaw.cutoff` as the minimum over the whole grid of s, with
    `math.log` at each grid point as the kernel takes it."""
    bounds = [
        (lam * grow + math.log(k + lam * slope) - math.log(tol)) / s
        for s, grow, slope in zip(law.s, law.mgf_m1, law.dmgf)
    ]
    return float(np.min(bounds))


def thinned_oracle(law, lam: float, n: int) -> np.ndarray:
    """`_JumpLaw.thinned` with a fresh index and lattice per atom."""
    h = None
    for j, x in law.atoms:
        mu = lam * x
        m = (n - 1) // j + 1 if mu > 0.0 else 1
        log_factorial = np.array([math.lgamma(i + 1.0) for i in range(m)])
        count = np.exp(np.arange(m) * math.log(mu or 1.0) - mu - log_factorial)
        lattice = np.zeros((m - 1) * j + 1)
        lattice[::j] = count
        h = lattice if h is None else np.convolve(h, lattice)[:n]
    return h * math.exp(-lam * law.deficit) if law.deficit else h


def add_compound_oracle(v: np.ndarray, tail: float, lam: float, service):
    """`dists._add_compound` built from the oracles above and fresh arrays,
    without its checks."""
    if lam == 0.0:
        return v, tail
    law = service._as_jumps
    k = v.size
    m = k + max(int(math.ceil(cutoff_oracle(law, lam, k, DEFAULT_TAIL_TOL))), 1) - 1
    if law.thin:
        c = np.convolve(v, thinned_oracle(law, lam, m - k + 1))[:m]
    else:
        n = dists._FFT_SIZES[np.searchsorted(dists._FFT_SIZES, m)]
        c = np.fft.irfft(np.fft.rfft(v, n) * np.exp(lam * law.spectrum(n)), n)[:m]
    if c.min() < 0.0:
        c = np.maximum(c, 0.0)
    bound = tail + law.floor(lam) + DEFAULT_TAIL_TOL
    if c.size <= dists._CUT_MIN:
        return dists._trim_trailing_zeros(c), bound
    end = c.size
    if not law.thin:
        end = np.flatnonzero(c > dists._NOISE_FLOOR * np.linalg.norm(c))[-1] + 1
    moment = np.cumsum((np.arange(end) * c[:end])[::-1])
    end = max(end - int(np.searchsorted(moment, DEFAULT_TAIL_TOL, "right")), 1)
    return c[:end], bound + float(c[end:].sum())


def advance_oracle(stepper: WorkloadStepper, state: SlotState, load: float, slots: int):
    """`WorkloadStepper.advance` on fresh arrays: the kernel oracle, then a
    collapse into a new array, with index arrays made per step."""
    c, tail = add_compound_oracle(state.v, state.tail, load, stepper.service)
    drain = stepper.tau * slots
    head = c[: min(drain, c.size)]
    idle_credit = float((drain - np.arange(head.size)) @ head)
    ev_tel = state.ev_tel + load * stepper.service.chi - drain + idle_credit
    v_next = collapse_shift(c, drain)
    ev = float(np.arange(v_next.size) @ v_next)
    return state.slot + slots, v_next, ev, ev_tel, tail


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


class TestAgainstOracle:
    """The kernel and the advance cut fixed costs, not arithmetic: they
    give the same bits as their vectorised forms above."""

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_cutoff_is_the_grid_minimum(self, family, data):
        service = _service(family, data.draw(st.floats(1.5, 5.0)), data.draw(st.integers(1, 5)))
        law = service._as_jumps
        # the walk starts wherever the last search ended
        law._best = data.draw(st.integers(0, dists._CHERNOFF_POINTS - 1))
        lam = data.draw(_log_uniform(1e-6, 2e3))
        k = int(data.draw(_log_uniform(1.0, 1e5)))
        assert law.cutoff(lam, k, DEFAULT_TAIL_TOL) == cutoff_oracle(law, lam, k, DEFAULT_TAIL_TOL)

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_chained_advances_match_bit_for_bit(self, family, data):
        service = _service(family, data.draw(st.floats(1.5, 5.0)), data.draw(st.integers(1, 5)))
        stepper = WorkloadStepper(service, data.draw(st.integers(1, 3)))
        v = _decaying_law(data, int(data.draw(_log_uniform(1.0, 5e3))))
        ev = float(np.arange(v.size) @ v)
        state = want = SlotState(0, v, ev, ev)
        for _ in range(4):
            load = data.draw(st.one_of(st.just(0.0), _log_uniform(1e-3, 400.0)))
            slots = data.draw(st.integers(1, 3))
            state = stepper.advance(state, load, slots)
            slot, v_want, ev, ev_tel, tail = advance_oracle(stepper, want, load, slots)
            assert state.v.tobytes() == v_want.tobytes()
            assert (state.slot, state.ev, state.ev_tel, state.tail) == (slot, ev, ev_tel, tail)
            want = SlotState(slot, v_want, ev, ev_tel, tail)


class TestPaths:
    def test_path_follows_atom_count(self):
        assert make_deterministic(4)._as_jumps.thin
        two = mix_services(make_deterministic(4), make_deterministic(2), 0.5)
        assert two._as_jumps.thin
        assert not make_geometric(4)._as_jumps.thin
        assert not make_geometric_mixture(4, 1.74)._as_jumps.thin

    @pytest.mark.parametrize("family", FAMILIES)
    def test_used_law_pickles(self, family):
        service = _service(family, 3.0, 2)
        want = compound_poisson(2.0, service)
        copy = pickle.loads(pickle.dumps(service))
        got = compound_poisson(2.0, copy)
        assert got.mass.tobytes() == want.mass.tobytes() and got.tail_bound == want.tail_bound


class TestBudget:
    def test_rate_past_budget_fails_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(SupportBudgetError):
            compound_poisson(1e7, make_deterministic(1))
        assert time.perf_counter() - t0 < 1.0

    def test_service_past_budget_fails_before_allocating(self):
        # an infinite mean is out of range, not past the budget: see
        # test_dists.py::TestServiceConstructors::test_geometric_rejects
        # from a mean of 1e308 on, the support's length overflows to inf
        for chi in (1e6, 1e308, 1.7e308):
            with pytest.raises(SupportBudgetError):
                make_geometric(chi)
        with pytest.raises(SupportBudgetError):
            make_geometric_mixture(4.0, 1e4)

    @pytest.mark.parametrize("k", [2**22, 1e9])
    def test_point_mass_past_budget_fails_before_allocating(self, k):
        # 2**22 used to build a 4 194 305-entry law; 1e9 would allocate 8 GB
        for build in (make_deterministic, dists.Pmf.point_mass):
            t0 = time.perf_counter()
            with pytest.raises(SupportBudgetError, match="budget"):
                build(k)
            assert time.perf_counter() - t0 < 1.0

    def test_long_mixture_advance_finishes(self):
        # a 331 627-entry jump law: one compound law on it used to run for
        # more than a minute
        x = make_geometric_mixture(4, 60)
        assert len(x.pmf) == 331_627
        t0 = time.perf_counter()
        stepper = WorkloadStepper(x, 3)
        state = stepper.advance(stepper.initial(), 10.0)
        assert time.perf_counter() - t0 < 10.0
        assert 1.0 - state.v.sum() <= state.tail


@pytest.mark.parametrize("service", [make_deterministic(2), make_geometric(3)], ids=["thin", "fft"])
@pytest.mark.parametrize(
    "v, match",
    [
        ([math.inf], "non-finite mass"),
        ([-1.0], "< 0"),
        ([2.0], "total mass"),
        ([0.5], "lost mass"),
    ],
    ids=["non_finite", "negative", "over_one", "lost_mass"],
)
def test_kernel_checks_its_output(service, v, match):
    # inputs no checked law can carry reach each invariant of the step
    with pytest.raises(NumericFailure, match=match), np.errstate(all="ignore"):
        dists._add_compound(np.array(v), 0.0, 1.0, service)
