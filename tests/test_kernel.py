"""The workload kernel: one slot's compound-Poisson work added to a
workload law on plain arrays, by FFT for long jump laws and by Poisson
thinning for short ones."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrivalgames.dists import (
    SupportBudgetError,
    compound_poisson,
    make_deterministic,
    make_geometric,
    make_geometric_mixture,
    mix_services,
)
from arrivalgames.workload import SlotState, WorkloadStepper, _collapse_shift
from test_dists import brute_force_compound


def _service(family: str, chi: float, second: int):
    if family == "deterministic":
        return make_deterministic(second)
    if family == "geometric":
        return make_geometric(chi)
    if family == "mixture":
        return make_geometric_mixture(chi, 2.0 * math.sqrt(1.0 - 1.0 / chi))
    return mix_services(make_deterministic(second), make_deterministic(second + 1), 0.3)


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
        ev = float(np.arange(k) @ v)
        out = WorkloadStepper(service, tau).advance(SlotState(0, v, ev, ev), lam)

        jump = service.pmf.mass
        k_max = int(lam * service.chi + 14.0 * math.sqrt(lam * service.second_moment()))
        k_max += jump.size + 20
        n_max = int(lam + 12.0 * math.sqrt(lam)) + 30
        h = brute_force_compound(lam, jump, k_max, n_max)
        want = _collapse_shift(np.convolve(v, h), tau)
        n = max(want.size, out.v.size)
        diff = np.pad(out.v, (0, n - out.v.size)) - np.pad(want, (0, n - want.size))
        assert np.max(np.abs(diff)) <= 1e-10

        assert 1.0 - out.v.sum() <= out.tail + 1e-15


class TestPaths:
    def test_path_follows_atom_count(self):
        assert make_deterministic(4).pmf._as_jumps.thin
        two = mix_services(make_deterministic(4), make_deterministic(2), 0.5)
        assert two.pmf._as_jumps.thin
        assert not make_geometric(4).pmf._as_jumps.thin
        assert not make_geometric_mixture(4, 1.74).pmf._as_jumps.thin


class TestBudget:
    def test_rate_past_budget_fails_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(SupportBudgetError):
            compound_poisson(1e7, make_deterministic(1))
        assert time.perf_counter() - t0 < 1.0

    def test_service_past_budget_fails_before_allocating(self):
        for chi in (1e6, math.inf):
            with pytest.raises(SupportBudgetError):
                make_geometric(chi)
        with pytest.raises(SupportBudgetError):
            make_geometric_mixture(4.0, 1e4)

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
