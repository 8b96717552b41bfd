import math

import numpy as np
import pytest

from arrivalgames.dists import (
    DEFAULT_TAIL_TOL,
    Pmf,
    ServiceDist,
    compound_poisson,
    convolve,
    make_deterministic,
    make_geometric,
    make_geometric_mixture,
    mix_services,
)


def moments(f: Pmf) -> tuple[float, float, float]:
    """Mean, variance and coefficient of variation on the truncated support."""
    k = np.arange(f.mass.size)
    m = f.mean()
    v = max(0.0, float((k * k) @ f.mass) - m * m)
    if m > 0.0:
        cv = math.sqrt(v) / m
    else:
        cv = 0.0 if v == 0.0 else math.inf
    return m, v, cv


def brute_force_compound(lam: float, jump: np.ndarray, k_max: int, n_max: int = 60) -> np.ndarray:
    """Poisson mixture of convolution powers, the slow way."""
    out = np.zeros(k_max + 1)
    weight = math.exp(-lam)
    power = np.zeros(k_max + 1)
    power[0] = 1.0
    out += weight * power
    for n in range(1, n_max + 1):
        weight *= lam / n
        power = np.convolve(power, jump)[: k_max + 1]
        out += weight * power
    return out


class TestServiceConstructors:
    def test_deterministic_basic(self):
        d = make_deterministic(4)
        assert d.pmf.mass[4] == 1.0 and d.cv == 0.0 and d.chi == 4.0

    def test_deterministic_unit(self):
        assert make_deterministic(1).pmf.mass[1] == 1.0

    def test_deterministic_moments(self):
        m, v, cv = moments(make_deterministic(2).pmf)
        assert m == 2.0 and v == 0.0 and cv == 0.0

    @pytest.mark.parametrize("bad", [0, -1, 2.5, math.inf, math.nan])
    def test_deterministic_rejects(self, bad):
        with pytest.raises(ValueError, match="integer >= 1"):
            make_deterministic(bad)

    def test_geometric_cv(self):
        g = make_geometric(4)
        assert g.cv == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        assert round(g.cv, 2) == 0.87

    def test_geometric_unit_mean(self):
        g = make_geometric(1)
        assert g.pmf.mass[1] == 1.0 and g.cv == 0.0

    def test_geometric_closed_form(self):
        g = make_geometric(2)
        assert g.pmf.mass[1] == pytest.approx(0.5, abs=1e-15)
        assert g.pmf.mass[2] == pytest.approx(0.25, abs=1e-15)

    def test_geometric_rejects(self):
        with pytest.raises(ValueError):
            make_geometric(0.9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_geometric_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="geometric service mean must be finite and >= 1"):
            make_geometric(bad)

    def test_geometric_cv_identity(self):
        for chi in (1.5, 2.0, 4.0, 7.3):
            g = make_geometric(chi)
            assert g.cv**2 + 1.0 / chi == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("chi,cv", [(4.0, 1.74), (2.0, 1.42)])
    def test_mixture_hits_targets(self, chi, cv):
        d = make_geometric_mixture(chi, cv)
        m, _, c = moments(d.pmf)
        assert m == pytest.approx(chi, abs=1e-6)
        assert c == pytest.approx(cv, abs=1e-6)

    def test_mixture_boundary_degenerates(self):
        d = make_geometric_mixture(4.0, 0.866)
        g = make_geometric(4.0)
        assert np.allclose(d.pmf.mass, g.pmf.mass, atol=1e-12)

    def test_mixture_infeasible(self):
        with pytest.raises(ValueError):
            make_geometric_mixture(4.0, 0.5)
        with pytest.raises(ValueError):
            make_geometric_mixture(1.0, 0.8)

    @pytest.mark.parametrize(
        "chi, cv, match",
        [
            (0.9, 2.0, "mixture service mean must be finite and >= 1"),
            (math.nan, 2.0, "mixture service mean must be finite and >= 1"),
            (math.inf, 2.0, "mixture service mean must be finite and >= 1"),
            (4.0, 0.0, "target CV must be positive and finite"),
            (4.0, math.nan, "target CV must be positive and finite"),
            (4.0, math.inf, "target CV must be positive and finite"),
            (4.0, 0.5, "below geometric CV"),
            # one ulp above a unit mean, the moment equations' denominator
            # rounds to zero
            (1.0 + 2.0**-52, math.sqrt(1.0 - 1.0 / (1.0 + 2.0**-52)) + 1.01e-9, "infeasible"),
            # at a unit mean the weight of the unit point mass is one
            (1.0, 0.8, "infeasible"),
        ],
    )
    def test_mixture_rejects(self, chi, cv, match):
        with pytest.raises(ValueError, match=match):
            make_geometric_mixture(chi, cv)

    @pytest.mark.parametrize("weight", [-0.1, 1.5, math.nan])
    def test_mix_services_rejects_weight(self, weight):
        with pytest.raises(ValueError, match="mixture weight must lie in"):
            mix_services(make_deterministic(4), make_deterministic(2), weight)

    def test_mix_services_mean(self):
        z = mix_services(make_deterministic(4), make_deterministic(2), 0.9)
        assert z.chi == pytest.approx(3.8, abs=1e-15)
        assert z.pmf.mean() == pytest.approx(3.8, abs=1e-12)


class TestServiceValidation:
    # A defective law used to pass the mean check, which scales with the
    # missing mass, and failed only inside a solve.
    def test_rejects_pmf_missing_mass(self):
        with pytest.raises(ValueError, match="miss mass"):
            ServiceDist("x", 3.0, 0.0, Pmf(np.array([0.0, 0.5])))

    def test_rejects_all_zero_pmf(self):
        with pytest.raises(ValueError, match="miss mass"):
            ServiceDist("x", 3.0, 0.0, Pmf(np.zeros(3)))

    @pytest.mark.parametrize("chi", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_mean(self, chi):
        with pytest.raises(ValueError, match="service mean must be positive and finite"):
            ServiceDist("x", chi, 0.0, Pmf.point_mass(2))

    @pytest.mark.parametrize("cv", [-0.5, math.nan, math.inf])
    def test_rejects_bad_cv(self, cv):
        # a NaN CV gave a NaN second moment, which mix_services carried on
        with pytest.raises(ValueError, match="service CV must be nonnegative and finite"):
            ServiceDist("x", 2.0, cv, Pmf.point_mass(2))

    def test_rejects_zero_service_time(self):
        with pytest.raises(ValueError, match="positive integers"):
            ServiceDist("x", 1.0, 0.0, Pmf(np.array([0.5, 0.0, 0.5])))

    def test_rejects_mean_off_the_pmf(self):
        with pytest.raises(ValueError, match="mean inconsistent"):
            ServiceDist("x", 3.0, 0.0, Pmf.point_mass(2))


class TestCompoundPoisson:
    def test_zero_rate(self):
        h = compound_poisson(0.0, make_geometric(3))
        assert h.mass[0] == 1.0 and len(h) == 1

    def test_reduces_to_poisson(self):
        h = compound_poisson(1.0, make_deterministic(1))
        expect = [math.exp(-1.0) / math.factorial(k) for k in range(10)]
        assert np.allclose(h.mass[:10], expect, atol=1e-14)

    def test_matches_brute_force(self):
        x = make_geometric(2)
        h = compound_poisson(0.7, x)
        oracle = brute_force_compound(0.7, x.pmf.mass, len(h) - 1)
        assert np.max(np.abs(h.mass - oracle)) <= 1e-10

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            compound_poisson(-0.1, make_geometric(2))

    def test_split_path_consistent(self):
        x = make_deterministic(2)
        h_big = compound_poisson(400.0, x)
        direct = brute_force_compound(400.0, x.pmf.mass, len(h_big) - 1, n_max=700)
        assert np.max(np.abs(h_big.mass - direct)) <= 1e-9

    def test_mixing_linearity(self):
        x = make_geometric_mixture(3.0, 1.2)
        whole = compound_poisson(2.0, x)
        half = compound_poisson(1.0, x)
        both = convolve(half, half)
        n = min(len(whole), len(both))
        assert np.max(np.abs(whole.mass[:n] - both.mass[:n])) <= 1e-10

    def test_tail_invariant(self):
        for pmf in (
            make_geometric(4).pmf,
            make_geometric_mixture(4, 1.74).pmf,
            compound_poisson(3.0, make_geometric(2)),
            compound_poisson(80.0, make_deterministic(4)),
        ):
            assert 1.0 - pmf.total <= pmf.tail_bound + 1e-15
            assert pmf.tail_bound <= DEFAULT_TAIL_TOL


class TestConvolve:
    def test_identity(self):
        g = compound_poisson(1.3, make_geometric(2))
        out = convolve(Pmf.point_mass(0), g)
        assert np.allclose(out.mass, g.mass, atol=0)

    def test_shift(self):
        out = convolve(Pmf.point_mass(2), Pmf.point_mass(3))
        assert out.mass[5] == 1.0 and len(out) == 6

    def test_negative_binomial(self):
        g = make_geometric(2).pmf
        out = convolve(g, g)
        k = np.arange(2, len(out))
        oracle = (k - 1) * 0.5**k
        assert np.max(np.abs(out.mass[2:] - oracle)) <= 1e-12

    def test_mean_additivity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            f = compound_poisson(rng.uniform(0, 4), make_geometric(rng.uniform(1, 5)))
            g = compound_poisson(rng.uniform(0, 4), make_deterministic(rng.integers(1, 6)))
            out = convolve(f, g)
            assert out.mean() == pytest.approx(f.mean() + g.mean(), abs=1e-8)


class TestMoments:
    def test_point_mass(self):
        assert moments(Pmf.point_mass(4)) == (4.0, 0.0, 0.0)

    def test_geometric(self):
        m, _, cv = moments(make_geometric(2).pmf)
        assert m == pytest.approx(2.0, abs=1e-12)
        assert cv == pytest.approx(math.sqrt(0.5), abs=1e-9)
        assert round(cv, 2) == 0.71

    def test_bernoulli(self):
        m, v, cv = moments(Pmf(np.array([0.5, 0.5])))
        assert (m, v, cv) == (0.5, 0.25, 1.0)


class TestPmfValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, -0.1]))

    def test_rejects_supercritical(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.8, 0.8]))

    def test_rejects_understated_tail_bound(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5]), tail_bound=0.1)

    @pytest.mark.parametrize("bound", [-0.1, math.nan, math.inf])
    def test_rejects_bad_tail_bound(self, bound):
        with pytest.raises(ValueError, match="tail_bound must be nonnegative and finite"):
            Pmf(np.array([0.5, 0.5]), tail_bound=bound)

    @pytest.mark.parametrize("mass", [np.zeros((2, 2)), np.zeros(0)])
    def test_rejects_non_vector(self, mass):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            Pmf(mass)

    @pytest.mark.parametrize("k", [-1, 2.5, math.nan, math.inf])
    def test_point_mass_rejects(self, k):
        with pytest.raises(ValueError, match="point mass location must be a nonnegative integer"):
            Pmf.point_mass(k)

    def test_immutable(self):
        p = Pmf.point_mass(2)
        with pytest.raises(ValueError):
            p.mass[0] = 1.0
