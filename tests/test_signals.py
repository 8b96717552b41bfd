import math

import numpy as np
import pytest

from arrivalgames.dists import make_deterministic, make_geometric
from arrivalgames.signals import SignalParams, posterior_views, signal_marginals


def params(lam=10.0, p=0.5, q=0.9, chi=(4, 2)):
    return SignalParams(lam, p, q, make_deterministic(chi[0]), make_deterministic(chi[1]))


def split(p, q, lam):
    """The population splits (nu_a, nu_b) seen by the two signals."""
    va, vb = posterior_views(params(lam=lam, p=p, q=q))
    return va.nu, vb.nu


def hand_expanded(p, q, lam):
    """The posterior written out conditional by conditional: the oracle
    for the joint-table construction in ``posterior_views``."""
    pa, pb = signal_marginals(p, q)
    aa = (p * q * q + (1.0 - p) * (1.0 - q) * (1.0 - q)) / pa
    ba = (p * q * (1.0 - q) + (1.0 - p) * (1.0 - q) * q) / pa
    ab = (p * (1.0 - q) * q + (1.0 - p) * q * (1.0 - q)) / pb
    bb = (p * (1.0 - q) * (1.0 - q) + (1.0 - p) * q * q) / pb
    eta_a = (p * q / pa, (1.0 - p) * (1.0 - q) / pa)
    eta_b = (p * (1.0 - q) / pb, (1.0 - p) * q / pb)
    return ((lam * aa, lam * ba), eta_a), ((lam * ab, lam * bb), eta_b)


class TestMarginals:
    def test_symmetric_case(self):
        assert signal_marginals(0.5, 0.9) == (0.5, 0.5)

    def test_perfect_signal(self):
        pa, pb = signal_marginals(0.3, 1.0)
        assert pa == pytest.approx(0.3) and pb == pytest.approx(0.7)

    def test_single_mode(self):
        pa, pb = signal_marginals(1.0, 0.9)
        assert pa == pytest.approx(0.9) and pb == pytest.approx(0.1)

    def test_rejects_uninformative(self):
        with pytest.raises(ValueError):
            signal_marginals(0.5, 0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_rejects_bad_mode_probability(self, p):
        with pytest.raises(ValueError, match="mode probability p must lie in"):
            signal_marginals(p, 0.9)


class TestConditionalSplit:
    def test_reference_values(self):
        nu_a, nu_b = split(0.5, 0.9, 10.0)
        assert nu_a[0] == pytest.approx(8.2, abs=1e-12)
        assert nu_a[1] == pytest.approx(1.8, abs=1e-12)
        assert nu_b[0] == pytest.approx(1.8, abs=1e-12)
        assert nu_b[1] == pytest.approx(8.2, abs=1e-12)

    def test_perfect_signal(self):
        nu_a, _ = split(0.7, 1.0, 5.0)
        assert nu_a == (pytest.approx(5.0), pytest.approx(0.0))

    def test_degenerate_prior(self):
        nu_a, _ = split(0.0, 0.9, 1.0)
        assert nu_a[0] == pytest.approx(0.1) and nu_a[1] == pytest.approx(0.9)

    @pytest.mark.parametrize("p, never", [(1.0, "b"), (0.0, "a")])
    def test_unobserved_signal_rejected(self, p, never):
        # a perfect signal of a certain mode: one signal has probability 0
        with pytest.raises(ValueError, match=f"signal {never} is never observed"):
            posterior_views(params(p=p, q=1.0))

    def test_total_population_law(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.uniform(0.0, 1.0)
            q = rng.uniform(0.5001, 1.0)
            lam = rng.uniform(0.1, 30.0)
            ma, mb = signal_marginals(p, q)
            nu_a, nu_b = split(p, q, lam)
            assert ma * nu_a[0] + mb * nu_b[0] == pytest.approx(lam * ma, abs=1e-12)
            assert ma * nu_a[1] + mb * nu_b[1] == pytest.approx(lam * mb, abs=1e-12)

    def test_joint_table_matches_hand_expanded_conditionals(self):
        # 5 000 seeded draws plus the edges p in {0, 1} and q = 1 where the
        # other signal is still observed: nu and eta agree bit for bit, and
        # zeta is the posterior law's own mean, within 1e-15 of the
        # weighted sum of the mode means
        rng = np.random.default_rng(29)
        draws = [tuple(row) for row in rng.uniform((0.0, 0.5, 0.1), (1.0, 1.0, 30.0), (5000, 3))]
        draws += [(0.0, 0.9, 5.0), (1.0, 0.9, 5.0), (0.3, 1.0, 5.0), (0.7, 1.0, 2.5)]
        for p, q, lam in draws:
            views = posterior_views(params(lam=lam, p=p, q=q))
            for view, (nu, eta) in zip(views, hand_expanded(p, q, lam), strict=True):
                assert view.nu == nu and view.eta == eta, (p, q, lam)
                assert view.zeta == view.z.chi
                assert abs(view.zeta - (eta[0] * 4.0 + eta[1] * 2.0)) <= 1e-15


class TestPosteriorViews:
    def test_reference_means(self):
        va, vb = posterior_views(params())
        assert va.zeta == pytest.approx(3.8, abs=1e-12)
        assert vb.zeta == pytest.approx(2.2, abs=1e-12)

    def test_symmetric_prior_weights(self):
        va, _ = posterior_views(params(p=0.5, q=0.8))
        assert va.eta[0] == pytest.approx(0.8, abs=1e-12)
        assert va.eta[1] == pytest.approx(0.2, abs=1e-12)

    def test_perfect_signal_recovers_prior(self):
        va, vb = posterior_views(params(q=1.0))
        assert np.allclose(va.z.pmf.mass, make_deterministic(4).pmf.mass)
        assert va.zeta == 4.0 and vb.zeta == 2.0

    def test_mixture_mean_matches_zeta(self):
        sig = SignalParams(10.0, 0.4, 0.8, make_geometric(5.0), make_geometric(1.5))
        for view in posterior_views(sig):
            assert view.z.pmf.mean() == pytest.approx(view.zeta, abs=1e-8)
            assert view.eta[0] + view.eta[1] == pytest.approx(1.0, abs=1e-12)
            assert view.zeta == pytest.approx(
                view.eta[0] * 5.0 + view.eta[1] * 1.5, abs=1e-12
            )

    def test_view_ordering(self):
        va, vb = posterior_views(params())
        assert vb.zeta <= va.zeta

    def test_zeta_monotone_in_quality(self):
        grid_p = np.linspace(0.05, 0.95, 10)
        grid_q = np.linspace(0.51, 1.0, 10)
        for p in grid_p:
            last = -np.inf
            for q in grid_q:
                va, _ = posterior_views(params(p=p, q=q))
                assert va.zeta >= last - 1e-12
                last = va.zeta

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            SignalParams(10, 0.5, 0.9, make_deterministic(2), make_deterministic(4))
