import dataclasses
import math

import numpy as np
import pytest

from arrivalgames.fluid import (
    FluidEquilibrium,
    FluidParams,
    InvalidCaseError,
    Segment,
    classify,
    solve_case,
    thresholds,
    verify_fluid,
)


def fig2_params(mu_b, horizon=1.0):
    return FluidParams(1.0, 2.0, 1.0, mu_b, horizon)


class TestThresholds:
    def test_reference_values(self):
        xi = thresholds(FluidParams(50, 50, 0.25, 0.5, 240))
        assert xi == (100.0, 150.0, 200.0, 300.0)

    def test_direct_substitution(self):
        xi = thresholds(fig2_params(2.0))
        assert xi == (0.75, 1.25, 1.5, 2.0)

    def test_single_population_collapse(self):
        # vanishing type-b mass merges the first two thresholds; vanishing
        # type-a mass merges the last two
        xi = thresholds(FluidParams(1.0, 1e-12, 1.0, 2.0, 1.0))
        assert xi[0] == pytest.approx(xi[1], abs=1e-11)
        xi = thresholds(FluidParams(1e-12, 1.0, 1.0, 2.0, 1.0))
        assert xi[2] == pytest.approx(xi[3], abs=1e-11)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            la, lb = rng.uniform(0.1, 20, 2)
            ma = rng.uniform(0.1, 5)
            mb = ma * rng.uniform(1.01, 8)
            xi = thresholds(FluidParams(la, lb, ma, mb, 1.0))
            assert xi[0] < xi[1] < xi[2] < xi[3]


class TestClassify:
    def test_fig2_cases(self):
        assert classify(fig2_params(1.5)) == {"i"}
        assert classify(fig2_params(2.0)) == {"ii"}
        assert classify(fig2_params(4.0)) == {"iii"}
        assert classify(fig2_params(8.0)) == {"iv"}

    def test_boundaries_follow_interval_closure(self):
        p = fig2_params(2.0)
        x1, x2, x3, x4 = thresholds(p)
        assert classify(dataclasses.replace(p, horizon=x1)) == {"i"}
        assert classify(dataclasses.replace(p, horizon=x2)) == {"iii"}
        assert classify(dataclasses.replace(p, horizon=x3)) == {"iii"}
        assert "iv" in classify(dataclasses.replace(p, horizon=x4))

    def test_overlapping_degenerate_cases(self):
        tags = classify(fig2_params(8.0, horizon=2.75))
        assert tags == {"v", "vi"}

    def test_threshold_neighbours_classify_and_solve(self):
        # every threshold x and both of its float neighbours: one ulp above
        # x1, case ii's t_b can round to T, leaving b's segment no length
        rng = np.random.default_rng(1)
        for _ in range(2000):
            la, lb = rng.uniform(0.1, 10, 2)
            ma = rng.uniform(0.1, 4)
            mb = ma * rng.uniform(1.01, 6)
            for x in thresholds(FluidParams(la, lb, ma, mb, 1.0)):
                for T in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)):
                    p = FluidParams(la, lb, ma, mb, T)
                    for tag in classify(p):
                        eq = solve_case(p, tag)
                        for side in "ab":
                            mass = eq.atom(side) + sum(s.mass for s in eq.segments(side))
                            assert abs(mass - 1.0) <= 1e-12, (p, tag, side, mass)
                            assert 0.0 <= eq.atom(side) <= 1.0, (p, tag, side)

    @pytest.mark.parametrize(
        "params, tag",
        [
            (FluidParams(1.0, 1e-310, 1.0, 2.0, 1.0), "iv"),
            (FluidParams(1.0, 1e-17, 0.5, 1.0, 0.9), "iii"),
        ],
    )
    def test_mass_lost_to_rounding_raises(self, params, tag):
        # type b's segment [T - lam_b / mu_b, T] rounds to zero length, so
        # leaving it out would leave b without mass: classify and
        # solve_case raise
        for call in (classify, lambda p: solve_case(p, tag)):
            with pytest.raises(ValueError, match="loses mass to rounding"):
                call(params)

    def test_never_empty(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            la, lb = rng.uniform(0.1, 10, 2)
            ma = rng.uniform(0.1, 4)
            mb = ma * rng.uniform(1.01, 6)
            T = rng.uniform(0.05, 4 * (la / ma + lb / mb))
            assert classify(FluidParams(la, lb, ma, mb, T))


class TestSolveCase:
    def test_case_ii_reference(self):
        eq = solve_case(fig2_params(2.0), "ii")
        assert eq.atom_a == 1.0
        assert eq.atom_b == pytest.approx(0.5, abs=1e-12)
        seg = eq.segments_b[0]
        assert seg.start == pytest.approx(0.5, abs=1e-12)
        assert seg.end == 1.0
        assert seg.density == pytest.approx(1.0, abs=1e-12)

    def test_case_iii_reference(self):
        eq = solve_case(fig2_params(4.0), "iii")
        assert eq.atom_a == 1.0 and eq.atom_b == 0.0
        assert eq.segments_b[0].start == pytest.approx(0.5, abs=1e-12)

    def test_case_iv_reference(self):
        eq = solve_case(fig2_params(8.0), "iv")
        assert eq.atom_a == pytest.approx(0.5, abs=1e-12)
        assert eq.atom_b == 0.0
        sa, sb = eq.segments_a[0], eq.segments_b[0]
        assert (sa.start, sa.end) == (pytest.approx(0.25), pytest.approx(0.75))
        assert sa.density == pytest.approx(1.0)
        assert (sb.start, sb.end) == (pytest.approx(0.75), pytest.approx(1.0))
        assert sb.density == pytest.approx(4.0)

    def test_unknown_belief_rejected(self):
        eq = solve_case(fig2_params(2.0), "ii")
        for read in (eq.atom, eq.segments, lambda side: eq.cdf(side, 0.5)):
            with pytest.raises(ValueError, match="belief"):
                read("c")

    def test_wrong_tag_rejected(self):
        with pytest.raises(InvalidCaseError):
            solve_case(fig2_params(2.0), "iv")
        with pytest.raises(InvalidCaseError):
            solve_case(fig2_params(2.0), "vii")

    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            la, lb = rng.uniform(0.2, 10, 2)
            ma = rng.uniform(0.2, 3)
            mb = ma * rng.uniform(1.05, 5)
            T = rng.uniform(0.05, 1.5) * thresholds(FluidParams(la, lb, ma, mb, 1))[3]
            p = FluidParams(la, lb, ma, mb, T)
            for tag in classify(p):
                eq = solve_case(p, tag)
                for side in "ab":
                    mass = eq.atom(side) + sum(s.mass for s in eq.segments(side))
                    assert mass == pytest.approx(1.0, abs=1e-9)

    def test_case_boundary_continuity(self):
        p = fig2_params(2.0)
        x2 = thresholds(p)[1]
        eq = solve_case(dataclasses.replace(p, horizon=x2 - 1e-9), "ii")
        assert eq.atom_b == pytest.approx(0.0, abs=1e-8)

    def test_own_segment_densities(self):
        for mu_b, tag in ((2.0, "ii"), (4.0, "iii"), (8.0, "iv")):
            p = fig2_params(mu_b)
            eq = solve_case(p, tag)
            for seg in eq.segments_a:
                assert seg.density == pytest.approx(p.mu_a / p.lam_a)
            for seg in eq.segments_b:
                assert seg.density == pytest.approx(p.mu_b / p.lam_b)

    def test_pessimists_arrive_first(self):
        for mu_b, tag in ((4.0, "iii"), (8.0, "iv")):
            eq = solve_case(fig2_params(mu_b), tag)
            last_a = max((s.end for s in eq.segments_a), default=0.0)
            first_b = min(s.start for s in eq.segments_b)
            assert last_a <= first_b + 1e-12


class TestCdf:
    def test_terminal_mass(self):
        for mu_b, tag in ((1.5, "i"), (2.0, "ii"), (4.0, "iii"), (8.0, "iv")):
            eq = solve_case(fig2_params(mu_b), tag)
            assert eq.cdf("a", 1.0) == pytest.approx(1.0, abs=1e-12)
            assert eq.cdf("b", 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_case_ii_atom(self):
        eq = solve_case(fig2_params(2.0), "ii")
        assert eq.cdf("b", 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_case_iv_midpoint(self):
        eq = solve_case(fig2_params(8.0), "iv")
        assert eq.cdf("a", 0.5) == pytest.approx(0.75, abs=1e-12)

    def test_out_of_range(self):
        eq = solve_case(fig2_params(2.0), "ii")
        with pytest.raises(ValueError):
            eq.cdf("a", 1.5)


class TestInputChecks:
    @pytest.mark.parametrize("field", ["lam_a", "lam_b", "mu_a", "mu_b", "horizon"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_params_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            dataclasses.replace(fig2_params(2.0), **{field: value})

    @pytest.mark.parametrize("mu_b", [1.0, 0.5])
    def test_params_need_faster_optimists(self, mu_b):
        with pytest.raises(ValueError, match="mu_b must exceed mu_a"):
            fig2_params(mu_b)

    @pytest.mark.parametrize("start, end", [(1.0, 1.0), (1.0, 0.5), (0.0, math.nan)])
    def test_segment_needs_positive_length(self, start, end):
        with pytest.raises(ValueError, match="positive length"):
            Segment(start, end, 1.0)

    @pytest.mark.parametrize("density", [-1.0, 0.0, math.nan, math.inf])
    def test_segment_density_nonnegative_and_finite(self, density):
        # an interval without arrivals is not support
        with pytest.raises(ValueError, match="segment density must be positive and finite"):
            Segment(0.0, 1.0, density)


class TestVerify:
    def test_case_i_exact(self):
        p = fig2_params(1.5)
        assert verify_fluid(p, solve_case(p, "i"), 2000) == 0.0

    def test_closed_forms_verify(self):
        for mu_b, tag in ((2.0, "ii"), (4.0, "iii"), (8.0, "iv")):
            p = fig2_params(mu_b)
            assert verify_fluid(p, solve_case(p, tag), 5000) <= 1e-9

    @pytest.mark.parametrize(
        "mu_b, horizon, tag, second",
        [(2.0, 1.75, "iv", True), (2.0, 2.0, "iv", True), (4.0, 1.0, "iii", True),
         (4.0, 0.7, "iii", False), (2.0, 1.5, "iii", False), (2.0, 1.0, "ii", False)],
    )
    def test_second_equilibrium_is_flagged(self, mu_b, horizon, tag, second):
        # type a all at the opening and type b uniform on [lam_a / mu_b, T]
        # verifies exactly when mu_b >= 2 mu_a and (lam_a + lam_b) / mu_b <
        # T <= lam_a / (2 mu_a) + lam_b / mu_a; at T = 1.5 with mu_b = 2 it
        # is case iii's own profile, so nothing else is found there
        p = fig2_params(mu_b, horizon)
        start = p.lam_a / p.mu_b
        other = FluidEquilibrium(
            horizon, 1.0, 0.0, (), (Segment(start, horizon, 1.0 / (horizon - start)),), p.lam_a / 2
        )
        eq = solve_case(p, tag)
        grid = np.linspace(0.0, horizon, 101)
        differs = np.abs(eq.cdf("b", grid) - other.cdf("b", grid)).max() > 0.1
        assert (verify_fluid(p, other, 5000) == 0.0 and differs) == second
        assert eq.non_unique == second

    def test_negative_control(self):
        p = fig2_params(2.0)
        eq = solve_case(p, "ii")
        shifted = FluidEquilibrium(
            eq.horizon,
            eq.atom_a,
            eq.atom_b,
            eq.segments_a,
            (Segment(0.55, 1.0, eq.segments_b[0].density),),
            eq.q0,
        )
        assert verify_fluid(p, shifted, 2000) > 0.01

    @pytest.mark.parametrize("grid_n", [2.5, math.nan, math.inf])
    def test_grid_n_must_be_an_integer(self, grid_n):
        p = fig2_params(2.0)
        with pytest.raises(ValueError, match="grid_n"):
            verify_fluid(p, solve_case(p, "ii"), grid_n)

    def test_integral_float_grid_n_runs(self):
        p = fig2_params(2.0)
        eq = solve_case(p, "ii")
        assert verify_fluid(p, eq, 1001.0) == verify_fluid(p, eq, 1001)

    def test_all_classified_tags_verify(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(40):
            la, lb = rng.uniform(0.2, 10, 2)
            ma = rng.uniform(0.2, 3)
            mb = ma * rng.uniform(1.05, 6)
            T = rng.uniform(0.05, 1.5) * thresholds(FluidParams(la, lb, ma, mb, 1))[3]
            p = FluidParams(la, lb, ma, mb, T)
            for tag in classify(p):
                violation = verify_fluid(p, solve_case(p, tag), 3000)
                assert violation <= 1e-9, (p, tag, violation)
                checked += 1
        assert checked >= 40
