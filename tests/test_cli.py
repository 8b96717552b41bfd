import math
import os
from pathlib import Path

import numpy as np
import pytest

from arrivalgames import cli
from arrivalgames.cli import (
    EXIT_INVALID_PARAMS,
    EXIT_NUMERIC_FAILURE,
    EXIT_OK,
    EXIT_PARSE,
    load_scenario,
    main,
)
from arrivalgames.dists import make_deterministic, make_geometric_mixture
from arrivalgames.signals import SignalParams, posterior_views, signal_marginals
from arrivalgames.solver import SolverConfig, iterated_best_response
from arrivalgames.workload import SlotGame

FLUID_SCENARIO = """
[scenario]
mode = fluid
seed = 5

[fluid]
lambda_a = 1
lambda_b = 2
mu_a = 1
mu_b = 2
horizon = 1
grid_n = 21
"""

BR_SCENARIO = """
[scenario]
mode = discrete_br
seed = 1

[game]
lambda_a = 2
lambda_b = 2
tau = 2
slots = 6
service = geometric
chi_a = 4
chi_b = 2
"""

SIGNAL_SCENARIO = """
[scenario]
mode = signal

[signal]
lambda = 10
p = 0.5
q = 0.9

[game]
service = deterministic
chi_a = 4
chi_b = 2
"""

ABM_SCENARIO = """
[scenario]
mode = abm
seed = 2

[signal]
lambda = 4
p = 0.5
q = 0.9

[game]
lambda_a = 2
lambda_b = 2
tau = 3
slots = 5
service = deterministic
chi_a = 4
chi_b = 2

[abm]
pool = 10
days = 200
"""


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_summary(out):
    lines = (out / "summary.txt").read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestScenarioParsing:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")]) == EXIT_PARSE

    def test_no_section_header(self, tmp_path):
        path = write(tmp_path, "just text\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert not (tmp_path / "o").exists()

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.ini"
        path.write_bytes(b"[scenario]\nmode = fluid\n# \xff\xfe\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert "scenario parse error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_mode(self, tmp_path):
        path = write(tmp_path, "[scenario]\nmode = nonsense\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "text, message",
        [
            (FLUID_SCENARIO.replace("[scenario]\nmode = fluid\nseed = 5\n", ""),
             "needs a [scenario] block"),
            ("[scenario]\nmode = discrete_br\n", "needs a [game] block"),
            (BR_SCENARIO.replace("service = geometric", "service = weibull"),
             "unknown service family 'weibull'"),
        ],
        ids=["no_scenario_block", "no_game_block", "unknown_service"],
    )
    def test_malformed_scenario_exits_2_without_outputs(self, tmp_path, capsys, text, message):
        path = write(tmp_path, text)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_field(self, tmp_path):
        path = write(tmp_path, "[scenario]\nmode = fluid\n[fluid]\nlambda_a = 1\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert not (tmp_path / "o").exists()

    def test_invalid_model_parameters(self, tmp_path):
        bad = BR_SCENARIO.replace("chi_a = 4", "chi_a = 0.5")
        path = write(tmp_path, bad)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_INVALID_PARAMS
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_signal_population_must_be_finite(self, tmp_path, capsys, lam):
        text = SIGNAL_SCENARIO.replace("lambda = 10", f"lambda = {lam}")
        path = write(tmp_path, text)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_INVALID_PARAMS
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", ["solver.eps=nan", "solver.eps=inf"])
    def test_non_finite_solver_setting_exits_4_without_outputs(self, tmp_path, capsys, override):
        path = write(tmp_path, BR_SCENARIO)
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out), "--override", override]) == EXIT_INVALID_PARAMS
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", ["abm.c1=nan", "abm.c2=nan", "abm.c1=inf"])
    def test_non_finite_sigmoid_exits_4_without_outputs(self, tmp_path, capsys, override):
        path = write(tmp_path, ABM_SCENARIO)
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out), "--override", override]) == EXIT_INVALID_PARAMS
        assert "sigmoid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid_n", [0, 1])
    def test_fluid_grid_needs_two_points(self, tmp_path, capsys, grid_n):
        path = write(tmp_path, FLUID_SCENARIO.replace("grid_n = 21", f"grid_n = {grid_n}"))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_INVALID_PARAMS
        assert "grid_n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, flags",
        [(SIGNAL_SCENARIO.replace("mode = signal", "mode = signal\nseed = -3"), []),
         (BR_SCENARIO, ["--seed", "-3"])],
        ids=["signal", "discrete_br"],
    )
    def test_negative_seed_exits_4_in_every_mode(self, tmp_path, capsys, text, flags):
        path = write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)] + flags) == EXIT_INVALID_PARAMS
        assert "seed must be a nonnegative integer, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, field, name",
        [
            (BR_SCENARIO, "game.tau", "slot length"),
            (BR_SCENARIO, "game.slots", "slot count"),
            (BR_SCENARIO, "solver.max_outer", "max_outer"),
            (ABM_SCENARIO, "abm.pool", "agent pool"),
            (ABM_SCENARIO, "abm.days", "day count"),
            (FLUID_SCENARIO, "fluid.grid_n", "grid_n"),
            (BR_SCENARIO, "scenario.seed", "seed"),
        ],
        ids=["tau", "slots", "max_outer", "pool", "days", "grid_n", "seed"],
    )
    def test_count_past_float_range_exits_4_without_outputs(
        self, tmp_path, capsys, monkeypatch, text, field, name
    ):
        # a 400-digit count is rejected where its record is built, before a
        # solve, a simulation or a verification grid starts
        def work(*args):
            pytest.fail(f"work started before {field} was checked")

        monkeypatch.setattr(cli, "iterated_best_response", work)
        monkeypatch.setattr(cli.abm_mod, "run_abm", work)
        monkeypatch.setattr(cli.fluid_mod, "_verification_grid", work)
        path = write(tmp_path, text)
        out = tmp_path / "o"
        flags = ["--override", f"{field}={'9' * 400}"]
        assert main(["run", str(path), "--out", str(out)] + flags) == EXIT_INVALID_PARAMS
        assert capsys.readouterr().err.splitlines() == [
            f"invalid parameters: {name} lies past the float range"
        ]
        assert not out.exists()

    def test_override_applies(self, tmp_path):
        path = write(tmp_path, FLUID_SCENARIO)
        scn = load_scenario(path, ["fluid.mu_b=4"])
        assert scn.get("fluid", "mu_b", float) == 4.0

    def test_unknown_solver_field_rejected(self, tmp_path, capsys):
        path = write(tmp_path, BR_SCENARIO + "\n[solver]\neps = 1e-5\nnorm = l1\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert "norm" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, override, message",
        [
            (FLUID_SCENARIO.replace("seed = 5", "sed = 5"), None, "[scenario]: sed"),
            (FLUID_SCENARIO.replace("grid_n = 21", "grid = 21"), None, "[fluid]: grid"),
            (BR_SCENARIO.replace("slots = 6", "slot = 6"), None, "[game]: slot"),
            (SIGNAL_SCENARIO.replace("lambda = 10", "lamda = 10"), None, "[signal]: lamda"),
            (ABM_SCENARIO.replace("days = 200", "day = 200"), None, "[abm]: day"),
            (FLUID_SCENARIO.replace("[fluid]", "[flud]"), None, "unknown block [flud]"),
            (FLUID_SCENARIO, "foo.bar=1", "unknown block [foo]"),
            (FLUID_SCENARIO + "\n[DEFAULT]\nmu_b = 4\n", None, "unknown block [DEFAULT]"),
            (BR_SCENARIO, "solver.delta=1", "[solver]: delta"),
        ],
        ids=[
            "scenario", "fluid", "game", "signal", "abm", "block", "override_block", "default",
            "solver",
        ],
    )
    def test_unknown_block_or_field_exits_2_without_outputs(
        self, tmp_path, capsys, text, override, message
    ):
        path = write(tmp_path, text)
        out = tmp_path / "o"
        args = ["run", str(path), "--out", str(out)]
        assert main(args + (["--override", override] if override else [])) == EXIT_PARSE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_shipped_scenarios_hold_only_known_fields(self):
        paths = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.ini"))
        assert paths
        for path in paths:
            load_scenario(path)

    def test_bad_override_rejected(self, tmp_path):
        path = write(tmp_path, FLUID_SCENARIO)
        assert main(["run", str(path), "--out", str(tmp_path / "o"), "--override", "nonsense"]) == EXIT_PARSE

    @pytest.mark.parametrize("override", ["solver .eps=1", " fluid . mu_b = 4 "])
    def test_override_with_spaces_applies(self, tmp_path, override):
        path = write(tmp_path, FLUID_SCENARIO)
        key, _, value = override.partition("=")
        section, _, field = key.partition(".")
        scn = load_scenario(path, [override])
        assert scn.get(section.strip(), field.strip(), float) == float(value)
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out), "--override", override]) == EXIT_OK
        assert (out / "summary.txt").is_file()

    @pytest.mark.parametrize(
        "override",
        ["DEFAULT.mu_b=4", "fluid.mu_b=4%", " .mu_b=4", "scenario.seed=abc", "scenario.seed=1.5"],
    )
    def test_unusable_override_exits_2_without_outputs(self, tmp_path, capsys, override):
        path = write(tmp_path, FLUID_SCENARIO)
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out), "--override", override]) == EXIT_PARSE
        assert "scenario error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("chi", ["inf", "nan"])
    def test_non_finite_deterministic_service_exits_4_without_outputs(self, tmp_path, capsys, chi):
        path = write(tmp_path, BR_SCENARIO.replace("geometric", "deterministic"))
        out = tmp_path / "o"
        args = ["run", str(path), "--out", str(out), "--override", f"game.chi_a={chi}"]
        assert main(args) == EXIT_INVALID_PARAMS
        assert "integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_percent_in_value_is_a_bad_value(self, tmp_path, capsys):
        path = write(tmp_path, FLUID_SCENARIO.replace("mu_b = 2", "mu_b = 2%"))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_PARSE
        assert "bad value for [fluid] mu_b: '2%'" in capsys.readouterr().err
        assert not out.exists()


class TestFluidMode:
    def test_reference_atom_in_csv(self, tmp_path):
        path = write(tmp_path, FLUID_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        header, data = read_csv(out / "cdf.csv")
        assert header == ["time", "F_a", "F_b"]
        assert data[0, 0] == 0.0 and data[0, 2] == 0.5
        summary = (out / "summary.txt").read_text()
        assert "cases.solved = ii" in summary

    def test_case_picks_among_classified_tags(self, tmp_path):
        # both degenerate cases apply here, and auto takes the first
        text = FLUID_SCENARIO.replace("lambda_a = 1", "lambda_a = 0.5").replace(
            "lambda_b = 2", "lambda_b = 0.5"
        ).replace("mu_a = 1", "mu_a = 0.25").replace("mu_b = 2", "mu_b = 0.593").replace(
            "horizon = 1", "horizon = 3.5"
        )
        for case, solved in (("auto", "v"), ("vi", "vi")):
            path = write(tmp_path, f"{text}case = {case}\n", f"{case}.ini")
            out = tmp_path / case
            assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
            summary = read_summary(out)
            assert (summary["cases.classified"], summary["cases.solved"]) == ("v vi", solved)

    @pytest.mark.parametrize(
        "case, message",
        [("vii", "unknown case tag 'vii'"), ("i", "case 'i' does not apply")],
    )
    def test_bad_case_exits_4_without_outputs(self, tmp_path, capsys, case, message):
        path = write(tmp_path, f"{FLUID_SCENARIO}case = {case}\n")
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_INVALID_PARAMS
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_one_ulp_above_x1_solves_case_ii(self, tmp_path):
        # x1 = 3.7272727272727266 here. One ulp above it, case ii's b
        # segment is two ulps long, and its closed form rounds b's atom to
        # 1.0000000000000002: the atom is capped at one, and the profile
        # verifies to rounding (the faced queue at T is 9e-16 below q0)
        path = write(tmp_path, FLUID_SCENARIO)
        out = tmp_path / "out"
        fields = dict(lambda_a=4.5, lambda_b=3.7, mu_a=0.5, mu_b=1.1, horizon=3.727272727272727)
        flags = [arg for item in fields.items() for arg in ("--override", "fluid.%s=%s" % item)]
        assert main(["run", str(path), "--out", str(out), *flags]) == EXIT_OK
        summary = read_summary(out)
        assert (summary["cases.classified"], summary["cases.solved"]) == ("ii", "ii")
        assert float(summary["atom_b"]) == 1.0
        assert float(summary["verify.max_violation"]) <= 1e-15

    def test_cdf_columns_monotone_and_complete(self, tmp_path):
        path = write(tmp_path, FLUID_SCENARIO)
        out = tmp_path / "out"
        main(["run", str(path), "--out", str(out)])
        _, data = read_csv(out / "cdf.csv")
        for col in (1, 2):
            assert np.all(np.diff(data[:, col]) >= -1e-12)
            assert data[-1, col] == pytest.approx(1.0, abs=1e-9)


class TestDiscreteMode:
    def test_br_run_and_types_ordered(self, tmp_path):
        path = write(tmp_path, BR_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        header, data = read_csv(out / "cdf.csv")
        assert header == ["time", "F_a", "F_b"]
        assert np.all(data[:, 1] >= data[:, 2] - 1e-9)
        assert data[-1, 1] == pytest.approx(1.0, abs=1e-9)
        assert data[-1, 2] == pytest.approx(1.0, abs=1e-9)
        assert "br.converged = True" in (out / "summary.txt").read_text()

    def test_case_iv_analogue_separates_types(self, tmp_path):
        text = BR_SCENARIO.replace("lambda_a = 2", "lambda_a = 12.5").replace(
            "lambda_b = 2", "lambda_b = 12.5"
        ).replace("tau = 2", "tau = 1").replace("slots = 6", "slots = 60").replace(
            "service = geometric", "service = deterministic"
        )
        path = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        _, data = read_csv(out / "cdf.csv")
        f_a, f_b = data[:, 1], data[:, 2]
        # all type-a mass is in place before any type-b mass appears
        first_b = np.argmax(f_b > 1e-6)
        assert f_a[first_b] == pytest.approx(1.0, abs=1e-6)

    def test_fr_mode_outputs_posterior(self, tmp_path):
        text = """
[scenario]
mode = discrete_fr
seed = 4

[signal]
lambda = 4
p = 0.5
q = 0.9

[game]
lambda_a = 2
lambda_b = 2
tau = 3
slots = 5
service = deterministic
chi_a = 4
chi_b = 2
"""
        path = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text()
        assert "posterior.zeta_a = 3.8" in summary
        assert "fr_a.converged = True" in summary


class TestSignalMode:
    def test_summary_reports_marginals_and_posteriors(self, tmp_path):
        path = write(tmp_path, SIGNAL_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["summary.txt"]
        marg = signal_marginals(0.5, 0.9)
        views = posterior_views(
            SignalParams(10.0, 0.5, 0.9, make_deterministic(4.0), make_deterministic(2.0))
        )
        want = {"seed": "0", "mode": "signal"}
        want.update({f"marginal_{s}": repr(m) for s, m in zip("ab", marg)})
        for s, view in zip("ab", views):
            want[f"nu_{s}"] = f"{view.nu[0]!r} {view.nu[1]!r}"
            want[f"eta_{s}"] = f"{view.eta[0]!r} {view.eta[1]!r}"
            want[f"zeta_{s}"] = repr(view.zeta)
        assert read_summary(out) == want


class TestUnobservedSignal:
    # With q = 1 and p = 0 or 1 every customer reads the same signal, so
    # the other signal has no posterior.
    @pytest.mark.parametrize("p, never", [("1", "b"), ("0", "a")])
    @pytest.mark.parametrize("mode", ["signal", "discrete_fr"])
    def test_posterior_modes_exit_4_without_outputs(self, tmp_path, capsys, mode, p, never):
        path = write(tmp_path, ABM_SCENARIO.replace("mode = abm", f"mode = {mode}"))
        out = tmp_path / "o"
        args = ["run", str(path), "--out", str(out), "--override", f"signal.p={p}"]
        assert main(args + ["--override", "signal.q=1"]) == EXIT_INVALID_PARAMS
        assert f"signal {never} is never observed" in capsys.readouterr().err
        assert not out.exists()

    def test_abm_needs_no_posterior(self, tmp_path):
        path = write(tmp_path, ABM_SCENARIO)
        out = tmp_path / "o"
        args = ["run", str(path), "--out", str(out), "--override", "signal.p=1"]
        assert main(args + ["--override", "signal.q=1"]) == EXIT_OK
        assert read_summary(out)["abm.contributing_b"] == "0"


class TestGameFields:
    # discrete_fr and abm read tau, slots and the service laws from
    # [game]; the populations come from [signal].
    @pytest.mark.parametrize("mode", ["discrete_fr", "abm"])
    def test_mode_runs_without_game_populations(self, tmp_path, mode):
        full = ABM_SCENARIO.replace("mode = abm", f"mode = {mode}")
        bare = full.replace("lambda_a = 2\nlambda_b = 2\n", "")
        assert "lambda_a" not in bare and "lambda_b" not in bare
        outs = []
        for name, text in (("full", full), ("bare", bare)):
            path, out = write(tmp_path, text, f"{name}.ini"), tmp_path / name
            assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
            outs.append(out)
        for name in ("cdf.csv", "summary.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize(
        "fields, cv_a, cv_b",
        [
            ("cv_scale = 1.5", 1.5 * math.sqrt(1.0 - 1.0 / 4.0), 1.5 * math.sqrt(1.0 - 1.0 / 2.0)),
            ("cv_a = 1.2\ncv_b = 0.9", 1.2, 0.9),
        ],
        ids=["cv_scale", "cv_a_cv_b"],
    )
    def test_mixture_service(self, tmp_path, fields, cv_a, cv_b):
        text = BR_SCENARIO.replace("service = geometric", f"service = mixture\n{fields}")
        path = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        game = SlotGame(
            2.0, 2.0, 2, 6, make_geometric_mixture(4.0, cv_a), make_geometric_mixture(2.0, cv_b)
        )
        _, _, rep = iterated_best_response(game, SolverConfig())
        summary = read_summary(out)
        assert (summary["br.wbar_a"], summary["br.wbar_b"]) == (repr(rep.wbar_a), repr(rep.wbar_b))

    @pytest.mark.parametrize("chi", ["0", "0.5", "nan"])
    def test_mixture_mean_is_checked_first(self, tmp_path, capsys, chi):
        text = BR_SCENARIO.replace("service = geometric", "service = mixture")
        path = write(tmp_path, text.replace("chi_a = 4", f"chi_a = {chi}"))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_INVALID_PARAMS
        assert "mixture service mean must be finite and >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_reports_acceptance_gate(self, tmp_path):
        path = write(tmp_path, BR_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text().splitlines()
        assert not any(line.startswith("br.stalled") for line in summary)
        for line in (
            "br.monotonicity_violations = 0",
            "br.tol = 0.0005",
            "br.passed = True",
        ):
            assert line in summary


class TestDeterminism:
    def test_identical_seed_identical_bytes(self, tmp_path):
        path = write(tmp_path, ABM_SCENARIO)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(path), "--out", str(out1)]) == EXIT_OK
        assert main(["run", str(path), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "cdf.csv").read_bytes() == (out2 / "cdf.csv").read_bytes()
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        path = write(tmp_path, ABM_SCENARIO)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", str(path), "--out", str(out1)])
        main(["run", str(path), "--out", str(out2), "--seed", "77"])
        assert (out1 / "cdf.csv").read_bytes() != (out2 / "cdf.csv").read_bytes()
        assert "seed = 77" in (out2 / "summary.txt").read_text()


class TestNonConvergence:
    def test_exit_code_and_report(self, tmp_path, capsys):
        solver_block = "\n[solver]\nmax_outer = 1\n"
        text = BR_SCENARIO.replace("lambda_a = 2", "lambda_a = 12.5").replace(
            "lambda_b = 2", "lambda_b = 12.5"
        ).replace("slots = 6", "slots = 30") + solver_block
        path = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert "br.converged = False" in (out / "summary.txt").read_text()
        assert "did not converge" in capsys.readouterr().err

    def test_fluid_limit_solve_converges_on_a_verified_pair(self, tmp_path):
        # the fluid game at T = 1.75 and N = 100: a round that moved the pair
        # by less than eps once ended the solve at an off-support violation
        # of 5.9e-4 against the gate of 5e-4, and the run exited 3
        text = BR_SCENARIO.replace("lambda_a = 2", "lambda_a = 100").replace(
            "lambda_b = 2", "lambda_b = 200"
        ).replace("tau = 2", "tau = 1").replace("slots = 6", "slots = 350").replace(
            "service = geometric", "service = deterministic"
        ).replace("chi_a = 4", "chi_a = 2").replace("chi_b = 2", "chi_b = 1")
        path = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        summary = read_summary(out)
        assert (summary["br.converged"], summary["br.passed"]) == ("True", "True")


class TestNumericFailure:
    def test_exit_code_and_no_outputs(self, tmp_path, capsys):
        # no equilibrium wait closes the strategy mass on one within eps = 1e-300
        path = write(tmp_path, BR_SCENARIO + "\n[solver]\neps = 1e-300\nmax_outer = 1\n")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_NUMERIC_FAILURE
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1


class TestAtomicWrite:
    def test_failed_rename_leaves_no_outputs(self, tmp_path, monkeypatch, capsys):
        renamed = []

        def replace(src, dst):
            if renamed:
                raise OSError("disk full")
            renamed.append(dst)
            os.rename(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace)
        path = write(tmp_path, BR_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_PARSE
        assert len(renamed) == 1
        assert list(out.iterdir()) == []
        assert capsys.readouterr().err == "file error: disk full\n"

    @pytest.mark.parametrize("below", [False, True], ids=["existing-file", "below-a-file"])
    def test_unusable_out_exits_2_without_outputs(self, tmp_path, capsys, below):
        # an --out that names an existing file, or a path below one,
        # cannot be made a directory
        path = write(tmp_path, SIGNAL_SCENARIO)
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / "sub" if below else blocker
        assert main(["run", str(path), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("file error:") and err.count("\n") == 1
        assert "taken" in err
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.ini", "taken"]

    def test_unreadable_scenario_exits_2(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, SIGNAL_SCENARIO)

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "open", denied, raising=False)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("file error:") and err.count("\n") == 1
        assert not out.exists()


class TestSupportBudget:
    def test_exit_code_and_no_outputs(self, tmp_path, capsys):
        # a Poisson rate of 1e7 needs a compound law past the kernel's budget
        text = BR_SCENARIO.replace("lambda_a = 2", "lambda_a = 1e7").replace(
            "lambda_b = 2", "lambda_b = 1e7"
        )
        path = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_INVALID_PARAMS
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("invalid parameters:") and "budget" in err


class TestCompareMode:
    def test_three_tables_and_distances(self, tmp_path):
        text = ABM_SCENARIO.replace("mode = abm", "mode = compare")
        path = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        for name in ("cdf_br.csv", "cdf_fr.csv", "cdf_abm.csv"):
            _, data = read_csv(out / name)
            assert data.shape[1] == 3
            assert data[-1, 1] == pytest.approx(1.0, abs=1e-9)
        summary = (out / "summary.txt").read_text()
        assert "dist.abm_vs_fr_a" in summary and "dist.abm_vs_br_b" in summary

    @pytest.mark.parametrize(
        "flags, message",
        [(["--override", "abm.pool=0"], "agent pool"), (["--seed", "-1"], "seed")],
        ids=["pool", "seed"],
    )
    def test_bad_abm_block_fails_before_any_solve(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        def solve(*args):
            pytest.fail("a solve ran before the [abm] block was checked")

        monkeypatch.setattr(cli, "iterated_best_response", solve)
        monkeypatch.setattr(cli, "solve_fr", solve)
        path = write(tmp_path, ABM_SCENARIO.replace("mode = abm", "mode = compare"))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)] + flags) == EXIT_INVALID_PARAMS
        assert message in capsys.readouterr().err
        assert not out.exists()
