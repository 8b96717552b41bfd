import numpy as np
import pytest

from arrivalgames.cli import (
    EXIT_INVALID_PARAMS,
    EXIT_NUMERIC_FAILURE,
    EXIT_OK,
    EXIT_PARSE,
    load_scenario,
    main,
)

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

    def test_unknown_mode(self, tmp_path):
        path = write(tmp_path, "[scenario]\nmode = nonsense\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE

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

    @pytest.mark.parametrize("grid_n", [0, 1])
    def test_fluid_grid_needs_two_points(self, tmp_path, capsys, grid_n):
        path = write(tmp_path, FLUID_SCENARIO.replace("grid_n = 21", f"grid_n = {grid_n}"))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_INVALID_PARAMS
        assert "grid_n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_override_applies(self, tmp_path):
        path = write(tmp_path, FLUID_SCENARIO)
        scn = load_scenario(path, ["fluid.mu_b=4"])
        assert scn.get("fluid", "mu_b", float) == 4.0

    def test_unknown_solver_field_rejected(self, tmp_path, capsys):
        path = write(tmp_path, BR_SCENARIO + "\n[solver]\neps = 1e-5\nnorm = l1\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert "norm" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_override_rejected(self, tmp_path):
        path = write(tmp_path, FLUID_SCENARIO)
        assert main(["run", str(path), "--out", str(tmp_path / "o"), "--override", "nonsense"]) == EXIT_PARSE


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

    def test_summary_reports_acceptance_gate(self, tmp_path):
        path = write(tmp_path, BR_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text().splitlines()
        for line in (
            "br.stalled = False",
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


class TestNumericFailure:
    def test_exit_code_and_no_outputs(self, tmp_path, capsys):
        # no equilibrium wait closes the strategy mass on one within eps = 1e-300
        path = write(tmp_path, BR_SCENARIO + "\n[solver]\neps = 1e-300\nmax_outer = 1\n")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_NUMERIC_FAILURE
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1


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
