"""Checks on the library's source tree and public surface."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import arrivalgames
from arrivalgames.solver import SolverConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so the library's invariants
    # raise typed errors instead.
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_import_builds_no_tables():
    # Importing the library must not build tables that a solve may never
    # need: every process pays for them in set-up time and memory (an
    # eager np.arange(_MAX_SUPPORT) keeps 16 MB). The kernel grows what it
    # uses on demand.
    code = (
        "import numpy, tracemalloc\n"
        "tracemalloc.start()\n"
        "import arrivalgames\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert int(out.stdout) < 1 << 20


def test_no_environment_reads_in_src():
    # The library takes its settings from arguments and scenario files
    # only, so no switch outside them can change a result.
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            hit = (
                isinstance(node, ast.Attribute)
                and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in names for alias in node.names)
            )
            if hit:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found


def test_no_linalg_or_scipy_in_src():
    # numpy is the only runtime dependency, and its linalg module is not
    # needed either: the solver's one linear system is a 2 x 2 step solved
    # in closed form. Importing or calling numpy.linalg raised a worker's
    # peak memory, so no module, attribute or import names it or scipy.
    def banned(name):
        return name == "scipy" or name.startswith("scipy.") or "linalg" in name.split(".")

    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if any(map(banned, names)):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found


def test_beliefs_are_compared_in_signals_only():
    # `signals._side` is the one reader of a belief label, so an unknown
    # label raises everywhere instead of reading as type b.
    def is_label(node):
        if isinstance(node, ast.Constant):
            return node.value in ("a", "b")
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_label(elt) for elt in node.elts)
        return False

    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "signals.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Compare) and any(map(is_label, [node.left, *node.comparators]))
    ]
    assert not found, found


def test_counts_are_checked_in_dists_count_only():
    # `dists._count` is the one integrality test, so every count takes the
    # same values and fails with the same ValueError. Outside it, no code
    # calls `.is_integer()` or compares a value with `int(value)`.
    def is_integrality_test(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return node.func.attr == "is_integer"
        if not isinstance(node, ast.Compare):
            return False
        sides = [node.left, *node.comparators]
        wrapped = {
            ast.dump(side.args[0])
            for side in sides
            if isinstance(side, ast.Call)
            and isinstance(side.func, ast.Name)
            and side.func.id == "int"
            and side.args
        }
        return any(ast.dump(side) in wrapped for side in sides)

    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = {
            id(node)
            for fn in tree.body
            if path.name == "dists.py" and isinstance(fn, ast.FunctionDef) and fn.name == "_count"
            for node in ast.walk(fn)
        }
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if is_integrality_test(node) and id(node) not in exempt
        ]
    assert not found, found


def test_private_names_are_used_in_src():
    # A private function, class or constant, and a method of a private
    # class or a private method, is read in src/ outside its own
    # definition; a helper that only tests read belongs in tests/.
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    def reads(node):
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        )

    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                defined += [
                    (t.id, node) for t in node.targets if isinstance(t, ast.Name) and private(t.id)
                ]
            elif isinstance(node, ast.FunctionDef) and private(node.name):
                defined.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                if private(node.name):
                    defined.append((node.name, node))
                defined += [
                    (item.name, item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__")
                    and (private(node.name) or private(item.name))
                ]
    assert defined
    total = sum(map(reads, trees), Counter())
    unread = [f"{name}:{node.lineno}" for name, node in defined if total[name] == reads(node)[name]]
    assert not unread, unread


def test_public_surface_is_pinned():
    # A new public name, solver setting, input record field, parameter of
    # a solve or simulation entry point or result field shows in a diff as
    # an edit of this test.
    assert sorted(arrivalgames.__all__) == [
        "AbmConfig", "AbmResult", "ArrivalStrategy",
        "DominanceReport", "EquilibriumReport",
        "FluidEquilibrium", "FluidParams",
        "InvalidStrategyError", "NumericFailure", "Pmf", "PosteriorView",
        "Segment", "ServiceDist", "SignalParams", "SlotGame", "SolverConfig",
        "SupportBudgetError", "WorkloadProfile", "WorkloadStepper",
        "best_response", "choose_slot", "compound_poisson",
        "convolve", "coupled_dominance",
        "iterated_best_response", "make_deterministic", "make_geometric",
        "make_geometric_mixture", "mix_services",
        "posterior_views", "run_abm", "simulate_day",
        "solve_cases", "solve_fr", "thresholds", "verify_equilibrium",
        "verify_fluid", "workload_profile",
    ]
    fields = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (
            SolverConfig,
            arrivalgames.SlotGame,
            arrivalgames.SignalParams,
            arrivalgames.FluidParams,
            arrivalgames.AbmConfig,
            arrivalgames.EquilibriumReport,
            arrivalgames.WorkloadProfile,
            arrivalgames.FluidEquilibrium,
            arrivalgames.PosteriorView,
            arrivalgames.AbmResult,
            arrivalgames.DominanceReport,
        )
    }
    assert fields == {
        "SolverConfig": ["eps", "max_outer", "max_bisect"],
        "SlotGame": ["lam_a", "lam_b", "tau", "n_slots", "x_a", "x_b"],
        "SignalParams": ["lam", "p", "q", "x_a", "x_b"],
        "FluidParams": ["lam_a", "lam_b", "mu_a", "mu_b", "horizon"],
        "AbmConfig": ["signal", "tau", "n_slots", "pool", "days", "c1", "c2", "seed"],
        "EquilibriumReport": [
            "wbar_a", "wbar_b", "support_a", "support_b", "max_support_spread",
            "max_offsupport_violation", "iterations", "converged", "stalled",
            "monotonicity_violations", "tol", "passed",
        ],
        "WorkloadProfile": ["ev", "w"],
        "FluidEquilibrium": [
            "horizon", "atom_a", "atom_b", "segments_a", "segments_b", "q0", "non_unique",
        ],
        "PosteriorView": ["marginal", "nu", "eta", "z", "zeta"],
        "AbmResult": [
            "pbar", "wbar_pop", "slot_mean_wait", "explored", "decisions", "days",
            "contributing",
        ],
        "DominanceReport": [
            "dominance_holds", "paths_checked", "violating_paths", "max_workload_gap",
        ],
    }
    params = {
        fn.__name__: list(inspect.signature(fn).parameters)
        for fn in (
            arrivalgames.best_response,
            arrivalgames.iterated_best_response,
            arrivalgames.verify_equilibrium,
            arrivalgames.solve_fr,
            arrivalgames.workload_profile,
            arrivalgames.run_abm,
            arrivalgames.simulate_day,
            arrivalgames.coupled_dominance,
        )
    }
    assert params == {
        "best_response": ["p_minus", "game", "belief", "eps", "max_bisect", "warm"],
        "iterated_best_response": ["game", "cfg"],
        "verify_equilibrium": ["game", "p_a", "p_b", "tol"],
        "solve_fr": ["params", "tau", "n_slots", "cfg"],
        "workload_profile": ["game", "p_a", "p_b", "belief", "mass_tol"],
        "run_abm": ["cfg"],
        "simulate_day": ["slots", "service", "tau", "rng"],
        "coupled_dominance": ["params", "f_a", "f_b", "n_paths", "rng", "coupled"],
    }


def test_package_imports_only_public_names():
    # A name the package imports but leaves out of __all__ is still
    # reachable as an attribute, so it reads as public surface that the
    # pinned list above does not show.
    tree = ast.parse((SRC / "arrivalgames" / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(imported) == sorted(arrivalgames.__all__)
