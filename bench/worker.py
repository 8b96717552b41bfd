"""One benchmark process. `run.py` starts it once per role, each in a
fresh interpreter, so that set-up time and peak memory belong to one
workload alone.

    python3 bench/worker.py setup --workload NAME
    python3 bench/worker.py solve --workload NAME --seconds S --trace 0|1

The last line of standard output is one JSON object.
"""

from time import perf_counter

T_START = perf_counter()  # before any import that set-up time covers

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import process_time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import arrivalgames  # noqa: E402
from arrivalgames import solver  # noqa: E402

if Path(arrivalgames.__file__).resolve().parent.parent != SRC:
    sys.exit(f"arrivalgames was imported from {arrivalgames.__file__}, not from {SRC}")

import micro  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(name: str, games) -> list:
    """The captured outputs of the workload's games."""
    ref = json.loads((REFERENCE_DIR / f"{name}.json").read_text())["solves"]
    if [r["game"] for r in ref] != [workloads.describe(g) for g in games]:
        sys.exit(f"reference games of {name} do not match the generated games")
    return ref


class Ledger:
    """Per-solve outcomes of a run: times, the verification gate and the
    reference comparison."""

    def __init__(self, cfg: solver.SolverConfig):
        self.cfg = cfg
        self.wall: list[float] = []
        self.failures: list[str] = []
        self.iterations = 0
        self.stalled = 0
        self.monotonicity_violations = 0
        self.ref_solves = 0
        self.wbar_diff = 0.0
        self.cdf_diff = 0.0

    def solve(self, label: str, game, ref: dict):
        """Solve one game and return its strategy pair, or None when the
        solver raised; `ref` is the game's captured output."""
        cfg = self.cfg
        t0 = perf_counter()
        try:
            sa, sb, rep = solver.iterated_best_response(game, cfg)
        except Exception as exc:  # a failed solve is counted, and the run goes on
            self.failures.append(f"{label}: {exc!r}")
            return None
        finally:
            self.wall.append(perf_counter() - t0)
        self.iterations += rep.iterations
        self.stalled += rep.stalled
        self.monotonicity_violations += rep.monotonicity_violations
        # The existence battery's gate: verify_tol, or stall_tol when the
        # alternation ended through the stall test.
        gate = cfg.stall_tol if rep.stalled else cfg.verify_tol
        problem = None
        if not rep.converged:
            problem = f"not converged after {rep.iterations} iterations"
        elif not rep.passes(gate):
            problem = (
                f"verification failed at {gate:g}: spread {rep.max_support_spread:g}, "
                f"off-support {rep.max_offsupport_violation:g}"
            )
        d_wbar = max(abs(rep.wbar_a - ref["wbar_a"]), abs(rep.wbar_b - ref["wbar_b"]))
        d_cdf = max(
            float(np.max(np.abs(sa.cdf() - ref["cdf_a"]))),
            float(np.max(np.abs(sb.cdf() - ref["cdf_b"]))),
        )
        self.ref_solves += 1
        self.wbar_diff = max(self.wbar_diff, d_wbar)
        self.cdf_diff = max(self.cdf_diff, d_cdf)
        if problem is None and d_wbar > cfg.verify_tol:
            problem = f"equilibrium waits {d_wbar:g} away from the reference"
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
        return sa, sb


def trace_overhead(games, pairs, wall, cfg: solver.SolverConfig) -> float:
    """Relative cost of the trace, timed alternately with and without the
    wrappers on one best response in the traced pass's slowest game: type
    a's response to type b's solved profile (uniform if the solve raised)."""
    slowest = max(range(len(games)), key=wall.__getitem__)
    game, pair = games[slowest], pairs[slowest]
    p_b = pair[1].probs if pair else np.full(game.n_slots, 1.0 / game.n_slots)

    def probe() -> float:
        t0 = perf_counter()
        solver.best_response(p_b, game, "a", cfg.eps, cfg.max_bisect)
        return perf_counter() - t0

    plain, traced = [], []
    start = perf_counter()
    while not plain or (perf_counter() - start < 2.0 and len(plain) < 25):
        plain.append(probe())
        with Tracer():
            traced.append(probe())
    return float(np.median(traced) / np.median(plain) - 1.0)


def solve_run(args) -> dict:
    cfg = solver.SolverConfig()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    games = workloads.build(args.workload)
    setup_s = perf_counter() - T_START
    reference = load_reference(args.workload, games)
    ledger = Ledger(cfg)
    pass_wall, pass_cpu = [], []
    # Whole passes over the games: at least one, and another only while
    # it is expected to end within the run's seconds. The traced run makes
    # exactly one, so its counters repeat exactly.
    while True:
        t_pass, c_pass = perf_counter(), process_time()
        pairs = [
            ledger.solve(f"game {i}", game, ref)
            for i, (game, ref) in enumerate(zip(games, reference))
        ]
        pass_wall.append(perf_counter() - t_pass)
        pass_cpu.append(process_time() - c_pass)
        if tracer or sum(pass_wall) + pass_wall[-1] > args.seconds:
            break
    out = {
        "setup_s": setup_s,
        "pass_wall": pass_wall,
        "pass_cpu": pass_cpu,
        "solve_wall": ledger.wall,
        "failures": ledger.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }
    if tracer:
        tracer.uninstall()
        layer = tracer.metrics()
        layer.update(
            {
                "solver.outer_iterations": (ledger.iterations, "count"),
                "solver.stalled_share": (ledger.stalled / len(games), "fraction"),
                "solver.monotonicity_violations": (ledger.monotonicity_violations, "count"),
                "check.ref_solves": (ledger.ref_solves, "count"),
                "check.wbar_max_abs_diff": (ledger.wbar_diff, "abs"),
                "check.cdf_max_abs_diff": (ledger.cdf_diff, "abs"),
                "trace.overhead_frac": (trace_overhead(games, pairs, ledger.wall, cfg), "fraction"),
            }
        )
        layer.update({name: (ms, "ms") for name, ms in micro.run().items()})
        out["layers"] = layer
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=("setup", "solve"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.role == "setup":
        workloads.build(args.workload)
        out = {"setup_s": perf_counter() - T_START}
    else:
        out = solve_run(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
