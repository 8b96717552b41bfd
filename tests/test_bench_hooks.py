"""The benchmark under bench/ wraps library names from outside and calls
the workload stepper directly; these tests keep those names and call
shapes working."""

import importlib
from pathlib import Path

import pytest

from arrivalgames import dists, solver, workload
from arrivalgames.dists import make_geometric
from arrivalgames.workload import SlotGame

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer"), importlib.import_module("micro")


def test_tracer_wraps_and_restores(bench):
    tracer, _ = bench
    originals = {
        (owner, attr): getattr(owner, attr)
        for slots in tracer.TARGETS.values()
        for owner, attr in slots
    }
    t = tracer.Tracer()
    t.install()
    try:
        game = SlotGame(2.0, 2.0, 2, 4, make_geometric(3), make_geometric(2))
        solver.iterated_best_response(game)
        dists.compound_poisson(1.0, game.x_a)
    finally:
        t.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in originals.items())
    metrics = t.metrics()
    assert metrics["workload.advance.calls"][0] > 0
    assert metrics["workload.support_max"][0] > 0
    assert metrics["dists.compound_poisson.calls"][0] == 1
    assert metrics["dists.pmf_build.calls"][0] > 0
    assert workload.compound_poisson is dists.compound_poisson


def test_worker_call_shapes():
    # bench/worker.py calls best_response positionally and reads these
    # config properties and report fields.
    cfg = solver.SolverConfig()
    game = SlotGame(2.0, 2.0, 2, 4, make_geometric(3), make_geometric(2))
    _, sb, rep = solver.iterated_best_response(game, cfg)
    p = solver.best_response(sb.probs, game, "a", cfg.eps, cfg.max_bisect)
    assert abs(p.sum() - 1.0) < cfg.eps
    # bench/worker.py and bench/capture_reference.py still read the stall
    # flag, which no solve sets any more; the worker asks for a stall
    # gate only when the flag is set.
    assert cfg.verify_tol > 0.0
    assert rep.stalled is False
    assert rep.monotonicity_violations == 0


def test_micro_cases_run(bench, monkeypatch):
    _, micro = bench
    monkeypatch.setattr(micro, "per_call_ms", lambda fn: (fn(), 0.0)[1])
    assert sorted(micro.run()) == sorted(
        [
            "micro.compound_poisson.geometric4_lam10",
            "micro.compound_poisson.mixture4_lam50",
            "micro.compound_poisson.deterministic4_lam0.3",
            "micro.advance.support100",
            "micro.advance.support1000",
            "micro.advance.support4000",
        ]
    )
