"""Kernel microbenchmarks: `compound_poisson` per jump law and rate, and
one `WorkloadStepper.advance` per support size.

These are the layer-level numbers behind the end-to-end workloads: the
three jump laws span the long (geometric, mixture) and short
(deterministic) regimes, and the supports span what the 20-slot and
240-slot solves see (mean about 1 200 and 900, maximum about 3 000
and 2 300).
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from arrivalgames import dists
from arrivalgames.workload import SlotState, WorkloadStepper

BATCH_S = 0.01
BUDGET_S = 0.25


def per_call_ms(fn) -> float:
    """Median milliseconds per call over batches of about BATCH_S each."""
    t0 = perf_counter()
    fn()
    reps = max(1, int(BATCH_S / max(perf_counter() - t0, 1e-7)))
    samples = []
    start = perf_counter()
    while len(samples) < 5 or perf_counter() - start < BUDGET_S:
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        samples.append((perf_counter() - t0) / reps)
    return 1e3 * statistics.median(samples)


def _advance_case(stepper: WorkloadStepper, support: int, load: float):
    v = dists.Pmf(np.full(support, 1.0 / support))
    ev = v.mean()
    state = SlotState(0, v, ev, ev)
    return lambda: stepper.advance(state, load)


def run() -> dict[str, float]:
    geo = dists.make_geometric(4)
    mix = dists.make_geometric_mixture(4, 2.0 * math.sqrt(1.0 - 1.0 / 4))
    det = dists.make_deterministic(4)
    cases = {
        "micro.compound_poisson.geometric4_lam10": lambda: dists.compound_poisson(10.0, geo),
        "micro.compound_poisson.mixture4_lam50": lambda: dists.compound_poisson(50.0, mix),
        "micro.compound_poisson.deterministic4_lam0.3": lambda: dists.compound_poisson(0.3, det),
    }
    # The 20-slot reference game's belief: geometric(4) service, 3-unit
    # slots, a per-slot load of one arrival.
    stepper = WorkloadStepper(geo, 3)
    for support in (100, 1000, 4000):
        cases[f"micro.advance.support{support}"] = _advance_case(stepper, support, 1.0)
    return {name: per_call_ms(fn) for name, fn in cases.items()}
