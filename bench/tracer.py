"""Outside-in trace of the `dists`, `workload` and `solver` layers.

`Tracer.install()` replaces the public functions of the three modules
with timing wrappers, at every name through which the library calls
them, and `uninstall()` puts the originals back. Nothing under `src/` is
edited. Each wrapper keeps a span stack, so a layer's self time is its
inclusive time minus the time of the wrapped calls made inside it.
Spans are aggregated in memory as they close (calls, inclusive and self
seconds per layer), because the 240-slot solve makes about a million of
them.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from arrivalgames import dists, solver, workload

# Layer name -> the (owner, attribute) slots the library calls it through.
# `workload` and `solver` import names from the modules below them, so
# each such import is a separate slot that must be wrapped as well.
TARGETS = {
    "dists.pmf_build": [(dists.Pmf, "__post_init__")],
    "dists.compound_poisson": [(dists, "compound_poisson"), (workload, "compound_poisson")],
    "dists.convolve": [(dists, "convolve"), (workload, "convolve")],
    "dists.service_build": [
        (dists, "make_deterministic"),
        (dists, "make_geometric"),
        (dists, "make_geometric_mixture"),
    ],
    "workload.advance": [(workload.WorkloadStepper, "advance")],
    "workload.profile": [(workload, "workload_profile"), (solver, "workload_profile")],
    "solver.best_response": [(solver, "best_response")],
    "solver.verify": [(solver, "verify_equilibrium")],
    "solver.iterated": [(solver, "iterated_best_response")],
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self.cp_len_sum = 0
        self.support_sum = 0
        self.support_max = 0
        self.advances_in_response = 0
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _observe(self, name: str, out) -> None:
        if name == "dists.compound_poisson":
            self.cp_len_sum += len(out)
        elif name == "workload.advance":
            n = len(out.v)
            self.support_sum += n
            self.support_max = max(self.support_max, n)
            if self.active["solver.best_response"]:
                self.advances_in_response += 1

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Nested calls of one layer (a mixture service building its
            # geometric fallback, a split compound-Poisson law) count once
            # in the inclusive time.
            outermost = self.active[name] == 0
            self.active[name] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.active[name] -= 1
                self.calls[name] += 1
                self.self_seconds[name] += dt - frame[0]
                if outermost:
                    self.seconds[name] += dt
            self._observe(name, out)
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for name, slots in TARGETS.items():
            for owner, attr in slots:
                fn = getattr(owner, attr)
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(name, fn)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped[fn])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer numbers of everything traced so far, with units."""
        c, s, ss = self.calls, self.seconds, self.self_seconds
        return {
            "dists.compound_poisson.calls": (c["dists.compound_poisson"], "count"),
            "dists.compound_poisson.s": (s["dists.compound_poisson"], "s"),
            "dists.compound_poisson.len_mean": (
                self.cp_len_sum / max(c["dists.compound_poisson"], 1),
                "entries",
            ),
            "dists.convolve.calls": (c["dists.convolve"], "count"),
            "dists.convolve.s": (s["dists.convolve"], "s"),
            "dists.pmf_build.calls": (c["dists.pmf_build"], "count"),
            "dists.pmf_build.s": (s["dists.pmf_build"], "s"),
            "dists.service_build.s": (s["dists.service_build"], "s"),
            "workload.advance.calls": (c["workload.advance"], "count"),
            "workload.advance.self_s": (ss["workload.advance"], "s"),
            "workload.support_mean": (self.support_sum / max(c["workload.advance"], 1), "entries"),
            "workload.support_max": (self.support_max, "entries"),
            "workload.profile.s": (s["workload.profile"], "s"),
            "solver.best_response.calls": (c["solver.best_response"], "count"),
            "solver.best_response.self_s": (ss["solver.best_response"], "s"),
            "solver.advances_per_response": (
                self.advances_in_response / max(c["solver.best_response"], 1),
                "count",
            ),
            "solver.verify.s": (s["solver.verify"], "s"),
            "solver.iterated.s": (s["solver.iterated"], "s"),
            "solver.iterated.self_s": (ss["solver.iterated"], "s"),
        }
