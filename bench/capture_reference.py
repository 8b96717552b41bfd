"""Capture the reference outputs that the benchmark checks solves against.

    python3 bench/capture_reference.py [WORKLOAD ...]

Solves the games of each named workload (all of them by default)
with the default `SolverConfig` and writes the equilibrium waits and
arrival CDFs, with full float digits, to
`bench/reference/<workload>.json`. Rerun it only on purpose: the
benchmark then checks against the outputs of the code it ran on.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arrivalgames.solver import SolverConfig, iterated_best_response  # noqa: E402

import workloads  # noqa: E402

OUT = Path(__file__).resolve().parent / "reference"


def capture(name: str) -> dict:
    solves = []
    for game in workloads.build(name):
        sa, sb, rep = iterated_best_response(game, SolverConfig())
        solves.append(
            {
                "game": workloads.describe(game),
                "wbar_a": rep.wbar_a,
                "wbar_b": rep.wbar_b,
                "cdf_a": sa.cdf().tolist(),
                "cdf_b": sb.cdf().tolist(),
                "iterations": rep.iterations,
                "stalled": rep.stalled,
            }
        )
    return {"workload": name, "solves": solves}


def main(names: list[str]) -> None:
    OUT.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        path = OUT / f"{name}.json"
        path.write_text(json.dumps(capture(name), indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
