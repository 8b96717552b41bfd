"""Scenario-driven command line front end.

A scenario is an INI file with a ``[scenario]`` block naming the mode and
parameter blocks for that mode. A block may hold only the fields that
some mode reads from it, and a mode reads only the fields it uses: of
``[game]``, only ``discrete_br`` reads ``lambda_a`` and ``lambda_b``
(the other modes take the populations from ``[signal]``), and ``signal``
reads neither ``tau`` nor ``slots``. Results are written as CSV tables
of arrival CDFs plus a key-value summary, atomically (temp file +
rename), so a failed run leaves no partial outputs. Each solve's summary
lines include the gate it was accepted at (``tol``) and the verdict
there (``passed``).

Exit codes: 0 success, 2 scenario parse/validation error (also an
unknown block, an unknown field in any block and a ``[DEFAULT]`` block,
in the file or as an override, and a scenario file that cannot be read
or an ``--out`` that cannot be used as a directory; no outputs written),
3 a solve that did not converge to a pair that passes verification
(outputs still written), 4 invalid model parameters, including a NaN or
infinite population, a NaN or infinite ``[solver]`` value or ``[abm]``
sigmoid parameter, a negative seed in any mode, a count past the float
range, a fluid ``grid_n`` below 2, a fluid ``case`` that is unknown or
does not apply, a signal that is never observed where its posterior is
needed and a model past the workload kernel's support budget (no
outputs written), 5 numerical failure of the solver (no outputs
written).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import abm as abm_mod
from . import fluid as fluid_mod
from .dists import ServiceDist, _count, make_deterministic, make_geometric, make_geometric_mixture
from .signals import SignalParams, posterior_views
from .solver import (
    NumericFailure,
    SolverConfig,
    iterated_best_response,
    solve_fr,
)
from .workload import SlotGame

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INVALID_PARAMS = 4
EXIT_NUMERIC_FAILURE = 5


# What a mode runner returns: the summary pairs, and the report of every
# solve in the run.
_Outcome = tuple[list[tuple[str, object]], list]


class ScenarioError(ValueError):
    """Scenario file is malformed or inconsistent."""


# The fields each block may hold: the union over the modes that read it.
_FIELDS = {
    "scenario": {"mode", "seed"},
    "fluid": {"lambda_a", "lambda_b", "mu_a", "mu_b", "horizon", "grid_n", "case"},
    "game": {
        "lambda_a", "lambda_b", "tau", "slots", "service", "chi_a", "chi_b",
        "cv_a", "cv_b", "cv_scale",
    },
    "signal": {"lambda", "p", "q"},
    "solver": {"eps", "max_outer"},
    "abm": {"pool", "days", "c1", "c2"},
}


@dataclass
class Scenario:
    mode: str
    seed: int
    sections: configparser.ConfigParser

    def get(self, section: str, key: str, cast, default=None):
        if not self.sections.has_option(section, key):
            if default is not None:
                return default
            if not self.sections.has_section(section):
                raise ScenarioError(f"mode {self.mode!r} needs a [{section}] block")
            raise ScenarioError(f"missing field [{section}] {key}")
        raw = self.sections.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ScenarioError(f"bad value for [{section}] {key}: {raw!r}") from exc


def load_scenario(path: str | Path, overrides: list[str] = (), seed: int | None = None) -> Scenario:
    # Values are literal: a "%" is a character, not an interpolation. No
    # header can name the empty default section, so a [DEFAULT] block is
    # an ordinary block, which the field rule rejects.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None, default_section=""
    )
    text = Path(path)
    if not text.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        with open(text) as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc
    for item in overrides:
        key, _, value = item.partition("=")
        section, _, field = (part.strip() for part in key.partition("."))
        value = value.strip()
        if not (section and field and value):
            raise ScenarioError(f"override must look like section.key=value, got {item!r}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, field, value)
    for section in parser.sections():
        if section not in _FIELDS:
            raise ScenarioError(f"unknown block [{section}]")
        unknown = sorted(set(parser.options(section)) - _FIELDS[section])
        if unknown:
            raise ScenarioError(f"unknown field(s) in [{section}]: {', '.join(unknown)}")
    if not parser.has_section("scenario"):
        raise ScenarioError("scenario file needs a [scenario] block")
    mode = parser.get("scenario", "mode", fallback=None)
    if mode not in MODES:
        raise ScenarioError(f"[scenario] mode must be one of {MODES}, got {mode!r}")
    scn = Scenario(mode, 0, parser)
    scn.seed = _count(scn.get("scenario", "seed", int, 0) if seed is None else seed, "seed", 0)
    return scn


def _service(scn: Scenario, which: str) -> ServiceDist:
    family = scn.get("game", "service", str)
    chi = scn.get("game", f"chi_{which}", float)
    if family == "deterministic":
        return make_deterministic(chi)
    if family == "geometric":
        return make_geometric(chi)
    if family == "mixture":
        # The builder checks the mean before the CV, so a bad mean reads NaN
        # here and fails with its own message.
        scale = scn.get("game", "cv_scale", float, 2.0)
        cv = scale * math.sqrt(1.0 - 1.0 / chi) if chi >= 1.0 else math.nan
        return make_geometric_mixture(chi, scn.get("game", f"cv_{which}", float, cv))
    raise ScenarioError(f"unknown service family {family!r}")


def _slots(scn: Scenario) -> tuple[int, int]:
    """Slot length and slot count from [game]."""
    return scn.get("game", "tau", int), scn.get("game", "slots", int)


def _signal_params(scn: Scenario) -> SignalParams:
    return SignalParams(
        lam=scn.get("signal", "lambda", float),
        p=scn.get("signal", "p", float),
        q=scn.get("signal", "q", float),
        x_a=_service(scn, "a"),
        x_b=_service(scn, "b"),
    )


def _solver_config(scn: Scenario) -> SolverConfig:
    return SolverConfig(
        eps=scn.get("solver", "eps", float, SolverConfig.eps),
        max_outer=scn.get("solver", "max_outer", int, SolverConfig.max_outer),
    )


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return " ".join(map(_fmt, value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cdf_table(times: np.ndarray, f_a: np.ndarray, f_b: np.ndarray) -> list[str]:
    rows = zip(times, f_a, f_b)
    return ["time,F_a,F_b"] + [",".join(repr(float(v)) for v in row) for row in rows]


def _report_pairs(prefix: str, rep) -> list[tuple[str, object]]:
    return [
        (f"{prefix}.wbar_a", rep.wbar_a),
        (f"{prefix}.wbar_b", rep.wbar_b),
        (f"{prefix}.iterations", rep.iterations),
        (f"{prefix}.converged", rep.converged),
        (f"{prefix}.max_support_spread", rep.max_support_spread),
        (f"{prefix}.max_offsupport_violation", rep.max_offsupport_violation),
        (f"{prefix}.monotonicity_violations", rep.monotonicity_violations),
        (f"{prefix}.tol", rep.tol),
        (f"{prefix}.passed", rep.passed),
    ]


def _run_fluid(scn: Scenario, outputs: dict) -> _Outcome:
    params = fluid_mod.FluidParams(
        lam_a=scn.get("fluid", "lambda_a", float),
        lam_b=scn.get("fluid", "lambda_b", float),
        mu_a=scn.get("fluid", "mu_a", float),
        mu_b=scn.get("fluid", "mu_b", float),
        horizon=scn.get("fluid", "horizon", float),
    )
    cases = fluid_mod.solve_cases(params)
    tags = sorted(cases, key=fluid_mod.CASE_TAGS.index)
    wanted = scn.get("fluid", "case", str, "auto")
    tag = tags[0] if wanted == "auto" else wanted
    if tag not in fluid_mod.CASE_TAGS:
        raise ValueError(f"unknown case tag {tag!r}")
    if tag not in cases:
        raise ValueError(f"case {tag!r} does not apply at these parameters")
    eq = cases[tag]
    grid_n = scn.get("fluid", "grid_n", int, 1001)
    violation = fluid_mod.verify_fluid(params, eq, grid_n)
    grid = fluid_mod._verification_grid(eq, grid_n)
    outputs["cdf.csv"] = _cdf_table(grid, eq.cdf("a", grid), eq.cdf("b", grid))
    pairs = [
        ("mode", "fluid"),
        ("cases.classified", " ".join(tags)),
        ("cases.solved", tag),
        ("atom_a", eq.atom_a),
        ("atom_b", eq.atom_b),
        ("q0", eq.q0),
        ("non_unique", eq.non_unique),
        ("verify.max_violation", violation),
    ]
    for side in ("a", "b"):
        for i, seg in enumerate(eq.segments(side)):
            pairs.append((f"segment_{side}{i}", f"{seg.start!r}:{seg.end!r}:{seg.density!r}"))
    return pairs, []


def _slot_times(tau: int, n_slots: int) -> np.ndarray:
    return np.arange(n_slots, dtype=float) * tau


def _run_discrete_br(scn: Scenario, outputs: dict) -> _Outcome:
    tau, n_slots = _slots(scn)
    game = SlotGame(
        lam_a=scn.get("game", "lambda_a", float),
        lam_b=scn.get("game", "lambda_b", float),
        tau=tau,
        n_slots=n_slots,
        x_a=_service(scn, "a"),
        x_b=_service(scn, "b"),
    )
    pa, pb, rep = iterated_best_response(game, _solver_config(scn))
    outputs["cdf.csv"] = _cdf_table(_slot_times(tau, n_slots), pa.cdf(), pb.cdf())
    return [("mode", "discrete_br")] + _report_pairs("br", rep), [rep]


def _run_discrete_fr(scn: Scenario, outputs: dict) -> _Outcome:
    sig = _signal_params(scn)
    tau, n_slots = _slots(scn)
    cfg = _solver_config(scn)
    pa, pb, (rep_a, rep_b) = solve_fr(sig, tau, n_slots, cfg)
    view_a, view_b = posterior_views(sig)
    outputs["cdf.csv"] = _cdf_table(_slot_times(tau, n_slots), pa.cdf(), pb.cdf())
    pairs = [
        ("mode", "discrete_fr"),
        ("posterior.nu_a", view_a.nu),
        ("posterior.nu_b", view_b.nu),
        ("posterior.zeta_a", view_a.zeta),
        ("posterior.zeta_b", view_b.zeta),
    ]
    pairs += _report_pairs("fr_a", rep_a) + _report_pairs("fr_b", rep_b)
    return pairs, [rep_a, rep_b]


def _abm_config(scn: Scenario, sig: SignalParams, tau: int, n_slots: int) -> abm_mod.AbmConfig:
    return abm_mod.AbmConfig(
        sig,
        tau,
        n_slots,
        pool=scn.get("abm", "pool", int),
        days=scn.get("abm", "days", int),
        c1=scn.get("abm", "c1", float, abm_mod.AbmConfig.c1),
        c2=scn.get("abm", "c2", float, abm_mod.AbmConfig.c2),
        seed=scn.seed,
    )


def _run_abm(scn: Scenario, outputs: dict) -> _Outcome:
    sig = _signal_params(scn)
    tau, n_slots = _slots(scn)
    res = abm_mod.run_abm(_abm_config(scn, sig, tau, n_slots))
    outputs["cdf.csv"] = _cdf_table(_slot_times(tau, n_slots), res.cdf("a"), res.cdf("b"))
    return [
        ("mode", "abm"),
        ("abm.days", res.days),
        ("abm.wbar_a", float(res.wbar_pop[0])),
        ("abm.wbar_b", float(res.wbar_pop[1])),
        ("abm.contributing_a", int(res.contributing[0])),
        ("abm.contributing_b", int(res.contributing[1])),
    ], []


def _run_compare(scn: Scenario, outputs: dict) -> _Outcome:
    """Bounded-rational, fully-rational and learning outcomes side by side.
    The ``[abm]`` block and the signal posterior are checked before the
    first solve."""
    sig = _signal_params(scn)
    tau, n_slots = _slots(scn)
    cfg = _solver_config(scn)
    abm_cfg = _abm_config(scn, sig, tau, n_slots)
    lam_a, lam_b = (sig.lam * view.marginal for view in posterior_views(sig))
    game_br = SlotGame(lam_a, lam_b, tau, n_slots, sig.x_a, sig.x_b)
    pa_br, pb_br, rep_br = iterated_best_response(game_br, cfg)
    pa_fr, pb_fr, (rep_fr_a, rep_fr_b) = solve_fr(sig, tau, n_slots, cfg)
    res = abm_mod.run_abm(abm_cfg)
    times = _slot_times(tau, n_slots)
    outputs["cdf_br.csv"] = _cdf_table(times, pa_br.cdf(), pb_br.cdf())
    outputs["cdf_fr.csv"] = _cdf_table(times, pa_fr.cdf(), pb_fr.cdf())
    outputs["cdf_abm.csv"] = _cdf_table(times, res.cdf("a"), res.cdf("b"))
    sup = lambda x, y: float(np.max(np.abs(x - y)))
    pairs = [("mode", "compare"), ("lambda_a", game_br.lam_a), ("lambda_b", game_br.lam_b)]
    pairs += _report_pairs("br", rep_br)
    pairs += _report_pairs("fr_a", rep_fr_a) + _report_pairs("fr_b", rep_fr_b)
    pairs += [
        ("abm.wbar_a", float(res.wbar_pop[0])),
        ("abm.wbar_b", float(res.wbar_pop[1])),
        ("dist.abm_vs_br_a", sup(res.cdf("a"), pa_br.cdf())),
        ("dist.abm_vs_br_b", sup(res.cdf("b"), pb_br.cdf())),
        ("dist.abm_vs_fr_a", sup(res.cdf("a"), pa_fr.cdf())),
        ("dist.abm_vs_fr_b", sup(res.cdf("b"), pb_fr.cdf())),
    ]
    return pairs, [rep_br, rep_fr_a, rep_fr_b]


def _run_signal(scn: Scenario, outputs: dict) -> _Outcome:
    sig = _signal_params(scn)
    view_a, view_b = posterior_views(sig)
    return [
        ("mode", "signal"),
        ("marginal_a", view_a.marginal),
        ("marginal_b", view_b.marginal),
        ("nu_a", view_a.nu),
        ("nu_b", view_b.nu),
        ("eta_a", view_a.eta),
        ("eta_b", view_b.eta),
        ("zeta_a", view_a.zeta),
        ("zeta_b", view_b.zeta),
    ], []


_RUNNERS = {
    "fluid": _run_fluid,
    "discrete_br": _run_discrete_br,
    "discrete_fr": _run_discrete_fr,
    "abm": _run_abm,
    "compare": _run_compare,
    "signal": _run_signal,
}
MODES = tuple(_RUNNERS)


def _write_atomic(out_dir: Path, files: dict[str, list[str]]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    staged, placed = [], []
    try:
        for name, lines in files.items():
            fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
            staged.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
        for tmp, name in zip(staged, files):
            os.replace(tmp, out_dir / name)
            placed.append(out_dir / name)
    except BaseException:
        # A failed run leaves no temp files and none of its outputs.
        for path in staged + placed:
            if os.path.exists(path):
                os.unlink(path)
        raise


def run_scenario(scn: Scenario, out_dir: str | Path) -> int:
    outputs: dict[str, list[str]] = {}
    pairs, reports = _RUNNERS[scn.mode](scn, outputs)
    pairs = [("seed", scn.seed)] + pairs
    outputs["summary.txt"] = [f"{key} = {_fmt(value)}" for key, value in pairs]
    _write_atomic(Path(out_dir), outputs)
    if not all(rep.converged for rep in reports):
        head = "solver did not converge:"
        print(head, *outputs["summary.txt"], sep="\n", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="arrivalgames")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario file")
    runp.add_argument("scenario")
    runp.add_argument("--out", default="out", help="output directory")
    runp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    runp.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a scenario field (repeatable)",
    )
    args = parser.parse_args(argv)
    try:
        return run_scenario(load_scenario(args.scenario, args.override, args.seed), args.out)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS
    except NumericFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
