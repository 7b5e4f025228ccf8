"""Command-line entry point: parse an input session, run its commands, and
emit a deterministic JSON or text report.

Exit codes: 0 when every command ran (negative verdicts included); 1 on
usage, parse, or per-command input errors; 2 when an internal guard tripped
(unstabilized colimit entries, saturation cap).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import time

from . import __version__
from .dsl import Command, Session, parse_session
from .errors import FormringError, ParseError, SaturationLimitError
from .graded import GradedQuotientRing
from .groebner import Ideal, initial_forms_ideal
from .koszul import KoszulComplexSpec, cochain_dim, koszul_cohomology_piece
from .localcoh import CohomologyTable, StabilizationConfig, local_coh_table
from .descent import (degree_gap_check, descent_verdict, local_h0_report,
                      quasi_buchsbaum_test, stuckrad_test, two_diagonal_check)
from .poly import PolyRing, is_prime


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _parse_window(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise _UsageError(f"--window expects LO..HI, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise _UsageError(f"--window range {lo}..{hi} is empty")
    return lo, hi


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="formring",
        description="Graded-ring cohomology checker: tangent cones, "
                    "stabilized local cohomology tables, and descent "
                    "criteria over prime fields.")
    parser.add_argument("input", nargs="?", default="-",
                        help="input file path, or - for stdin (default)")
    parser.add_argument("--char", type=int, default=None,
                        help="default characteristic when the session "
                             "declares none")
    parser.add_argument("--window", type=str, default=None, metavar="LO..HI",
                        help="default degree window for table commands")
    parser.add_argument("--tmax", type=int, default=None,
                        help="default power bound for colimit stabilization")
    parser.add_argument("--margin", type=int, default=None,
                        help="default trailing-isomorphism run length")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default json)")
    parser.add_argument("--timing", action="store_true",
                        help="report real elapsed milliseconds (off by "
                             "default so reruns are byte-identical)")
    parser.add_argument("--version", action="store_true",
                        help="print version and exit")
    return parser


@dataclasses.dataclass
class RunConfig:
    window: tuple[int, int] | None = None
    t_max: int | None = None
    margin: int | None = None
    timing: bool = False


def _expand_r(cmd: Command) -> list[int | None]:
    value = cmd.option("r")
    if value is None:
        return [None]
    if isinstance(value, tuple):
        return list(range(value[0], value[1] + 1))
    return [value]


def _instance_command(cmd: Command, r: int | None) -> Command:
    if r is None or not isinstance(cmd.option("r"), tuple):
        return cmd
    options = tuple((k, r if k == "r" else v) for k, v in cmd.options)
    return Command(cmd.name, cmd.target, options, cmd.check,
                   cmd.line, cmd.col)


def _stabilization_config(G: GradedQuotientRing, cmd: Command,
                          config: RunConfig) -> StabilizationConfig:
    """The ring's defaults, overridden by each option the command or a flag
    sets; the command's own option wins."""
    window = cmd.option("window", config.window) or (None, None)
    overrides = {"t_max": cmd.option("tmax", config.t_max),
                 "margin": cmd.option("margin", config.margin),
                 "n_lo": window[0], "n_hi": window[1]}
    return dataclasses.replace(
        StabilizationConfig.default_for(G),
        **{k: v for k, v in overrides.items() if v is not None})


def _outcome(status: str, data: dict, witnesses: list | None = None,
             window: list | None = None) -> dict:
    return {"status": status, "data": data, "witnesses": witnesses or [],
            "window": window}


def _verdict_outcome(verdict, table: CohomologyTable) -> dict:
    data = dict(verdict.data)
    data["detail"] = verdict.detail
    data["scope"] = verdict.scope
    return _outcome(verdict.status, data, verdict.witnesses,
                    [table.cfg.n_lo, table.cfg.n_hi])


def _run_instance(session: Session, ring: PolyRing | None, cmd: Command,
                  r: int | None, config: RunConfig) -> dict:
    """One materialized command -> (status, data, witnesses, window)."""
    if cmd.target in session.tables:
        table = CohomologyTable.synthetic_from(
            session.tables[cmd.target].as_dict())
        checker = degree_gap_check if cmd.name == "gap" else two_diagonal_check
        return _verdict_outcome(
            checker(table, cmd.option("t", table.i_max + 1)), table)

    if ring is None:
        raise FormringError(
            "no ring is available: declare char and vars before commands")
    decl = session.ideals[cmd.target]
    gens = [p.materialize(ring, r) for p in decl.polynomials]
    ideal = Ideal(ring, tuple(g for g in gens if not g.is_zero()))

    # ahead of the cone, so the irrelevant-ideal error keeps localh0's wording
    if cmd.name == "localh0":
        return _outcome("ok", local_h0_report(ideal).to_dict())

    cone = initial_forms_ideal(ideal)
    if cmd.name == "tangent_cone":
        return _outcome("ok", {
            "input_generators": [str(g) for g in ideal.generators],
            "cone_generators": [str(g) for g in cone.generators]})

    G = GradedQuotientRing(cone)
    if cmd.name == "koszul":
        i = cmd.option("i")
        n = cmd.option("n")
        t = cmd.option("t", 1)
        spec = KoszulComplexSpec(G, t)
        return _outcome("ok", {"i": i, "n": n, "t": t,
                               "dim": koszul_cohomology_piece(spec, i, n).dim,
                               "cochain_dim": cochain_dim(spec, i, n)})

    cfg = _stabilization_config(G, cmd, config)
    window = [cfg.n_lo, cfg.n_hi]
    if cmd.name == "cor41":
        report = descent_verdict(ideal, cfg=cfg)
        inner = [report.two_diagonal, report.gap, report.g_buchsbaum,
                 report.g_quasi_buchsbaum, report.length_0]
        status = ("inconclusive"
                  if any(v.inconclusive for v in inner) else "ok")
        return _outcome(status, report.to_dict(), window=window)

    m = G.ring.nvars
    if cmd.name == "table":
        i_max = cmd.option("imax", m)
    elif cmd.name in ("gap", "diag"):
        t = cmd.option("t", G.krull_dimension())
        i_max = min(t, m)
    elif cmd.name in ("stuckrad", "quasibuchsbaum"):
        i_max = max(G.krull_dimension() - 1, 0)
    else:
        raise FormringError(f"unhandled command {cmd.name!r}")
    table = local_coh_table(G, i_max, cfg)

    if cmd.name == "table":
        unstable = sorted([e.i, e.n] for e in table.entries.values()
                          if not e.stabilized)
        return _outcome("inconclusive" if unstable else "ok",
                        {"dims": table.as_rows(),
                         "nonzero": table.nonzero_rows(),
                         "unstable": unstable, "i_max": table.i_max},
                        window=window)
    if cmd.name in ("stuckrad", "quasibuchsbaum"):
        test = stuckrad_test if cmd.name == "stuckrad" else quasi_buchsbaum_test
        return _verdict_outcome(test(G, table), table)
    checker = degree_gap_check if cmd.name == "gap" else two_diagonal_check
    outcome = _verdict_outcome(checker(table, t), table)
    outcome["data"]["t"] = t
    return outcome


def run_session(session: Session, config: RunConfig | None = None) -> dict:
    """Execute all commands; per-command failures never stop the run."""
    config = config or RunConfig()
    ring = None
    if session.variables and session.characteristic is not None:
        ring = PolyRing(session.variables, session.characteristic)
    results = []
    for cmd in session.commands:
        for r in _expand_r(cmd):
            instance = _instance_command(cmd, r)
            started = time.monotonic()
            try:
                outcome = _run_instance(session, ring, instance, r, config)
            except (FormringError, ValueError) as exc:
                status = ("guard" if isinstance(exc, SaturationLimitError)
                          else "error")
                outcome = _outcome(status, {"message": str(exc),
                                            "kind": type(exc).__name__})
            elapsed_ms = int((time.monotonic() - started) * 1000)
            results.append({
                "command": instance.render(),
                "status": outcome["status"],
                "data": outcome["data"],
                "witnesses": outcome["witnesses"],
                "window": outcome["window"],
                "timing_ms": elapsed_ms if config.timing else 0,
            })
    return {"version": __version__, "results": results}


def exit_code_for(results: list[dict]) -> int:
    statuses = {entry["status"] for entry in results}
    if statuses & {"guard", "inconclusive"}:
        return 2
    if "error" in statuses:
        return 1
    return 0


def render_text(report: dict) -> str:
    lines = [f"formring {report['version']}"]
    cfg = report["config"]
    lines.append("config: " + " ".join(
        f"{k}={json.dumps(cfg[k], sort_keys=True)}" for k in sorted(cfg)))
    for entry in report["results"]:
        lines.append("")
        lines.append(f"== {entry['command']} ==")
        lines.append(f"status: {entry['status']}")
        if entry["window"] is not None:
            lines.append(f"window: {entry['window'][0]}..{entry['window'][1]}")
        for key in sorted(entry["data"]):
            lines.append(
                f"{key}: {json.dumps(entry['data'][key], sort_keys=True)}")
        if entry["witnesses"]:
            lines.append(
                "witnesses: " + json.dumps(entry["witnesses"],
                                           sort_keys=True))
        if entry["timing_ms"]:
            lines.append(f"timing_ms: {entry['timing_ms']}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.version:
            print(f"formring {__version__}")
            return 0
        if args.char is not None and not is_prime(args.char):
            raise _UsageError(f"--char {args.char} is not prime")
        window = _parse_window(args.window) if args.window else None
        if args.tmax is not None and args.tmax < 2:
            raise _UsageError("--tmax must be at least 2")
        if args.margin is not None and args.margin < 1:
            raise _UsageError("--margin must be at least 1")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.input == "-":
        text = sys.stdin.read()
        source = "<stdin>"
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
            source = args.input
        except OSError as exc:
            print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
            return 1

    try:
        session = parse_session(text, default_characteristic=args.char)
    except ParseError as exc:
        print(f"{source}:{exc.line}:{exc.col}: error: {exc.message}",
              file=sys.stderr)
        return 1

    config = RunConfig(window=window, t_max=args.tmax, margin=args.margin,
                       timing=args.timing)
    report = run_session(session, config)
    report["config"] = {
        "char": session.characteristic,
        "format": args.format,
        "margin": args.margin,
        "timing": args.timing,
        "tmax": args.tmax,
        "window": list(window) if window else None,
    }

    if args.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(render_text(report))
    return exit_code_for(report["results"])


if __name__ == "__main__":
    sys.exit(main())
