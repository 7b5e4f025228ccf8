"""Command-line entry point: parse an input session, run its commands, and
emit a deterministic JSON or text report.

`--char` and `--window` fill in a characteristic or a window that the
session leaves unset.  The commands' `tmax=` and `margin=` options are only
echoed in verdict scopes: every entry is read exactly at its settle power.

Exit codes: 0 when every command ran (negative verdicts included); 1 on
usage, parse, or per-command input errors; 2 when an internal guard tripped
(saturation cap, an `r` range over its cap, a dense Koszul matrix over its
size cap).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import time
from typing import Callable

from . import __version__
from .dsl import Command, Session, parse_session
from .errors import (FormringError, ParseError, RangeLimitError,
                     SaturationLimitError, SizeLimitError)
from .graded import GradedQuotientRing
from .groebner import Ideal, initial_forms_ideal
from .koszul import KoszulComplexSpec, cochain_dim, koszul_cohomology_piece
from .localcoh import CohomologyTable, StabilizationConfig, local_coh_table
from .descent import (degree_gap_check, descent_verdict, local_h0_report,
                      quasi_buchsbaum_test, stuckrad_test, two_diagonal_check)
from .poly import PolyRing, check_characteristic


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
    timing: bool = False


# most values one `r=LO..HI` range may expand to; a longer range is a guard
MAX_R_VALUES = 64


def _expand_r(cmd: Command) -> list[int | None]:
    value = cmd.option("r")
    if value is None:
        return [None]
    if isinstance(value, tuple):
        lo, hi = value
        if hi - lo + 1 > MAX_R_VALUES:
            raise RangeLimitError(lo, hi, MAX_R_VALUES)
        return list(range(lo, hi + 1))
    return [value]


def _instance_command(cmd: Command, r: int | None) -> Command:
    if r is None or not isinstance(cmd.option("r"), tuple):
        return cmd
    return dataclasses.replace(cmd, options=tuple(
        (k, r if k == "r" else v) for k, v in cmd.options))


def _stabilization_config(G: GradedQuotientRing, cmd: Command,
                          config: RunConfig) -> StabilizationConfig:
    """The ring's defaults, overridden by each option the command sets; the
    `--window` flag fills a window the command leaves unset."""
    window = cmd.option("window", config.window) or (None, None)
    overrides = {"t_max": cmd.option("tmax"), "margin": cmd.option("margin"),
                 "n_lo": window[0], "n_hi": window[1]}
    return dataclasses.replace(
        StabilizationConfig.default_for(G),
        **{k: v for k, v in overrides.items() if v is not None})


def _outcome(status: str, data: dict, witnesses: list | None = None,
             window: list | None = None) -> dict:
    return {"status": status, "data": data, "witnesses": witnesses or [],
            "window": window}


def _failure(exc: Exception) -> dict:
    guard = isinstance(exc, (SaturationLimitError, RangeLimitError,
                             SizeLimitError))
    return _outcome("guard" if guard else "error",
                    {"message": str(exc), "kind": type(exc).__name__})


def _verdict_outcome(verdict, table: CohomologyTable) -> dict:
    data = dict(verdict.data)
    data["detail"] = verdict.detail
    data["scope"] = verdict.scope
    return _outcome(verdict.status, data, verdict.witnesses,
                    [table.cfg.n_lo, table.cfg.n_hi])


def _run_instance(session: Session,
                  ideal_at: Callable[[str, int | None], Ideal],
                  cmd: Command, config: RunConfig) -> dict:
    """One materialized command -> (status, data, witnesses, window)."""
    if cmd.name in ("gap", "diag") and cmd.option("t", 0) < 0:
        # ahead of any table, whose rows would only garble the message
        raise ValueError(f"row bound t={cmd.option('t')} is negative")
    if cmd.target in session.tables:
        table = CohomologyTable.synthetic_from(
            session.tables[cmd.target].entries)
        checker = degree_gap_check if cmd.name == "gap" else two_diagonal_check
        return _verdict_outcome(
            checker(table, cmd.option("t", table.i_max + 1)), table)

    ideal = ideal_at(cmd.target, cmd.option("r"))
    # ahead of the cone, so the irrelevant-ideal error keeps localh0's wording
    if cmd.name == "localh0":
        return _outcome("ok", local_h0_report(ideal).to_dict())

    cone = initial_forms_ideal(ideal)
    if cmd.name == "tangent_cone":
        return _outcome("ok", {
            "input_generators": [str(g) for g in ideal.generators],
            "cone_generators": [str(g) for g in cone.generators]})

    G = GradedQuotientRing.of(cone)
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
        return _outcome("ok", descent_verdict(ideal, cfg=cfg).to_dict(),
                        window=window)

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
        # every entry is exact, so `unstable` is always empty; the key stays
        # in the report schema
        return _outcome("ok", {"dims": table.as_rows(),
                               "nonzero": table.nonzero_rows(),
                               "unstable": [], "i_max": table.i_max},
                        window=window)
    if cmd.name in ("stuckrad", "quasibuchsbaum"):
        test = stuckrad_test if cmd.name == "stuckrad" else quasi_buchsbaum_test
        return _verdict_outcome(test(G, table), table)
    checker = degree_gap_check if cmd.name == "gap" else two_diagonal_check
    outcome = _verdict_outcome(checker(table, t), table)
    outcome["data"]["t"] = t
    return outcome


def run_session(session: Session, config: RunConfig | None = None) -> dict:
    """Execute all commands; per-command failures never stop the run.

    Each (ideal name, r) is materialized once, on first use, and every later
    command on it gets the same Ideal, with its Groebner bases, its cone and
    the cone's graded ring.  Names cannot be redeclared, so the pair fixes
    the generators.  A report does not depend on which command came first;
    only `timing_ms` does, since the shared work counts toward the first
    command that needs it.
    """
    config = config or RunConfig()
    ring = None
    if session.variables and session.characteristic is not None:
        ring = PolyRing(session.variables, session.characteristic)
    ideals: dict[tuple[str, int | None], Ideal] = {}

    def ideal_at(name: str, r: int | None) -> Ideal:
        if ring is None:
            raise FormringError(
                "no ring is available: declare char and vars before commands")
        if (name, r) not in ideals:
            gens = [p.materialize(ring, r)
                    for p in session.ideals[name].polynomials]
            ideals[name, r] = Ideal(ring, tuple(g for g in gens
                                                if not g.is_zero()))
        return ideals[name, r]

    results = []
    for cmd in session.commands:
        try:
            values = _expand_r(cmd)
        except RangeLimitError as exc:
            results.append({"command": cmd.render(), **_failure(exc),
                            "timing_ms": 0})
            continue
        for r in values:
            instance = _instance_command(cmd, r)
            started = time.monotonic()
            try:
                outcome = _run_instance(session, ideal_at, instance, config)
            except (FormringError, ValueError) as exc:
                outcome = _failure(exc)
            elapsed_ms = int((time.monotonic() - started) * 1000)
            results.append({"command": instance.render(), **outcome,
                            "timing_ms": elapsed_ms if config.timing else 0})
    return {"version": __version__, "results": results}


def exit_code_for(results: list[dict]) -> int:
    statuses = {entry["status"] for entry in results}
    if "guard" in statuses:
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
        if args.char is not None:
            try:
                check_characteristic(args.char)
            except ValueError as exc:
                raise _UsageError(f"--char {exc}") from None
        window = _parse_window(args.window) if args.window else None
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

    config = RunConfig(window=window, timing=args.timing)
    report = run_session(session, config)
    report["config"] = {
        "char": session.characteristic,
        "format": args.format,
        "timing": args.timing,
        "window": list(window) if window else None,
    }

    if args.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(render_text(report))
    return exit_code_for(report["results"])


if __name__ == "__main__":
    sys.exit(main())
