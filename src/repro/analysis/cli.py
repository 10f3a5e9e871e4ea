"""Command-line front-end: ``python -m repro.analysis [PASS] <paths>``.

``PASS`` names an entry of the :mod:`.passes` registry (default ``lint``),
``all`` for every static pass with one merged report, or ``race`` for the
concurrency analysis, which has its own front-end (:mod:`.race.cli`).
Every static pass shares this one parser and reporting path: text or JSON
on stdout, ``--sarif FILE`` for a SARIF 2.1.0 log, ``--select`` /
``--ignore`` / ``--config`` for rule selection.  Exit status: 0 when
clean, 1 when findings were reported, 2 on usage errors (including a
``--select`` / ``--ignore`` pattern that names no rule).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .aggregate import merged_findings, run_all, to_aggregate_json
from .config import AnalysisConfig, check_patterns, find_pyproject, load_config
from .findings import RULES, to_json
from .flow.dot import to_dot
from .passes import PASSES
from .program import Program
from .sarif import write_sarif


def _build_parser(name: str) -> argparse.ArgumentParser:
    if name == "all":
        description = (
            f"Run every static analysis pass ({', '.join(PASSES)}) over the "
            "tree with one merged report and one exit code; --wiring-examples "
            "DIR folds in wiring verification (W*) of example assemblies."
        )
    else:
        rule_ids = PASSES[name].rule_ids()
        description = (
            f"{PASSES[name].description} (rules {rule_ids[0]}-{rule_ids[-1]})."
        )
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis" + ("" if name == "lint" else f" {name}"),
        description=description,
        epilog=(
            "passes: python -m repro.analysis [{"
            + ",".join([*PASSES, "all", "race"])
            + "}] ...; bare paths run the lint"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (directories are walked recursively)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--sarif",
        type=str,
        default=None,
        metavar="FILE",
        help="additionally write a SARIF 2.1.0 log ('-' for stdout)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule prefixes to enable (e.g. A001,W)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule prefixes to disable",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        metavar="PYPROJECT",
        help="pyproject.toml to read [tool.repro.analysis] from "
        "(default: nearest one above the first path)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    if name == "flow":
        parser.add_argument(
            "--dot",
            type=str,
            default=None,
            metavar="FILE",
            help="write the event-flow graph as Graphviz DOT ('-' for stdout)",
        )
    if name == "all":
        parser.add_argument(
            "--wiring-examples",
            type=Path,
            default=None,
            metavar="DIR",
            help="assemble every WIRING_ROOT script in DIR and verify wiring",
        )
    return parser


def _split_csv(values: Optional[Sequence[str]]) -> tuple[str, ...]:
    out: list[str] = []
    for value in values or ():
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return tuple(out)


def _load_config(args: argparse.Namespace) -> AnalysisConfig:
    """File config with the CLI overrides applied; ValueError on bad input."""
    pyproject = args.config
    if pyproject is None:
        pyproject = find_pyproject(args.paths[0])
    try:
        config = load_config(pyproject) if pyproject else AnalysisConfig()
    except Exception as exc:  # noqa: BLE001 - report config errors as usage errors
        raise ValueError(f"bad config {pyproject}: {exc}") from exc
    select, ignore = _split_csv(args.select), _split_csv(args.ignore)
    check_patterns(select, "--select")
    check_patterns(ignore, "--ignore")
    return config.merged(
        select=select if args.select else None,
        ignore=ignore if args.ignore else None,
    )


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "race":
        # Concurrency analysis has its own front-end, imported lazily so
        # the static passes (and their importers) never pay for the
        # simulation stack.
        from .race.cli import main as race_main

        return race_main(argv[1:])
    name = argv.pop(0) if argv and (argv[0] in PASSES or argv[0] == "all") else "lint"

    parser = _build_parser(name)
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id].summary}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        return _usage_error("no paths given (or use --list-rules)")
    for path in args.paths:
        if not path.exists():
            return _usage_error(f"no such path: {path}")
    wiring = getattr(args, "wiring_examples", None)
    if wiring is not None and not wiring.is_dir():
        return _usage_error(f"not a directory: {wiring}")
    try:
        config = _load_config(args)
    except ValueError as exc:
        return _usage_error(str(exc))

    if name == "all":
        per_pass = run_all(args.paths, config=config, wiring_examples=wiring)
        findings = merged_findings(per_pass)
    else:
        program = Program(args.paths, config)
        findings = program.report(PASSES[name].run)

    if args.sarif is not None:
        write_sarif(findings, args.sarif)
    if getattr(args, "dot", None) is not None:
        dot = to_dot(program.flow, files=set(program.scanned), title="event-flow")
        if args.dot == "-":
            sys.stdout.write(dot)
        else:
            Path(args.dot).write_text(dot, encoding="utf-8")

    if args.format == "json":
        print(to_aggregate_json(per_pass) if name == "all" else to_json(findings))
    else:
        for finding in findings:
            print(finding.format())
        if name == "all":
            totals = ", ".join(f"{n}: {len(f)}" for n, f in per_pass.items())
            print(f"{len(findings)} finding(s) ({totals})")
        elif findings:
            print(f"\n{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
