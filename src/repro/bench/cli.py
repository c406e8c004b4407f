"""``python -m repro.bench`` — the harness command line.

Verbs::

    list                       show registered tasks (name, area, summary)
    run <task|area|all>        execute a subset, emit BENCH_<area>.json
    report                     render the BENCH_<area>.json files in a
                               directory as EXPERIMENTS.md (runs nothing)

``run`` selectors take a full task name (``protocols.scaling``),
an area (``protocols``), ``all``, or a comma-separated mix. Exit
codes: 0 success, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .registry import UnknownTaskError, all_tasks, select_tasks
from .report import load_payloads, render_payloads
from .runner import run_selection, write_bench_files
from .schema import dump_payload

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.bench`` argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Paper-table experiment report (see docs/BENCHMARKS.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="show registered tasks")
    p.add_argument("--area", default=None, help="only this area")

    p = sub.add_parser("run", help="execute tasks, emit BENCH_<area>.json")
    p.add_argument(
        "selector",
        help="task name, area, 'all', or a comma-separated mix",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke", dest="mode", action="store_const", const="smoke",
        help="tiny parameters (CI-sized; the default)",
    )
    mode.add_argument(
        "--full", dest="mode", action="store_const", const="full",
        help="real parameters (the scale of the committed files)",
    )
    mode.add_argument(
        "--mode", dest="mode", choices=("smoke", "full"),
        help="explicit parameter-set choice",
    )
    p.set_defaults(mode="smoke")
    p.add_argument("--seed", type=int, default=20030609,
                   help="run seed (per-task streams derive from it)")
    p.add_argument("--warmup", type=int, default=None,
                   help="discarded timing calls (default: 0 smoke, 1 else)")
    p.add_argument("--repeat", type=int, default=None,
                   help="timed calls, best kept (default: 1 smoke, 3 else)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the single produced area file here "
                        "(error if the selection spans areas)")
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="directory for BENCH_<area>.json files (default .)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-task progress lines")

    p = sub.add_parser(
        "report", help="render a directory's BENCH_<area>.json files"
    )
    p.add_argument("--dir", default=".", metavar="DIR",
                   help="directory holding the BENCH_<area>.json files "
                        "(default .: the repo root holds the committed ones)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write here (default stdout)")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    tasks = all_tasks()
    if args.area:
        tasks = [t for t in tasks if t.area == args.area]
        if not tasks:
            print(f"repro.bench: no tasks in area {args.area!r}",
                  file=sys.stderr)
            return 2
    width = max(len(t.name) for t in tasks)
    for task in tasks:
        print(f"{task.name:<{width}}  {task.summary}")
    print(f"# {len(tasks)} tasks; run one, an area, or 'all'")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        tasks = select_tasks(args.selector)
    except UnknownTaskError as exc:
        print(f"repro.bench: {exc}", file=sys.stderr)
        return 2
    progress = None if args.quiet else (
        lambda line: print(line, file=sys.stderr, flush=True)
    )
    by_area = run_selection(
        tasks, mode=args.mode, seed=args.seed,
        warmup=args.warmup, repeat=args.repeat, progress=progress,
    )
    if args.out is not None:
        if len(by_area) != 1:
            print(
                f"repro.bench: --out needs a single-area selection, got "
                f"{sorted(by_area)}; use --out-dir",
                file=sys.stderr,
            )
            return 2
        (payload,) = by_area.values()
        dump_payload(payload, args.out)
        print(args.out)
        return 0
    for path in write_bench_files(by_area, args.out_dir):
        print(path)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    by_area = load_payloads(args.dir)
    if not by_area:
        print(f"repro.bench: no BENCH_*.json under {args.dir}",
              file=sys.stderr)
        return 2
    text = render_payloads(by_area)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
