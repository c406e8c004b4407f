"""The repository's benchmark: run, trace, compare.

One workload, one pass (what ``BENCHMARK.json``'s driver calls)::

    python3 perf/run.py --workload psi-1024 --seed 1 --seconds 10 --trace 0

prints every metric by name with its unit and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` the per-layer ones, and the spans go to
``perf/out/trace-<workload>.jsonl``.

Without ``--trace`` the command is the suite: every workload (or the
one named) runs timed and then traced, each pass in its own
interpreter, and ``perf/report.py`` renders what they wrote to
``perf/out/``. ``--agree`` runs the timed suite twice and fails when a
metric disagrees with itself by more than its bound.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

PERF = Path(__file__).resolve().parent
SOURCE = PERF.parent / "src"

#: Seconds one pass measures when the caller does not say
#: (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 10


def import_benchmark():
    """The benchmark's modules, importable only beside the program's
    source: in a directory without ``src/repro`` there is nothing to
    measure."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"perf/run.py: no program to measure ({SOURCE}/repro is missing)")
    sys.path[:0] = [str(SOURCE), str(PERF)]
    import harness
    import workloads

    return harness, workloads


def single_pass(args: argparse.Namespace, harness, workloads) -> int:
    """One workload, timed or traced, in this interpreter."""
    tally = harness.Tally(args.seed)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, args.tiny, tally
    )
    tracer = harness.Tracer() if args.trace else None
    imported_s = time.perf_counter() - PROCESS_START
    prepare_s = []
    try:
        for _ in range(1 if tracer else workload.prepares):
            workload.release()  # of the previous set-up; the first is a no-op
            start = time.perf_counter()
            workload.prepare()
            prepare_s.append(time.perf_counter() - start)
        if tracer is None:
            metrics = workload.timed()
        else:
            measured = workload.traced(tracer)
            metrics = {
                name: measured.pop(name, 0.0)
                for name, _unit, _better in workloads.PER_LAYER
            }
            if measured:
                raise KeyError(f"undeclared per-layer metrics: {sorted(measured)}")
    finally:
        workload.release()
    if tracer is None:
        metrics["setup_s"] = imported_s + statistics.median(prepare_s)
        # After release(): the children are reaped and counted.
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
        units = {name: unit for name, unit, _, _ in workloads.END_TO_END}
    else:
        units = {name: unit for name, unit, _ in workloads.PER_LAYER}

    # C_e at both moduli: the workload's own probe (the median of the
    # readings it took beside the work) and one reading at the other.
    probes = {workload.size.bits: workload.probe}
    other_bits = 256 if workload.size.bits != 256 else 1024
    probes[other_bits] = harness.CeProbe(other_bits, random.Random(args.seed))
    probes[other_bits].read()
    result = {
        "workload": workload.name,
        "why": workload.why,
        "pass": "traced" if tracer else "timed",
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": vars(workload.size),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
        "detail": workload.detail,
        "environment": {
            **harness.environment(),
            "load": "one process, one closed-loop client",
            "fsync": workload.fsync,
            "ce_us": {
                str(bits): 1e6 * statistics.median(probe.readings)
                for bits, probe in probes.items()
            },
            "model_modexps": workload.model_modexps,
        },
    }
    harness.OUT.mkdir(parents=True, exist_ok=True)
    stem = ("tiny-" if args.tiny else "") + workload.name
    (harness.OUT / f"{stem}-{result['pass']}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    if tracer is not None:
        tracer.dump(harness.OUT / f"trace-{stem}.jsonl")

    print(f"# {workload.name} ({result['pass']}, seed {args.seed}): "
          f"{tally.attempted} operations, {tally.failed} failed; "
          f"loopback only, {result['environment']['load']}")
    for name, entry in result["metrics"].items():
        print(f"{name:45s} {entry['value']:.6g} {entry['unit']}")
    for name, value in workload.detail.get("as_measured", {}).items():
        print(f"# as measured, not gated: {name:20s} {value:.6g}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0 if tally.failed == 0 else 1


def child_pass(workload: str, trace: int, args: argparse.Namespace) -> dict:
    """One pass in its own interpreter; returns its last-line JSON."""
    command = [
        sys.executable, str(PERF / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} (--trace {trace}) failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def suite(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload timed, then traced; then the report."""
    import report

    for name in names:
        for trace in (0, 1):
            child_pass(name, trace, args)
    print(report.render(report.load(
        [("tiny-" if args.tiny else "") + name for name in names]
    )))
    return 0


def agree(args: argparse.Namespace, names: list[str], workloads) -> int:
    """The timed suite twice on the same code: every end-to-end metric
    must agree with itself within its bound."""
    first = {name: child_pass(name, 0, args)["metrics"] for name in names}
    second = {name: child_pass(name, 0, args)["metrics"] for name in names}
    disagreements = 0
    print(f"{'workload':15s} {'metric':15s} {'first':>12s} {'second':>12s} {'diff':>8s} {'bound':>6s}")
    for name in names:
        for metric, _unit, _better, bound in workloads.END_TO_END:
            a, b = first[name][metric]["value"], second[name][metric]["value"]
            difference = abs(a - b) / min(a, b)
            verdict = "" if difference <= bound else "  DISAGREES"
            disagreements += bool(verdict)
            print(f"{name:15s} {metric:15s} {a:12.6g} {b:12.6g} "
                  f"{difference:8.1%} {bound:6.0%}{verdict}")
    return 1 if disagreements else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long a pass keeps starting operations, "
                        "beyond each workload's minimum count")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one pass here: 0 timed, 1 traced")
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes (the harness tests' dry run)")
    parser.add_argument("--agree", action="store_true",
                        help="run the timed suite twice and compare")
    parser.add_argument("--list", action="store_true",
                        help="print workload and metric names")
    args = parser.parse_args()
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    harness, workloads = import_benchmark()
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (see --list)")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if args.list:
        for name in workloads.WORKLOADS:
            print(f"workload {name}")
        for name, unit, *_ in workloads.END_TO_END:
            print(f"end_to_end {name} {unit}")
        for name, unit, _better in workloads.PER_LAYER:
            print(f"per_layer {name} {unit}")
        return 0
    if args.trace is not None:
        return single_pass(args, harness, workloads)
    if args.agree:
        return agree(args, names, workloads)
    return suite(args, names)


if __name__ == "__main__":
    sys.exit(main())
