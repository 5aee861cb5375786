"""skg benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload roundtrip-mix --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; ``skg`` is imported from its
``src`` directory.  The run repeats whole rounds of the workload's
operations until ``--seconds`` have passed, checks every output, and
prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are per-layer figures from
spans around the ``skg`` functions, plus the cost of tracing.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from tracing import Tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GRAMMAR = ROOT / "grammars" / "paper.skg"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11

# Set-up as a user pays it: a fresh interpreter imports skg and loads the
# bundled grammar.  Timed inside the child, so interpreter start-up is out.
SETUP_PROBE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import skg
with open(sys.argv[2], encoding="utf-8") as handle:
    skg.load_grammar(handle.read())
print(time.perf_counter() - t, skg.__file__)
"""


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def setup_seconds() -> float:
    """Median set-up time over fresh interpreters (the first only warms caches)."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(GRAMMAR)],
            capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        seconds, where = proc.stdout.split()
        if not pathlib.Path(where).resolve().is_relative_to(SRC):
            fail(f"set-up probe imported skg from {where}")
        times.append(float(seconds))
    return statistics.median(times[1:])


def run_round(ops, first_op, tracer, stats):
    """Run one round; return its program time and fingerprints."""
    busy = 0.0
    cli_times = []
    prints = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = first_op + i
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a crash of one operation is a failed operation
            busy += perf_counter() - start
            stats["failed"] += 1
            prints.append(("raised", type(exc).__name__))
            continue
        elapsed = perf_counter() - start
        busy += elapsed
        verdict, fingerprint = op.judge(result)
        prints.append(fingerprint)
        if verdict == "failed":
            stats["failed"] += 1
            continue
        if verdict == "wrong":
            stats["wrong"] += 1
        if op.kind == "goal":
            stats["goal_times"].append(elapsed)
        else:
            cli_times.append(elapsed)
    stats["attempted"] += len(ops)
    if cli_times:
        stats["cli_means"].append(statistics.fmean(cli_times))
    return busy, prints


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skg" / "__init__.py").is_file() or not GRAMMAR.is_file():
        fail(f"no skg source checkout at {ROOT} (need src/skg and grammars/)")
    setup_s = setup_seconds() if args.trace == 0 else None

    sys.path.insert(0, str(SRC))
    import skg

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    grammar = skg.load_grammar(GRAMMAR.read_text(encoding="utf-8"))
    if tracer:
        tracer.uninstall()
    workloads.check_fixtures(skg, ROOT)
    ops = workloads.WORKLOADS[args.workload](skg, grammar, ROOT, args.seed)

    stats = {"attempted": 0, "failed": 0, "wrong": 0,
             "goal_times": [], "cli_means": []}
    round_times = {False: [], True: []}  # keyed by "traced"
    reference = None
    deterministic = True
    deadline = perf_counter() + args.seconds
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            busy, prints = run_round(ops, rounds * len(ops),
                                     tracer if traced else None, stats)
        finally:
            if traced:
                tracer.uninstall()
                tracer.fold()
        round_times[traced].append(busy)
        if reference is None:
            reference = prints
        elif prints != reference:
            deterministic = False
        rounds += 1
        if perf_counter() >= deadline and (tracer is None or rounds >= 2):
            break

    if tracer:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracer.metrics(len(round_times[True])).items()}
        plain = statistics.median(round_times[False])
        overhead = statistics.median(round_times[True]) - plain
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100 * overhead / plain, "unit": "%"}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.tsv.gz")
    else:
        times = stats["goal_times"]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "goals_per_s": {"value": len(times) / sum(times), "unit": "goals/s"},
            "goal_ms_p50": {"value": 1e3 * statistics.median(times), "unit": "ms"},
            "goal_ms_p95": {"value": 1e3 * statistics.quantiles(
                times, n=20, method="inclusive")[18],
                            "unit": "ms"},
            "round_s": {"value": statistics.median(round_times[False]), "unit": "s"},
            "cli_ms": {"value": 1e3 * statistics.median(stats["cli_means"]),
                       "unit": "ms"},
            "peak_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "unit": "MB"},
        }
    print(json.dumps({
        "correct": deterministic and stats["wrong"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
