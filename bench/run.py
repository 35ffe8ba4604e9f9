"""collatzkit benchmark: seeded CLI jobs, timed from outside, checked by
literal oracles.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each job is one `collatzkit.cli.main(argv)` call in this process with
`--format json`; its stdout is captured and checked after the timed rounds.
A run repeats the workload's job list in whole rounds until `--seconds`
have passed and reports medians over the rounds. With `--trace 1` it
alternates plain and traced rounds and reports per-layer figures instead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. See README.md in this directory.
"""

import time

# CPU the interpreter spent starting up, before this module ran; it is
# counted into setup_s
_STARTUP_CPU_S = time.process_time()

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
sys.path.insert(0, str(BENCH_DIR))

from checks import Checker, sweep_report
from tracing import Tracer, cpu_s, instrument, layer_metrics, peak_rss_mb, round_metrics, write_spans, UNITS
from workloads import WARM_UP, WORKLOADS, jobs_for

SETUP_REPEATS = 11
END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def invoke(main, argv) -> tuple[int, str]:
    """Run one CLI invocation in this process: (exit code, stdout).

    An exception escaping main is what a separate process would report as
    exit code 1 with a traceback.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # the job failed; its check says so
            code = 1
    return code, out.getvalue()


def import_program():
    """Import collatzkit.cli afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "collatzkit" or m.startswith("collatzkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("collatzkit.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"collatzkit came from {cli.__file__}, not from {SRC}")
    return cli


def set_up():
    """Import the program and warm up every subcommand, several times.

    Returns the cli module and setup_s: interpreter start-up plus the median
    of the import-and-warm-up repeats. Each repeat re-executes every
    collatzkit module, so a table built at import or on first call shows.
    """
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = import_program()
        for job in WARM_UP:
            invoke(cli.main, job.argv)
        times.append(time.perf_counter() - t0)
    return cli, _STARTUP_CPU_S + statistics.median(times)


def run_round(main, jobs, outputs: dict) -> tuple[float, float, list]:
    """All jobs once: (wall seconds, CPU seconds, [(job, code, stdout)]).

    An output already seen in an earlier round is kept as that one copy,
    so that the rounds a run makes do not grow its peak memory.
    """
    results = []
    c0, t0 = cpu_s(), time.perf_counter()
    for job in jobs:
        code, out = invoke(main, job.argv)
        results.append((job, code, outputs.setdefault(out, out)))
    return time.perf_counter() - t0, cpu_s() - c0, results


def one_shard_reruns(main, results) -> tuple[float, list[str]]:
    """Rerun each pooled verify-forward job with --shards 1.

    Returns the reruns' total wall time and a note for each rerun whose
    report differs from the pooled one in anything but wall_time and shards.
    """
    wall, mismatches = 0.0, []
    for job, code, out in results:
        if job.command != "verify-forward" or job.fault or "--shards" in job.argv:
            continue
        t0 = time.perf_counter()
        code1, out1 = invoke(main, job.argv + ("--shards", "1"))
        wall += time.perf_counter() - t0
        if (code1, sweep_report(job.command, out1)) != (code, sweep_report(job.command, out)):
            mismatches.append(f"{' '.join(job.argv)}: single-shard report differs")
    return wall, mismatches


def measure(cli, jobs, seconds: float, trace: bool):
    """Timed rounds until `seconds` have passed: plain rounds, or with
    `trace` pairs of a plain and a traced round."""
    plain, traced, tracers, layers, notes, outputs = [], [], [], [], [], {}

    def traced_round():
        tracer = Tracer()
        with instrument(cli, tracer):
            traced.append(run_round(tracer.wrap("cli.main", cli.main), jobs, outputs))
        one_shard_s, mismatches = one_shard_reruns(cli.main, traced[-1][2])
        tracers.append(tracer)
        layers.append(round_metrics(tracer.spans, traced[-1][2], one_shard_s))
        notes.extend(mismatches)

    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        # the traced round goes first in every other pair, so that neither
        # side always runs on a warmer process
        traced_first = trace and len(plain) % 2 == 1
        if traced_first:
            traced_round()
        plain.append(run_round(cli.main, jobs, outputs))
        if trace and not traced_first:
            traced_round()
    return plain, traced, tracers, layers, notes


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        cli, setup_s = set_up()
    except ImportError as exc:
        print(f"error: cannot import collatzkit from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    jobs = jobs_for(workload, seed)
    plain, traced, tracers, layers, notes = measure(cli, jobs, seconds, trace)
    peak_mb = peak_rss_mb()

    checker = Checker(seed)
    attempted = failed = 0
    for _, _, results in plain + traced:
        for job, code, out in results:
            attempted += 1
            reason = checker.check(job.argv, code, out)
            if reason:
                failed += 1
                if not job.fault:
                    notes.append(f"{' '.join(job.argv)}: {reason}")
    for note in sorted(set(notes)):
        print(f"check failed: {note}", file=sys.stderr)

    walls = [r[0] for r in plain]
    if trace:
        overhead = statistics.median(r[0] for r in traced) - statistics.median(walls)
        values, units = layer_metrics(layers, overhead), UNITS
    else:
        values = {
            "setup_s": setup_s,
            "job_s": statistics.median(walls),
            "cpu_s": statistics.median(r[1] for r in plain),
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w") as f:
        json.dump({
            "workload": workload, "seed": seed, "seconds": seconds, "result": result,
            "round_wall_s": walls, "round_cpu_s": [r[1] for r in plain],
            "traced_round_wall_s": [r[0] for r in traced],
            "jobs_per_round": len(jobs), "nproc": os.cpu_count(), "python": platform.python_version(),
        }, f, indent=1)
    if trace:
        write_spans(f"{stem}-spans.json", tracers)
    print(f"{workload}: {len(plain)} rounds of {len(jobs)} jobs, {attempted} attempted, {failed} failed")
    for k, m in result["metrics"].items():
        print(f"  {k:30s} {m['value']:.6g} {m['unit']}")
    return result


def run_all(args) -> int:
    """Every workload, each in its own fresh process, one after another."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="collatzkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
