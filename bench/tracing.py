"""Spans around the library calls that collatzkit.cli makes, and the
per-layer metrics derived from them.

The program is not changed: while a traced round runs, each library
function that `collatzkit.cli` holds by name is replaced in the cli
module by a wrapper that records a span, and put back afterwards. A
span's layer is the module that defines the function.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass


def cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest reaped child."""
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return max(me.ru_maxrss, kids.ru_maxrss) / 1024  # ru_maxrss is in KiB on Linux


def rss_mb() -> float:
    """Current resident memory of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process alone."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    cpu: float = 0.0
    # for memory-watched spans: how far the process's peak RSS rose above
    # its RSS at entry, or 0 when the span did not raise the peak
    rss_mb: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


# inverse_bfs holds its whole visited set; its memory is a per-layer metric
MEMORY_WATCHED = {"inverse.inverse_bfs"}


class Tracer:
    """The spans of one traced round, kept in memory in the order they
    opened. A span's parent is the index of the span that was open when it
    began; each cli.main span is the root of one job's spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        watch = name in MEMORY_WATCHED
        if watch:
            rss0, peak0 = rss_mb(), own_peak_rss_mb()
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        cpu0 = cpu_s()
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.cpu = cpu_s() - cpu0
            self._open.pop()
            if watch and (peak := own_peak_rss_mb()) > peak0:
                span.rss_mb = peak - rss0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def write_spans(path: str, tracers: list[Tracer]) -> None:
    """One list of [name, start, end, parent] per traced round."""
    with open(path, "w") as f:
        json.dump([[[s.name, s.start, s.end, s.parent] for s in t.spans] for t in tracers], f)


@contextlib.contextmanager
def instrument(cli, tracer: Tracer):
    """Route cli's calls into the library through `tracer` while active."""
    originals = {
        name: fn
        for name, fn in vars(cli).items()
        if inspect.isfunction(fn) and fn.__module__.startswith("collatzkit.") and fn.__module__ != cli.__name__
    }
    for name, fn in originals.items():
        setattr(cli, name, tracer.wrap(f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}", fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


SPAN_TIMES = {
    "verify.forward_s": ("verify.verify_forward",),
    "verify.cycle_scan_s": ("verify.cycle_scan",),
    "verify.cross_check_s": ("verify.cross_check_totals",),
    "verify.assumption_table_s": (
        "verify.reproduce_assumption_table",
        "verify.assumption_bold_values",
        "verify.render_assumption_table",
    ),
    "inverse.bfs_s": ("inverse.inverse_bfs",),
    "inverse.uniqueness_s": ("inverse.uniqueness_check",),
    "inverse.table_s": ("inverse.generate_table", "inverse.table_to_csv"),
    "core.trajectory_s": ("core.trajectory",),
    "core.chain_product_s": ("core.chain_product",),
    "counting.totals_s": ("counting.totals",),
    "ranges.iterate_s": ("ranges.iterate_ranges",),
}

# unit of each per-layer metric, in the order they are reported
UNITS = {
    "verify.forward_s": "s",
    "verify.forward_starts": "count",
    "verify.forward_starts_per_s": "1/s",
    "verify.forward_1shard_s": "s",
    "verify.max_steps_used": "count",
    "verify.forward_cpu_s": "s",
    "verify.pool_overhead_s": "s",
    "verify.cycle_scan_s": "s",
    "verify.cycle_starts_per_s": "1/s",
    "verify.cross_check_s": "s",
    "verify.records_by_class": "count",
    "verify.assumption_table_s": "s",
    "inverse.bfs_s": "s",
    "inverse.bfs_nodes": "count",
    "inverse.bfs_nodes_per_s": "1/s",
    "inverse.bfs_rss_mb": "MB",
    "inverse.uniqueness_s": "s",
    "inverse.records_checked": "count",
    "inverse.records_per_s": "1/s",
    "inverse.table_s": "s",
    "core.trajectory_s": "s",
    "core.trajectory_steps": "count",
    "core.steps_per_s": "1/s",
    "core.chain_product_s": "s",
    "counting.totals_s": "s",
    "ranges.iterate_s": "s",
    "ranges.range_steps": "count",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "count",
    "trace.overhead_s": "s",
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _outputs(results, command: str):
    # parsed output of each job of `command` that printed a report
    # (verify-inverse prints one and exits 1 when the caps leave gaps)
    for job, code, out in results:
        if job.command != command or code not in (0, 1) or not out:
            continue
        try:
            yield [json.loads(line) for line in out.splitlines()] if command == "range-iter" else json.loads(out)
        except ValueError:
            continue


def round_metrics(spans: list[Span], results, one_shard_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round: its spans, its job results
    and the wall time of its single-shard sweep reruns."""
    m = {k: sum(s.seconds for s in spans if s.name in names) for k, names in SPAN_TIMES.items()}
    forward = [s for s in spans if s.name == "verify.verify_forward"]
    sweeps = list(_outputs(results, "verify-forward"))
    m["verify.forward_starts"] = sum(d["verified"] for d in sweeps)
    m["verify.forward_starts_per_s"] = _rate(m["verify.forward_starts"], m["verify.forward_s"])
    m["verify.forward_1shard_s"] = one_shard_s
    m["verify.max_steps_used"] = max((d["max_steps_used"] for d in sweeps), default=0)
    m["verify.forward_cpu_s"] = sum(s.cpu for s in forward)
    m["verify.pool_overhead_s"] = m["verify.forward_cpu_s"] - one_shard_s
    cycle_starts = sum(
        (int(job.argv[job.argv.index("--bound") + 1]) + 1) // 2
        for job, code, _ in results
        if job.command == "cycle-scan" and code in (0, 1)
    )
    m["verify.cycle_starts_per_s"] = _rate(cycle_starts, m["verify.cycle_scan_s"])
    m["verify.records_by_class"] = sum(
        r["rootRowCount"] + r["opowCount"] + r["epowCount"] for rows in _outputs(results, "cross-check") for r in rows
    )
    m["inverse.bfs_nodes"] = sum(d["nodes_expanded"] for d in _outputs(results, "verify-inverse"))
    m["inverse.bfs_nodes_per_s"] = _rate(m["inverse.bfs_nodes"], m["inverse.bfs_s"])
    m["inverse.bfs_rss_mb"] = max((s.rss_mb for s in spans if s.name == "inverse.inverse_bfs"), default=0.0)
    m["inverse.records_checked"] = sum(d["records_checked"] for d in _outputs(results, "uniqueness"))
    m["inverse.records_per_s"] = _rate(m["inverse.records_checked"], m["inverse.uniqueness_s"])
    m["core.trajectory_steps"] = sum(d["steps"] for d in _outputs(results, "seq"))
    m["core.steps_per_s"] = _rate(m["core.trajectory_steps"], m["core.trajectory_s"])
    m["ranges.range_steps"] = sum(len(states) for states in _outputs(results, "range-iter"))
    mains = [i for i, s in enumerate(spans) if s.name == "cli.main"]
    child_s = {i: 0.0 for i in mains}
    for s in spans:
        if s.parent in child_s:
            child_s[s.parent] += s.seconds
    m["cli.calls"] = len(mains)
    m["cli.self_s"] = sum(spans[i].seconds - child_s[i] for i in mains)
    m["cli.output_bytes"] = sum(len(out.encode()) for _, _, out in results)
    return m


def layer_metrics(rounds: list[dict[str, float]], overhead_s: float) -> dict[str, float]:
    """Median of each per-layer figure over the traced rounds."""
    # a count is the same in every round; median_low keeps it a whole number
    out = {
        k: (statistics.median_low if unit == "count" else statistics.median)([r[k] for r in rounds])
        for k, unit in UNITS.items()
        if k != "trace.overhead_s"
    }
    out["trace.overhead_s"] = overhead_s
    return out
