"""The shard pool: its width, how it deals tasks, reports that do not
depend on the worker count or the walk budget, and no worker process left
behind, also after a worker raised or died or where the platform cannot
fork."""

import contextlib
import io
import multiprocessing
import os
import signal

import pytest

from collatzkit import core, cross_check_totals, cycle_scan, inverse, inverse_bfs, verify, verify_forward
from collatzkit.cli import main


def _pool_everything(monkeypatch, cpus, budget=inverse.WALK_BUDGET):
    # with cpus > 1, every call in this file runs on the pool
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(core, "POOL_MIN_BOUND", 1)
    monkeypatch.setattr(inverse, "WALK_BUDGET", budget)


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _reports():
    forward = verify_forward(10_001, shards=2).to_dict()
    del forward["wall_time"]
    return inverse_bfs(999, 10**5, 60), cross_check_totals(6), forward


CLI_CALLS = [
    ["verify-inverse", "--bound", "999", "--value-cap", "10000", "--x-max", "60", "--format", "json"],
    ["verify-inverse", "--bound", "2001", "--value-cap", "2001", "--x-max", "12", "--format", "json"],
    ["cross-check", "--kmax", "9", "--format", "json"],
]


@pytest.mark.parametrize(
    "cpus,most,width",
    [(None, None, 1), (1, None, 1), (1, 4, 1), (3, None, 3), (3, 2, 2), (3, 5, 3), (3, 1, 1)],
)
def test_pool_width_is_at_most_one_worker_per_cpu(monkeypatch, cpus, most, width):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    with core._pool(most, core.POOL_MIN_BOUND) as (workers, run):
        assert workers == width
        assert run(pow, [2, 3, 5], [3, 2, 1]) == [8, 9, 5]
    assert multiprocessing.active_children() == []


def test_without_fork_every_call_runs_in_process(monkeypatch):
    _pool_everything(monkeypatch, 2)
    pooled = _reports()

    def get_context(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        pytest.fail(f"asked for the {method!r} start method")

    def fork():
        pytest.fail("a child process was started")

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(os, "fork", fork)
    assert _reports() == pooled
    assert multiprocessing.active_children() == []


# each pooled caller with the two sizes that straddle core.POOL_MIN_BOUND: the
# sweep's bound, the cross-check's k_max (N_10 = 349,525 < POOL_MIN_BOUND <=
# N_11 = 1,398,101) and the tree walk's value cap
BELOW_AND_AT = [core.POOL_MIN_BOUND - 1, core.POOL_MIN_BOUND]
CALLERS = {
    "verify_forward": (verify, BELOW_AND_AT, lambda bound: verify_forward(bound).ok),
    "cross_check_totals": (verify, [10, 11], lambda k_max: all(e.counts_match for e in cross_check_totals(k_max))),
    "cycle_scan": (verify, BELOW_AND_AT, lambda bound: cycle_scan(bound).ok),
    "inverse_bfs": (inverse, BELOW_AND_AT, lambda cap: inverse_bfs(1, cap, 4).reached == {1}),
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_every_caller_pools_from_the_one_threshold(monkeypatch, caller):
    module, sizes, call = CALLERS[caller]
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    widths = []
    real_pool = core._pool

    @contextlib.contextmanager
    def recording_pool(most, size):
        with real_pool(most, size) as (workers, run):
            widths.append(workers)
            yield workers, run

    monkeypatch.setattr(module, "_pool", recording_pool)
    assert all(call(size) for size in sizes)
    assert widths == [1, 3]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_cross_check_is_the_same_for_any_worker_count(monkeypatch, cpus):
    serial = cross_check_totals(9)
    _pool_everything(monkeypatch, cpus)
    assert cross_check_totals(9) == serial
    assert all(e.counts_match for e in serial)


@pytest.mark.parametrize("cpus,budget", [(1, 50_000), (2, 1), (2, 50_000), (3, 7)])
def test_cli_output_is_the_same_for_any_worker_count_and_budget(monkeypatch, cpus, budget):
    serial = [_stdout(argv) for argv in CLI_CALLS]
    _pool_everything(monkeypatch, cpus, budget)
    assert [_stdout(argv) for argv in CLI_CALLS] == serial


def test_no_worker_is_left_after_pooled_calls(monkeypatch):
    _pool_everything(monkeypatch, 2)
    inverse_bfs(999, 10**5, 60)
    assert multiprocessing.active_children() == []
    cross_check_totals(6)
    assert multiprocessing.active_children() == []
    assert verify_forward(10_001, shards=2).ok
    assert multiprocessing.active_children() == []


def _raise_in_a_worker(*args, **kwargs):
    # the kernel as patched in: it raises only in a pool worker, so the
    # error the caller sees must have come from one; in the calling process
    # it runs as itself
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("worker failed")
    return _real_kernel(*args, **kwargs)


_real_kernel = None


@pytest.mark.parametrize(
    "module,kernel,call",
    [
        (inverse, "_walk", lambda: inverse_bfs(999, 10**5, 60)),
        (verify, "_count_records_by_class", lambda: cross_check_totals(6)),
        (verify, "_sweep_block", lambda: verify_forward(10_001, shards=2)),
    ],
)
def test_a_worker_exception_reaches_the_caller_and_no_worker_is_left(monkeypatch, module, kernel, call):
    _pool_everything(monkeypatch, 2)
    monkeypatch.setitem(globals(), "_real_kernel", getattr(module, kernel))
    monkeypatch.setattr(module, kernel, _raise_in_a_worker)
    with pytest.raises(RuntimeError, match="worker failed"):
        call()
    assert multiprocessing.active_children() == []


def _where(i):
    return i, os.getpid()


@pytest.mark.parametrize("tasks", [0, 1, 2, 5, 7])
def test_run_deals_task_i_to_worker_i_mod_workers_and_returns_in_order(monkeypatch, tasks):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with core._pool(None, core.POOL_MIN_BOUND) as (workers, run):
        assert workers == 3
        results = run(_where, range(tasks))
    assert [i for i, _ in results] == list(range(tasks))
    # worker 0 is the calling process, and each other worker one child
    for i, pid in results:
        assert (pid == os.getpid()) == (i % 3 == 0)
        assert pid == results[i % 3][1]
    assert len({pid for _, pid in results[:3]}) == min(tasks, 3)
    assert multiprocessing.active_children() == []


@contextlib.contextmanager
def _deadline(seconds):
    # a pool that waits forever fails the test instead of hanging the suite
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _die_in_a_worker(*args, **kwargs):
    # the kernel as patched in: a pool worker dies in it as if killed, with
    # no exception to send back; in the calling process it runs as itself
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return _real_kernel(*args, **kwargs)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize(
    "module,kernel,call",
    [
        (inverse, "_walk", lambda: inverse_bfs(999, 10**5, 60)),
        (verify, "_count_records_by_class", lambda: cross_check_totals(6)),
        (verify, "_sweep_block", lambda: verify_forward(10_001)),
    ],
)
def test_a_worker_that_dies_raises_in_the_caller_and_no_worker_is_left(monkeypatch, cpus, module, kernel, call):
    _pool_everything(monkeypatch, cpus)
    monkeypatch.setitem(globals(), "_real_kernel", getattr(module, kernel))
    monkeypatch.setattr(module, kernel, _die_in_a_worker)
    with _deadline(15), pytest.raises(ChildProcessError, match="exit code 3"):
        call()
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_is_a_cli_error(monkeypatch):
    _pool_everything(monkeypatch, 2)
    monkeypatch.setitem(globals(), "_real_kernel", inverse._walk)
    monkeypatch.setattr(inverse, "_walk", _die_in_a_worker)
    err = io.StringIO()
    with _deadline(15), contextlib.redirect_stderr(err):
        code, _ = _stdout(CLI_CALLS[0])
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "Traceback" not in err.getvalue()
    assert multiprocessing.active_children() == []
