"""The shard pool: reports that do not depend on the worker count or the
walk budget, and no worker process left behind, also after a worker raised."""

import contextlib
import io
import multiprocessing
import os

import pytest

from collatzkit import cross_check_totals, inverse, inverse_bfs, verify, verify_forward
from collatzkit.cli import main


def _pool_everything(monkeypatch, cpus, budget=inverse.WALK_BUDGET):
    # with cpus > 1, every call in this file runs on the pool
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(inverse, "POOL_MIN_CAP", 1)
    monkeypatch.setattr(inverse, "WALK_BUDGET", budget)
    monkeypatch.setattr(verify, "CROSS_CHECK_POOL_MIN_K", 2)
    monkeypatch.setattr(verify, "POOL_MIN_BOUND", 1)


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


CLI_CALLS = [
    ["verify-inverse", "--bound", "999", "--value-cap", "10000", "--x-max", "60", "--format", "json"],
    ["verify-inverse", "--bound", "2001", "--value-cap", "2001", "--x-max", "12", "--format", "json"],
    ["cross-check", "--kmax", "9", "--format", "json"],
]


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
    # the kernel as patched in: it raises in a pool worker and runs as
    # itself in the calling process (the walk expands the root's row there)
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
