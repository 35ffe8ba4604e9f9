"""Command line behavior: output formats, exit codes, stability."""

import dataclasses
import io
import itertools
import json
import re
import subprocess
import sys

import pytest

from collatzkit import DEFAULT_MAX_STEPS, cli, inverse, ranges
from collatzkit.cli import build_parser, main

TABLE2_CSV = """n2,x,n1,class,generates
5,1,3,multiple-of-three,false
5,3,13,even-power,true
5,5,53,odd-power,true
5,7,213,multiple-of-three,false
5,9,853,even-power,true
5,11,3413,odd-power,true
5,13,13653,multiple-of-three,false
5,15,54613,even-power,true
5,17,218453,odd-power,true
11,1,7,even-power,true
11,3,29,odd-power,true
11,5,117,multiple-of-three,false
11,7,469,even-power,true
11,9,1877,odd-power,true
11,11,7509,multiple-of-three,false
11,13,30037,even-power,true
11,15,120149,odd-power,true
11,17,480597,multiple-of-three,false
17,1,11,odd-power,true
17,3,45,multiple-of-three,false
17,5,181,even-power,true
17,7,725,odd-power,true
17,9,2901,multiple-of-three,false
17,11,11605,even-power,true
17,13,46421,odd-power,true
17,15,185685,multiple-of-three,false
17,17,742741,even-power,true
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_tables_csv_matches_reference(capsys):
    code, out = run_cli(
        capsys, "tables", "--class", "odd", "--rows", "3", "--cols", "9",
        "--format", "csv",
    )
    assert code == 0
    assert out == TABLE2_CSV


def test_tables_output_stable(capsys):
    args = ("tables", "--class", "even", "--rows", "4", "--cols", "9", "--format", "json")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_range_iter_json_single_state(capsys):
    code, out = run_cli(
        capsys, "range-iter", "--start", "19", "--iters", "1", "--format", "json"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1
    state = json.loads(lines[0])
    assert state["chosen"] == 25
    assert state["n_odd"] == 29 and state["n_even"] == 25


def test_range_iter_stall_at_p3_is_expected(capsys):
    code, out = run_cli(capsys, "range-iter", "--start", "5", "--iters", "5")
    assert code == 0  # p = 3 stall is documented behavior, not a failure
    assert "stalled" in out


def test_range_iter_stall_above_p3_exits_one(capsys, monkeypatch):
    # every step at p > 3 grows, so one that does not is faked for N = 25
    # (p = 13): the run stops there, says so and fails
    real = ranges.range_step
    monkeypatch.setattr(
        ranges, "range_step", lambda n: dataclasses.replace(real(n), chosen=n, growth=0) if n == 25 else real(n)
    )
    code, out = run_cli(capsys, "range-iter", "--start", "19", "--iters", "5")
    assert code == 1
    assert out.splitlines()[-1] == "stalled at index 1"
    code, out = run_cli(capsys, "range-iter", "--start", "19", "--iters", "5", "--format", "json")
    assert code == 1
    assert [json.loads(line)["growth"] for line in out.splitlines()] == [6, 0]


def test_totals_json(capsys):
    code, out = run_cli(capsys, "totals", "--kmax", "2", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["T"] == 3
    assert reports[0]["identityHolds"] is True
    assert set(reports[0]) == {"kN", "N", "To", "Te", "T", "bruteCount", "identityHolds"}


def test_totals_mismatch_exits_one(capsys, monkeypatch):
    # the closed form never misses, so a report that disagrees with its
    # brute count is faked for k = 3: that row says so and the run fails
    real = cli.totals
    monkeypatch.setattr(cli, "totals", lambda k: dataclasses.replace(real(k), identity_holds=k != 3))
    code, out = run_cli(capsys, "totals", "--kmax", "4")
    assert code == 1
    assert [line.endswith("[MISMATCH]") for line in out.splitlines()] == [False, True, False]


def test_seq_json(capsys):
    code, out = run_cli(capsys, "seq", "--start", "27", "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert info["steps"] == 111 and info["peak"] == 9232
    assert info["chain_product"] == "1/27"


def test_seq_budget_run_out_exits_one(capsys):
    # stdout is the same as for any run; stderr names the budget
    code = main(["seq", "--start", "27", "--max-steps", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == (
        "27 -> 82\n"
        "steps=1 even=0 odd=1 peak=82 terminated=False\n"
        "chain product = 82/27\n"
    )
    assert captured.err == "chain from 27 did not reach 1 within max_steps=1\n"
    assert main(["seq", "--start", "27", "--max-steps", "111"]) == 0


def test_verify_forward_text(capsys):
    code, out = run_cli(capsys, "verify-forward", "--bound", "999", "--shards", "2")
    assert code == 0
    assert "verified=500" in out


def test_verify_forward_budget_failures_exit_one(capsys):
    code, out = run_cli(
        capsys, "verify-forward", "--bound", "99", "--max-steps", "1"
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_inverse(capsys):
    code, out = run_cli(
        capsys, "verify-inverse", "--bound", "29", "--value-cap", "10000",
        "--x-max", "40", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["unreached"] == []


@pytest.mark.parametrize("fmt,gap", [("text", "unreached: [27]"), ("json", '"unreached": [27]')])
def test_verify_inverse_gap_exits_one(capsys, fmt, gap):
    # 27's chain climbs to 9232 = 3*3077 + 1: a cap of 1000 leaves 27 a gap
    args = ["verify-inverse", "--bound", "29", "--x-max", "20", "--format", fmt]
    code, out = run_cli(capsys, *args, "--value-cap", "1000")
    assert code == 1
    assert gap in out
    code, out = run_cli(capsys, *args, "--value-cap", "9232")
    assert code == 0
    assert gap not in out


def test_cycle_scan_ok(capsys):
    code, out = run_cli(capsys, "cycle-scan", "--bound", "100", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"members": [1, 4, 2]}]


@pytest.mark.parametrize(
    "argv",
    [["seq", "--start", "27"], ["verify-forward", "--bound", "9"], ["cycle-scan", "--bound", "9"]],
)
def test_step_budget_defaults_to_the_library_default(argv):
    assert build_parser().parse_args(argv).max_steps == DEFAULT_MAX_STEPS


def test_cycle_scan_without_the_terminal_cycle_exits_one(capsys, monkeypatch):
    # every scan finds 1 -> 4 -> 2, so one that misses it is faked: it
    # leaves no start undecided, and the run still fails
    real = cli.cycle_scan
    monkeypatch.setattr(cli, "cycle_scan", lambda *a: dataclasses.replace(real(*a), cycles=()))
    code, out = run_cli(capsys, "cycle-scan", "--bound", "100")
    assert code == 1
    assert out == "0 cycle(s) found\n"


def test_cycle_scan_budget_too_small_fails(capsys):
    # one step per start settles no start above 1, so every one of them is
    # undecided and the check reports failure
    code, _ = run_cli(capsys, "cycle-scan", "--bound", "100", "--max-steps", "1")
    assert code == 1


def test_cycle_scan_undecided_starts_exit_one(capsys):
    # start 7 needs 11 steps to drop below itself
    code = main(["cycle-scan", "--bound", "1001", "--max-steps", "10", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == [{"members": [1, 4, 2]}]
    assert "7, 15, 27" in captured.err
    code, out = run_cli(capsys, "cycle-scan", "--bound", "1001", "--max-steps", "10")
    assert code == 1
    assert "undecided" in out and "7, 15, 27" in out


def test_assumption_table_text(capsys):
    code, out = run_cli(capsys, "assumption-table", "--start", "19")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("4 -> 2 -> *1*")
    assert lines[2].endswith("| 7,11,13,17")
    assert len({line.index("|") for line in lines}) == 1  # claims column aligned


def test_assumption_table_json_bold_flags(capsys):
    code, out = run_cli(capsys, "assumption-table", "--start", "19", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    last = rows[-1]  # start 19: values 19, 58, 29, 88, 44, 22
    assert last["values"] == [19, 58, 29, 88, 44, 22]
    assert last["bold"] == [True, False, True, False, False, False]


def test_cross_check(capsys):
    code, out = run_cli(capsys, "cross-check", "--kmax", "4", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert all(e["countsMatch"] for e in entries)


def test_uniqueness(capsys):
    code, out = run_cli(capsys, "uniqueness", "--bound", "1000", "--format", "json")
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["tables", "--class", "grey", "--rows", "1", "--cols", "1"])
    assert err.value.code == 2


def test_bad_value_exit_code(capsys):
    code, _ = run_cli(capsys, "range-iter", "--start", "4", "--iters", "1")
    assert code == 2
    code, _ = run_cli(capsys, "totals", "--kmax", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-forward", "--bound", "1001", "--shards", "0"),
        ("verify-forward", "--bound", "1001", "--max-steps", "0"),
        ("tables", "--class", "odd", "--rows", "0", "--cols", "3"),
        ("seq", "--start", "27", "--max-steps", "0"),
        ("cycle-scan", "--bound", "1001", "--max-steps", "0"),
        # too large to index a bytearray by: OverflowError, not a traceback
        ("uniqueness", "--bound", "100000000000000000000"),
        ("verify-inverse", "--bound", "100000000000000000000",
         "--value-cap", "100000000000000000000", "--x-max", "3"),
    ],
)
def test_library_value_error_is_usage_error(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("tables", "--class", "odd", "--rows", "2", "--cols", "1200"),
        ("range-iter", "--start", "7", "--iters", "6000"),
        ("totals", "--kmax", "1100"),
    ],
)
def test_text_too_long_to_print_leaves_stdout_empty(capsys, argv):
    # each run holds a value past 640 digits, the limit on printing an int
    # set here; text goes out whole or not at all, as JSON does
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(list(argv))
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_memory_error_is_usage_error(capsys, monkeypatch):
    # a bound too large to hold a byte per odd number in memory
    def out_of_memory(bound):
        raise MemoryError

    monkeypatch.setattr(cli, "uniqueness_check", out_of_memory)
    code = main(["uniqueness", "--bound", "10000000000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_os_error_is_usage_error(capsys, monkeypatch):
    # raised before any output: stdout, here a capture without a file
    # descriptor, still flushes, so it is left as it is
    def disk_full(start, max_steps):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "trajectory", disk_full)
    code = main(["seq", "--start", "27"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: [Errno 28] No space left on device\n"


def test_closed_stdout_is_usage_error():
    # the reader is gone before the child writes its first byte
    proc = subprocess.Popen(
        [sys.executable, "-m", "collatzkit", "seq", "--start", "27"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "error: [Errno 32] Broken pipe\n"


class _ShortPipe(io.RawIOBase):
    # a pipe whose reader takes at most 4 bytes per write and goes away
    # once it holds `limit` bytes (None: never)
    def __init__(self, limit):
        self.limit, self.taken = limit, bytearray()

    def writable(self):
        return True

    def write(self, data):
        if self.limit is not None and len(self.taken) >= self.limit:
            raise BrokenPipeError(32, "Broken pipe")
        self.taken += bytes(data[:4])
        return min(len(data), 4)


@pytest.mark.parametrize("limit", [None, 12])
def test_unbuffered_stdout_is_written_whole_or_raises(capsys, monkeypatch, limit):
    # under python -u or PYTHONUNBUFFERED=1, sys.stdout wraps a raw file,
    # and TextIOWrapper.write drops what a short raw write leaves: the
    # output must arrive whole, or the run must exit 2 with one error line
    whole = run_cli(capsys, "seq", "--start", "27")[1].encode()
    pipe = _ShortPipe(limit)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(pipe, write_through=True))
    code = main(["seq", "--start", "27"])
    err = capsys.readouterr().err
    if limit is None:
        assert (code, err, bytes(pipe.taken)) == (0, "", whole)
    else:
        assert (code, err, bytes(pipe.taken)) == (2, "error: [Errno 32] Broken pipe\n", whole[:limit])


def test_uniqueness_exits_one_when_a_record_column_is_missed(capsys, monkeypatch):
    # no collision shows, but the scan no longer sees one record per odd n1
    columns = inverse._columns
    monkeypatch.setattr(inverse, "_columns", lambda bound: itertools.islice(columns(bound), 1, None))
    code = main(["uniqueness", "--bound", "1001", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["violations"] == []
    assert "expected 500" in captured.err


def test_totals_kmax_33_exits_zero(capsys):
    code, out = run_cli(capsys, "totals", "--kmax", "33", "--format", "json")
    assert code == 0
    assert json.loads(out)[-1]["identityHolds"] is True


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "collatzkit", "totals", "--kmax", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "kN=3" in proc.stdout


def test_missing_subcommand_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "collatzkit"], capture_output=True, text=True
    )
    assert proc.returncode == 2


def test_parser_is_built_once():
    assert build_parser() is build_parser()


# Every subcommand in text and JSON (tables also in CSV), then calls that
# end in an argparse usage error, a library ValueError and --version. Each
# flag set on one call is left out of a later call of the same subcommand,
# so a value that stuck to the shared parser would show.
_SUBCOMMANDS = [
    ["seq", "--start", "27", "--max-steps", "5"],
    ["seq", "--start", "27"],
    ["tables", "--class", "odd", "--rows", "3", "--cols", "4"],
    ["tables", "--class", "even", "--rows", "2", "--cols", "3"],
    ["totals", "--kmax", "6"],
    ["range-iter", "--start", "19", "--iters", "5"],
    ["verify-forward", "--bound", "999", "--max-steps", "3", "--shards", "3"],
    ["verify-forward", "--bound", "999"],
    ["verify-inverse", "--bound", "29", "--value-cap", "1000", "--x-max", "20"],
    ["cycle-scan", "--bound", "101", "--max-steps", "4"],
    ["cycle-scan", "--bound", "101"],
    ["assumption-table", "--start", "19"],
    ["cross-check", "--kmax", "4"],
    ["uniqueness", "--bound", "101"],
]
_OUTPUTS = (
    list(_SUBCOMMANDS)
    + [argv + ["--format", "json"] for argv in _SUBCOMMANDS]
    + [["tables", "--class", "odd", "--rows", "3", "--cols", "4", "--format", "csv"]]
)
REPLAY = (
    _OUTPUTS
    + [
        ["tables", "--class", "grey", "--rows", "1", "--cols", "1"],
        ["seq"],
        ["verify-forward", "--bound", "0"],
        ["cross-check", "--kmax", "1", "--format", "json"],
        ["--version"],
        ["seq", "--start", "7"],
    ]
)
WALL_TIME = re.compile(r'(wall_time(?:=|": ))[0-9.]+')


def _call(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    return code, WALL_TIME.sub(r"\1*", captured.out), WALL_TIME.sub(r"\1*", captured.err)


def test_shared_parser_carries_no_state(capsys, monkeypatch):
    shared = [_call(capsys, argv) for argv in REPLAY + REPLAY]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = [_call(capsys, argv) for argv in REPLAY]
    assert {code for code, _, _ in fresh} == {0, 1, 2, "SystemExit(2)", "SystemExit(0)"}
    assert shared == fresh + fresh


class _CountingStdout(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv", _OUTPUTS)
def test_each_command_writes_stdout_once(monkeypatch, argv):
    # main writes a command's whole output in one call, once all of it is
    # formatted, so a write that fails leaves no partial output behind
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    main(list(argv))
    assert stdout.writes == 1
    assert stdout.getvalue().endswith("\n")


_REQUIRED = {
    "seq": "--start",
    "tables": "--class, --rows, --cols",
    "totals": "--kmax",
    "range-iter": "--start, --iters",
    "verify-forward": "--bound",
    "verify-inverse": "--bound, --value-cap, --x-max",
    "cycle-scan": "--bound",
    "assumption-table": "--start",
    "cross-check": "--kmax",
    "uniqueness": "--bound",
}


@pytest.mark.parametrize("command", _REQUIRED)
def test_a_subcommand_without_its_required_flags_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([command])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: the following arguments are required: {_REQUIRED[command]}\n")
