"""Seeded job lists for the three workloads.

A job is one collatzkit command line. The seed picks the arguments and the
order; the number of jobs of each kind is fixed, so every round of a
workload does the same kinds of work whatever the seed. Arguments are drawn
one per stratum of their range, so the total work of a round barely moves
between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "inverse", "queries")

# The smallest value cap under which the inverse expansion reaches every
# odd number up to 1e4: the peak of 9663's odd chain.
FULL_COVERAGE_CAP = 9_038_141


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    fault: str | None = None  # names the known program fault this job runs into

    @property
    def command(self) -> str:
        return self.argv[0]


def make_job(command: str, **opts: object) -> Job:
    argv = [command]
    for key, value in opts.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return Job(tuple(argv + ["--format", "json"]))


# Invocations that break the CLI's contract today. Their inputs never
# depend on the seed, so each round fails exactly these until they are fixed.
NAMED_FAULTS = (
    Job(("verify-forward", "--bound", "1001", "--shards", "0", "--format", "json"), "exit-code"),
    Job(("verify-forward", "--bound", "1001", "--max-steps", "0", "--format", "json"), "exit-code"),
    Job(("tables", "--class", "odd", "--rows", "0", "--cols", "3", "--format", "json"), "exit-code"),
    Job(("seq", "--start", "27", "--max-steps", "0", "--format", "json"), "exit-code"),
    Job(("cycle-scan", "--bound", "1001", "--max-steps", "10", "--format", "json"), "cycle-scan-budget"),
    Job(("totals", "--kmax", "33", "--format", "json"), "totals-overflow"),
)

# One small call of every subcommand: the set-up warm-up.
WARM_UP = (
    make_job("seq", start=27),
    make_job("verify-forward", bound=1001),
    make_job("verify-inverse", bound=101, value_cap=1001, x_max=20),
    make_job("cycle-scan", bound=1001),
    make_job("tables", **{"class": "odd"}, rows=3, cols=3),
    make_job("totals", kmax=4),
    make_job("range-iter", start=19, iters=5),
    make_job("uniqueness", bound=1001),
    make_job("assumption-table", start=19),
    make_job("cross-check", kmax=4),
)


def _strata(rng: random.Random, count: int, lo: int, hi: int, log: bool = False) -> list[int]:
    """`count` integers in [lo, hi], one from each of `count` equal strata
    (equal in ratio when `log`), in ascending order."""
    out = []
    for i in range(count):
        if log:
            a, b = lo * (hi / lo) ** (i / count), lo * (hi / lo) ** ((i + 1) / count)
        else:
            a, b = lo + (hi - lo) * i / count, lo + (hi - lo) * (i + 1) / count
        out.append(min(hi, max(lo, int(a + rng.random() * (b - a)))))
    return out


def _odd(values: list[int]) -> list[int]:
    return [v | 1 for v in values]


def _desk_calls(rng: random.Random, skip: set[str]) -> list[Job]:
    """One desk-scale call of each subcommand not in `skip`, so that every
    layer does some work on every workload."""
    calls = [
        make_job("seq", start=rng.randrange(3, 1000)),
        make_job("verify-forward", bound=rng.randrange(1001, 2001)),
        make_job("verify-inverse", bound=rng.randrange(101, 301), value_cap=rng.randrange(1000, 5001), x_max=20),
        make_job("cycle-scan", bound=rng.randrange(1001, 2001)),
        make_job("tables", **{"class": rng.choice(("even", "odd"))}, rows=rng.randrange(3, 6), cols=rng.randrange(3, 6)),
        make_job("totals", kmax=rng.randrange(3, 9)),
        make_job("range-iter", start=rng.randrange(7, 100) | 1, iters=rng.randrange(5, 11)),
        make_job("uniqueness", bound=rng.randrange(1000, 2001)),
        make_job("assumption-table", start=rng.randrange(19, 42) | 1),
        make_job("cross-check", kmax=rng.randrange(3, 7)),
    ]
    return [j for j in calls if j.command not in skip]


def sweep(rng: random.Random) -> list[Job]:
    main = [
        make_job("verify-forward", bound=rng.randrange(9_950_000, 10_000_001)),
        make_job("cycle-scan", bound=rng.randrange(1_990_000, 2_000_001)),
    ]
    return main + _desk_calls(rng, {"verify-forward", "cycle-scan"})


def inverse(rng: random.Random) -> list[Job]:
    main = [
        make_job("verify-inverse", bound=10_000, value_cap=1_000_000, x_max=60),
        make_job("verify-inverse", bound=10_000, value_cap=FULL_COVERAGE_CAP, x_max=60),
        make_job("uniqueness", bound=rng.randrange(995_000, 1_000_001)),
        make_job("cross-check", kmax=12),
    ]
    return main + _desk_calls(rng, {"verify-inverse", "uniqueness", "cross-check"})


def queries(rng: random.Random) -> list[Job]:
    jobs = [make_job("seq", start=s) for s in _strata(rng, 80, 3, 100_000, log=True)]
    jobs += [make_job("verify-forward", bound=b) for b in _strata(rng, 60, 1_000, 100_000, log=True)]
    bounds = _odd(_strata(rng, 30, 101, 2_001, log=True))
    caps = _strata(rng, 30, 10, 100, log=True)
    xs = _strata(rng, 30, 8, 40)
    rng.shuffle(caps)
    rng.shuffle(xs)
    jobs += [make_job("verify-inverse", bound=b, value_cap=b * c, x_max=x) for b, c, x in zip(bounds, caps, xs)]
    cols = _strata(rng, 30, 1, 20)
    rng.shuffle(cols)
    jobs += [
        make_job("tables", **{"class": ("even", "odd")[i % 2]}, rows=r, cols=c)
        for i, (r, c) in enumerate(zip(_strata(rng, 30, 1, 40), cols))
    ]
    iters = _strata(rng, 30, 1, 60)
    rng.shuffle(iters)
    jobs += [make_job("range-iter", start=s, iters=i) for s, i in zip(_odd(_strata(rng, 30, 3, 1_000_000, log=True)), iters)]
    jobs += [make_job("totals", kmax=k) for k in _strata(rng, 20, 2, 32)]
    jobs += [make_job("uniqueness", bound=b) for b in _strata(rng, 20, 1_000, 50_000, log=True)]
    jobs += [make_job("assumption-table", start=s) for s in _odd(_strata(rng, 20, 3, 2_001, log=True))]
    jobs += [make_job("cycle-scan", bound=b) for b in _strata(rng, 10, 1_000, 20_000, log=True)]
    jobs += [make_job("cross-check", kmax=k) for k in _strata(rng, 10, 2, 8)]
    return jobs + list(NAMED_FAULTS)


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The seeded job list of one round, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = {"sweep": sweep, "inverse": inverse, "queries": queries}[workload](rng)
    rng.shuffle(jobs)
    return jobs
