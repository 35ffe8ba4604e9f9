"""The mutation catalogue: deliberate faults in the package, each with the
test files that must catch it.

A row of MUTANTS names a file of src/collatzkit, an anchor that occurs
exactly once in it, the anchor's replacement, the files of tests/ that
must fail on the result, and what the replacement breaks.
tests/run_mutants.py applies each row to a copy of src/ and runs those
files; tests/test_mutants.py checks that every anchor still occurs once,
so a change that moves an anchor updates this catalogue with it.

EQUIVALENT lists replacements that change no result, each with its proof.
They are not run: no test can catch them.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str
    anchor: str
    replacement: str
    tests: tuple[str, ...]
    breaks: str


class Equivalent(NamedTuple):
    file: str
    anchor: str
    replacement: str
    proof: str


MUTANTS = (
    # the residue sieve's child rule, verify._sieve
    Mutant(
        "verify.py", "steps + 2)", "steps + 1)", ("test_window.py",),
        "an odd child of the sieve counts one single step instead of two",
    ),
    Mutant(
        "verify.py", "(3 * u + 1) >> 1", "(3 * u + 3) >> 1", ("test_window.py",),
        "an odd child's T^(j+1)(r) is one too large",
    ),
    Mutant(
        "verify.py", "r + (1 << j)", "r + (2 << j)", ("test_window.py",),
        "the second child is not the class r + 2^j, so residues are lost and doubled",
    ),
    Mutant(
        "verify.py", "mod = 2 << j", "mod = 1 << j", ("test_window.py",),
        "a child's exit test and residue use its parent's modulus",
    ),
    # the walk's window table, verify._window_table
    Mutant(
        "verify.py", "p << (k - s)", "p << (k - s - 1)", ("test_window.py",),
        "a window row's least ratio is scaled to 2^(k-1) instead of 2^k",
    ),
    Mutant(
        "verify.py", "b, 1, k, 1, 0", "b, 1, k, 3, 0", ("test_window.py",),
        "a window row's least ratio leaves out the ratio 1 at step 0",
    ),
    # the fallback after the merge, verify._merge
    Mutant(
        "verify.py", "if lo <= n < hi and alive[(n & mask) >> 1]]", "if lo <= n < hi]", ("test_verify.py",),
        "heirs in exit classes, which were never skipped, are walked and counted again",
    ),
    Mutant(
        "verify.py", "alive[(n & mask) >> 1]", "alive[n & mask >> 1]", ("test_verify.py",),
        "an heir's class byte is read at the wrong residue",
    ),
    Mutant(
        "verify.py", "3 * n + 1, 0, 1)", "3 * n + 1, 0, 0)", ("test_verify.py",),
        "an heir walked from 3n + 1 misses the odd step that took it there",
    ),
    Mutant(
        "verify.py", "if m & 15 == 11]", "if m & 15 == 3]", ("test_verify.py",),
        "the heir (9m + 5)/8 is taken for the wrong residues of m",
    ),
    Mutant(
        "verify.py", "if m & 3 == 3]", "if m & 3 == 1]", ("test_verify.py",),
        "the heirs are taken for starts m = 1 mod 4, which have none",
    ),
    # the record marks, inverse._mark, and the record counter
    Mutant(
        "inverse.py", "for code in (1, 2))", "for code in (1, 1))", ("test_inverse.py",),
        "an even-x column's records are marked as odd-x ones",
    ),
    Mutant(
        "inverse.py", "if n2 == 1 and 0 <= d < end:", "if False:", ("test_inverse.py",),
        "row 1's record in each even column is not re-marked as row 1's",
    ),
    Mutant(
        "inverse.py", "else d % sl.step", "else -(-d % sl.step)", ("test_inverse.py",),
        "a column that starts before the window has its first index rounded down",
    ),
    Mutant(
        "inverse.py", "[code] + [255] * 255", "[code] + list(range(1, 256))", ("test_inverse.py",),
        "a record marked twice keeps its first mark instead of 255",
    ),
    Mutant(
        "inverse.py", "marks.count(code, 0, (n + 1) // 2 - lo)", "marks.count(code, 0, (n + 1) // 2 - lo - 1)",
        ("test_inverse.py",),
        "the record counter's prefix for n ends one byte short",
    ),
    Mutant(
        "inverse.py", "marks.count(code, 0, (n + 1) // 2 - lo)", "marks.count(code, 0, (n + 1) // 2 - lo + 1)",
        ("test_inverse.py",),
        "the record counter's prefix for n ends one byte long",
    ),
    # the tree walk, inverse.inverse_bfs and inverse._walk
    Mutant(
        "inverse.py", "if 2 < x <= x_max]", "if 2 < x < x_max]", ("test_inverse.py",),
        "the root's record at x = x_max is not pushed",
    ),
    Mutant(
        "inverse.py", "(3 * value_cap + 1) >> x_max", "(3 * value_cap + 1) >> (x_max - 1)", ("test_inverse.py",),
        "some rows stop at their exponent cap, above value_cap, instead of at value_cap",
    ),
    Mutant(
        "inverse.py", "(self.bound + 1) // 2 - len(self.unreached)", "self.bound // 2 - len(self.unreached)",
        ("test_inverse.py",),
        "an odd bound is left out of the odds that the reached count is taken from",
    ),
    # the verdicts of the reports
    Mutant(
        "verify.py", "return not self.failures", "return True", ("test_cli.py",),
        "a sweep with failed starts passes",
    ),
    Mutant(
        "verify.py", "return not self.undecided and ", "return ", ("test_cli.py",),
        "a cycle scan with undecided starts passes",
    ),
    Mutant(
        "verify.py", " and [c.values for c in self.cycles] == [(1, 4, 2, 1)]", "", ("test_cli.py",),
        "a cycle scan that does not find exactly the cycle 1, 4, 2 passes",
    ),
    Mutant(
        "inverse.py", "return not self.violations and ", "return ", ("test_inverse.py",),
        "a uniqueness scan with two sources of one n1 passes",
    ),
    Mutant(
        "inverse.py", " and self.records_checked == self.records_expected", "", ("test_inverse.py",),
        "a uniqueness scan that misses records passes",
    ),
    # the command line, cli
    Mutant(
        "cli.py", "return 0 if ok else CHECK_FAILED", "return 0", ("test_cli.py",),
        "a failed check exits 0",
    ),
    Mutant(
        "cli.py", "return t.terminated, lines", "return True, lines", ("test_cli.py",),
        "seq exits 0 on a chain that runs out of its step budget",
    ),
    Mutant(
        "cli.py", "ok = not (trace.stalled and trace.states[trace.stall_index].p_n > 3)", "ok = True", ("test_cli.py",),
        "range-iter exits 0 on a stall at p > 3",
    ),
    Mutant(
        "cli.py", "ok = not report.unreached", "ok = True", ("test_cli.py",),
        "verify-inverse exits 0 with coverage gaps",
    ),
    Mutant(
        "cli.py", "ok = all(r.identity_holds for r in reports)", "ok = True", ("test_cli.py",),
        "totals exits 0 on a row whose identity fails",
    ),
    Mutant(
        "cli.py", "ok = all(e.counts_match for e in entries)", "ok = True", ("test_inverse.py",),
        "cross-check exits 0 on a row whose counts do not match",
    ),
    Mutant(
        "cli.py", 'line + "\\n" for line in lines', "line for line in lines", ("test_cli.py",),
        "main's one write drops the newlines between lines",
    ),
    Mutant(
        "cli.py", "p.add_argument(flag, type=int, required=True)", "p.add_argument(flag, type=int)", ("test_cli.py",),
        "a subcommand runs without its required flags",
    ),
)

EQUIVALENT = (
    Equivalent(
        "verify.py", "if c < mod:", "if c <= mod:",
        "c is a power of 3, odd, and mod = 2^(j+1) is even, so c == mod never holds",
    ),
    Equivalent(
        "verify.py", "if c3 << s < p << i:", "if c3 << s <= p << i:",
        "a tie means c3/2^i == p/2^s, so either choice gives the same num = p << (k - s)",
    ),
    Equivalent(
        "verify.py", "u += e if n << e > x else e + 1", "u += e if n << e >= x else e + 1",
        "x = s*2^t with s and n odd, so n*2^e == x would force s == n, but the drop branch has s < n",
    ),
    Equivalent(
        "inverse.py", "quarter = (value_cap - 1) // 4", "quarter = value_cap // 4",
        "every row's lim is at most value_cap and `while n1 <= lim` rejects a sibling above it, "
        "so a looser gate only runs that test once more",
    ),
)
