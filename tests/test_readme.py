"""The README's examples run and print what the README says."""

import csv
import io
import math
import shlex
from fractions import Fraction
from pathlib import Path

from mediancr.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start(capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # Each print line's comment starts with the exact output, then an
    # optional parenthesized note.
    expected = [line.split("#", 1)[1].strip().split(" (", 1)[0]
                for line in block.splitlines() if line.startswith("print(")]
    assert expected and printed == expected


def exact_region(x: list[float], ratio, alpha: float, u: float | None) -> str:
    """A count-set region built from scratch: counts k = 0..n by descending
    ratio, whole groups of equal ratio admitted in turn until the exact
    binomial mass reaches 1 - alpha; the group that crosses enters when
    u <= gamma (always when u is None, the conservative envelope)."""
    n = len(x)
    mass = {k: Fraction(math.comb(n, k), 2 ** n) for k in range(n + 1)}
    level = 1 - Fraction(alpha)
    admitted, total = set(), Fraction(0)
    for r in sorted({ratio(k) for k in range(n + 1)}, reverse=True):
        group = {k for k in range(n + 1) if ratio(k) == r}
        group_mass = sum(mass[k] for k in group)
        if total + group_mass >= level:
            gamma = (level - total) / group_mass
            if u is None or Fraction(u) <= gamma:
                admitted |= group
            break
        admitted |= group
        total += group_mass
    lo, hi = min(admitted), max(admitted) + 1
    assert admitted == set(range(lo, hi))  # one window of spacings
    xs = [-math.inf, *sorted(x), math.inf]  # xs[k] is the order statistic x(k)
    return f"[{xs[lo]!r}:{xs[hi]!r})"


def test_readme_aircondit_example(monkeypatch, capsys):
    # The section's first fenced block is the command, its second the output.
    fences = README.read_text(encoding="utf-8").split("## Paper data example", 1)[1].split("```")
    argv, expected = shlex.split(fences[1].removeprefix("sh\n")), fences[3].removeprefix("\n")
    assert argv[0] == "mediancr"
    monkeypatch.chdir(README.parent)
    monkeypatch.delenv("MEDIANCR_SEED", raising=False)
    assert main(argv[1:]) == EXIT_OK
    assert capsys.readouterr().out == expected

    x = [float(v) for v in (README.parent / "data" / "aircondit.txt").read_text().split()]
    n = len(x)
    rows = {int(r["method"]): r for r in csv.DictReader(io.StringIO(expected))}
    uniform = lambda k: math.comb(n, k)  # r(k) of the uniform profile, up to a constant
    exponential = lambda k: math.comb(n - 1, k) if k < n else 0
    assert rows[3]["intervals"] == exact_region(x, uniform, 0.05, None)
    assert rows[10]["intervals"] == exact_region(x, uniform, 0.05, float(rows[10]["u"]))
    assert rows[11]["intervals"] == exact_region(x, exponential, 0.05, float(rows[11]["u"]))
    # n = 12 is even, so BCa's acceleration is 0 and method 9 is method 8.
    assert rows[9]["intervals"] == rows[8]["intervals"]
