"""The README's library tour runs, and prints what its comments say.

Each `print(...)  # value` line of the tour's `python` block is checked
against the line it prints; a comment's value ends at ":" or " (", where
its explanation starts. The last print shows a root rather than a literal,
so the root is replayed through the integer model of the tour's function.
"""
import contextlib
import io
import re
from pathlib import Path

from support import quintic_int

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_tour_prints_its_comments():
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```", README, re.S | re.M).group(1)
    comments = [line.split("# ", 1)[1] for line in tour.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(tour, {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 6

    values = [re.split(r":| \(", comment)[0] for comment in comments[:-1]]
    assert values == ["1 0 1 0 | p=3 N=4", "1", "True", "[5]", "lifted"]
    assert printed[:-1] == values
    assert comments[-1] == "a root of f mod 7^10"
    assert quintic_int(int(printed[-1]), 10) == 0
