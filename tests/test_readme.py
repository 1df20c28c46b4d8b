"""The README states the size of the package; it must match the source."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_line_count_matches_src():
    stated = re.search(r"Together these are ([\d,]+) lines of Python in `src/`",
                       (ROOT / "README.md").read_text(encoding="utf-8"))
    assert stated, "README no longer states the line count of src/"
    # newline count per file, as `wc -l src/etaforge/*.py` reports it
    actual = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "etaforge").glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == actual
