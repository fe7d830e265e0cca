"""README's Python examples run as written, against the top-level API."""

import json
import re
import shlex
from pathlib import Path

import twopolaritons
from twopolaritons import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:            # later blocks use names of earlier ones
        exec(compile(block, str(README), "exec"), namespace)
    # every top-level export is a name README shows
    for name in twopolaritons.__all__:
        assert re.search(rf"\b{name}\b", text), name


def test_readme_scatter_line_honours_grid(tmp_path):
    # README's scatter example asks for a two-field q range with --grid
    # points; run as written, it must give exactly that many momenta
    text = README.read_text(encoding="utf-8")
    line = next(row for row in text.splitlines() if row.startswith("twopol scatter"))
    argv = shlex.split(line)[1:]
    out = tmp_path / "scatter.json"
    assert cli.main(argv + ["--jobs", "1", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len({row["q"] for row in rows}) == int(argv[argv.index("--grid") + 1])
