"""README's Python examples run as written, against the top-level API."""

import re
from pathlib import Path

import twopolaritons

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
