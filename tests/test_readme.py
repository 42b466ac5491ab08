"""The code examples of README.md run as written."""

import re
from pathlib import Path

from conftest import STUCK0_SRC

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks():
    """The python code blocks of README's *Library* section, in order."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_examples_run(capsys):
    """Both blocks, the second reusing the names of the first, on a
    circuit whose property holds; the oracles pass on every frame."""
    blocks = library_blocks()
    assert len(blocks) == 2
    env = {"src": STUCK0_SRC}
    for block in blocks:
        exec(block, env)
    assert env["w"].kind == "invariant"
    assert capsys.readouterr().out == "%r\n" % (env["w"].invariant,)
