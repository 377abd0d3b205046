"""The README's python examples, run as doctests."""

import doctest
from pathlib import Path


def test_readme_python_block():
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, 5)
