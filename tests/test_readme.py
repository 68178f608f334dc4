"""The README's library example runs against the package as it stands."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "PredictionInterval(lower=" in capsys.readouterr().out
