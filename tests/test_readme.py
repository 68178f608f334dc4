"""The README's library section runs and names only what the package has."""

import importlib
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"
_NAME = re.compile(r"[A-Za-z_][\w.]*\*?")


def _library_section() -> str:
    return README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def _resolves(name: str) -> bool:
    """Whether ``name`` is an attribute of ``recruitcast`` or of the submodule
    its dotted prefix names; a trailing ``*`` matches any suffix."""
    path, _, attr = name.rpartition(".")
    path = path.removeprefix("recruitcast").lstrip(".")
    try:
        owner = importlib.import_module("recruitcast" + ("." + path if path else ""))
    except ImportError:
        return False
    if attr.endswith("*"):
        return any(known.startswith(attr[:-1]) for known in dir(owner))
    return hasattr(owner, attr)


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "PredictionInterval(lower=" in capsys.readouterr().out


def test_readme_library_names_resolve():
    prose = re.sub(r"```.*?```", "", _library_section(), flags=re.DOTALL)
    # CLI flags and call expressions are not names
    names = [code for code in re.findall(r"`([^`\n]+)`", prose) if _NAME.fullmatch(code)]
    assert len(names) >= 5
    # the check itself tells a stale name from a live one
    assert not any(map(_resolves, ("limit_tail_mass", "adjust_nothing_*", "reproduce.nothing")))
    assert [name for name in names if not _resolves(name)] == []
