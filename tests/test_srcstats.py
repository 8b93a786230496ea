"""`tools/srcstats.py uncalled` lists exactly the definitions the README
keeps on purpose."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "srcstats.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("srcstats", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def kept_on_purpose() -> set:
    """The `Class.name` entries of the README paragraph that names what
    `uncalled` lists, outside the parentheses that say why each is kept."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = text.split("each kept on purpose:", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"`([A-Z]\w*\.\w+)`", re.sub(r"\([^()]*\)", "", paragraph)))


def test_uncalled_lists_the_definitions_the_readme_keeps(capsys):
    assert load_tool().main(["uncalled"]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed = {line.rpartition(": ")[2] for line in lines[:-1]}
    assert lines[-1] == "%d definitions never named in src/" % len(listed)
    assert listed == kept_on_purpose()
    assert "Echelon.coords" in listed


def test_a_local_variable_does_not_hide_a_method(tmp_path, monkeypatch, capsys):
    # `coords` is a local name here and `Box.size` is read as an attribute,
    # so only the method `Box.coords` is listed
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def coords(self):\n"
        "        return 1\n\n"
        "    def size(self):\n"
        "        return 2\n\n\n"
        "def use(box):\n"
        "    coords = box.size()\n"
        "    return coords\n\n\n"
        "use(Box())\n")
    tool = load_tool()
    monkeypatch.setattr(tool, "PACKAGE", tmp_path)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    assert tool.main(["uncalled"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "mod.py:2: Box.coords", "1 definitions never named in src/"]
