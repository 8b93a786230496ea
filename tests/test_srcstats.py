"""`tools/srcstats.py uncalled` lists no definition of `src/`, and exits 1
when it lists one."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "srcstats.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("srcstats", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_uncalled_lists_no_definition_in_src(capsys):
    assert load_tool().main(["uncalled"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 definitions never named in src/"]


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
    assert tool.main(["uncalled"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "mod.py:2: Box.coords", "1 definitions never named in src/"]
