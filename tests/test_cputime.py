"""`tools/cputime.py`: its summary on synthetic numbers, and a few ops of this
checkout against itself, in this process; no process is started."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CPUTIME = ROOT / "tools" / "cputime.py"


@pytest.fixture(scope="module")
def cputime():
    spec = importlib.util.spec_from_file_location("cputime_tool", CPUTIME)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_summary_takes_per_round_ratios(cputime):
    s = cputime.summarise([500.0, 520.0, 480.0], [450.0, 530.0, 456.0])
    assert s["parent"] == (480.0, 500.0) and s["change"] == (450.0, 456.0)
    # the ratios are 0.9, 530/520 and 0.95: their median, not the medians' ratio
    assert s["ratio"] == pytest.approx(0.95)
    assert (s["wins"], s["rounds"]) == (2, 3)


def test_this_checkout_against_itself(cputime, capsys):
    modules = dict(sys.modules)
    assert cputime.main([str(ROOT), str(ROOT), "--workload", "certify-wide", "--ops", "4",
                         "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("certify-wide: 4 ops at seed 1, 2 rounds; "
                        "every op's exit code and stdout equal on both sides")
    assert [line.split("  ")[0] for line in lines[1:3]] == ["round 1 (parent first)",
                                                            "round 2 (change first)"]
    assert [line.split()[0] for line in lines[3:5]] == ["parent", "change"]
    assert lines[5].startswith("median ratio change/parent ")
    assert lines[5].endswith(" of 2 rounds") and len(lines) == 6
    # both copies of the package are gone again, and the package under test
    # is the one it was
    assert not [m for m in sys.modules if m.startswith(("skewalg_parent", "skewalg_change"))]
    assert sys.modules["skewalg"] is modules["skewalg"]


def test_a_report_that_differs_is_printed_and_fails(cputime, capsys, tmp_path):
    # a copy of src/ whose report names another field
    change = tmp_path / "change"
    (change / "src").mkdir(parents=True)
    source = ROOT / "src" / "skewalg"
    (change / "src" / "skewalg").mkdir()
    for path in source.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.name == "cli.py":
            old = '"field": str(inst.action.algebra.field)'
            assert old in text
            text = text.replace(old, '"field": "F" + str(inst.action.algebra.field)')
        (change / "src" / "skewalg" / path.name).write_text(text, encoding="utf-8")
    assert cputime.main([str(ROOT), str(change), "--workload", "differential", "--ops", "2",
                         "--rounds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["op %d (separability op%05d.json --oracle): exit code or stdout differs"
                     % (i, i) for i in range(2)]
