"""`tools/parity.py`: the comparison rule on synthetic outputs, and one run of
this checkout against itself under one seed (two processes)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PARITY = ROOT / "tools" / "parity.py"

A, B = [0, "a" * 64], [0, "b" * 64]


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity_tool", PARITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent: dict, change: dict) -> dict:
    """The same outputs under seeds 0 and 1 on each side."""
    return {"parent": {0: parent, 1: dict(parent)}, "change": {0: change, 1: dict(change)}}


def test_equal_checkouts_hold(parity):
    outputs = {"validate x.json": A, "traces x.json": B}
    lines, ok = parity.compare(_runs(outputs, outputs), [])
    assert ok and lines == ["2 outputs per checkout under PYTHONHASHSEED 0, 1; "
                            "0 expected to change, 0 changed; parity holds"]


def test_a_difference_must_be_expected(parity):
    parent = {"validate x.json": A, "traces x.json": A}
    change = {"validate x.json": B, "traces x.json": A}
    lines, ok = parity.compare(_runs(parent, change), [])
    assert not ok
    assert [line for line in lines if "UNEXPECTED" in line] == [
        "between: validate x.json: seed %d parent exit 0 sha256 aaaaaaaaaaaa, "
        "change exit 0 sha256 bbbbbbbbbbbb  UNEXPECTED" % seed for seed in (0, 1)]
    assert parity.compare(_runs(parent, change), ["validate *"])[1]


def test_an_expected_output_must_change_under_every_seed(parity):
    parent = {"validate x.json": A, "traces x.json": A}
    change = {"validate x.json": B, "traces x.json": A}
    lines, ok = parity.compare(_runs(parent, change), ["validate *", "traces *"])
    assert not ok and "between: traces x.json: expected to change, unchanged under seed 0, 1" \
        in lines
    runs = _runs(parent, change)
    runs["change"][1]["validate x.json"] = A
    lines, ok = parity.compare(runs, ["validate *"])
    assert not ok and "between: validate x.json: expected to change, unchanged under seed 1" \
        in lines
    lines, ok = parity.compare(_runs(parent, change), ["validate *", "skew-table *"])
    assert not ok and "expect: pattern 'skew-table *' matches no output" in lines


def test_a_difference_between_seeds_fails_even_when_expected(parity):
    runs = _runs({"validate x.json": A}, {"validate x.json": B})
    runs["change"][1]["validate x.json"] = [1, "b" * 64]
    lines, ok = parity.compare(runs, ["validate *"])
    assert not ok
    assert lines[0] == ("within change: validate x.json: seed 0 exit 0 sha256 bbbbbbbbbbbb, "
                        "seed 1 exit 1 sha256 bbbbbbbbbbbb")


def test_a_missing_output_is_a_difference(parity):
    lines, ok = parity.compare(_runs({"validate x.json": A}, {}), [])
    assert not ok
    assert "missing" in lines[0] and "UNEXPECTED" in lines[0]


def test_expect_files_skip_comments_and_blank_lines(parity, tmp_path):
    path = tmp_path / "expect.txt"
    path.write_text("# the invariants key is gone\nvalidate *\n\ntraces *  # both\n")
    assert parity.read_expect(path) == ["validate *", "traces *"]


def test_this_checkout_against_itself(parity):
    lines, ok = parity.compare(parity.collect({"parent": ROOT, "change": ROOT}, (0,)), [])
    assert ok
    count = len(list((ROOT / "instances").glob("*.json"))) * len(parity.COMMANDS) + 1
    assert lines == ["%d outputs per checkout under PYTHONHASHSEED 0; 0 expected to change, "
                     "0 changed; parity holds" % count]
