"""`tools/ladder.py` on tiny rungs: the ladder itself runs outside tier-1."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ladder", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_rung_specs_parse_and_bad_ones_are_refused():
    tool = load_tool()
    assert tool.parse_spec("Q:8,6,16:10") == {
        "spec": "Q:8,6,16:10", "field": "Q", "k": 8, "m": 6, "d": 16, "D": 10,
        "kind": "stages"}
    assert tool.parse_spec("GF(2):4,6,8:8:skew-table")["kind"] == "skew-table"
    assert [tool.parse_spec(s)["kind"] for s in tool.RUNGS].count("stages") == 6
    for bad in ("Q:4,6,8", "Q:4,6:8", "Q:4,6,8:9", "Q:4,6,8:0", "Q:4,6,8:8:table"):
        with pytest.raises(ValueError):
            tool.parse_spec(bad)


def test_each_kind_checks_its_rung_in_process(monkeypatch):
    tool = load_tool()
    monkeypatch.setenv("SKEWALG_MAX_DIM", "100000000")
    stages = tool.measure(tool.parse_spec("GF(2):2,2,3:2"), 2, 768)
    assert stages["ok"] and stages["dim_a"] == 4 and stages["arrows"] == 8
    assert set(stages["seconds"]) == {"parse", "digest", "validate", "decide_cert", "oracle"}
    assert all(len(ts) == 2 for ts in stages["runs_s"].values())
    assert stages["checks"]["verdict"] and stages["checks"]["oracle_agrees"]
    # the oracle is opt-in above --oracle-up-to
    assert "oracle" not in tool.measure(tool.parse_spec("Q:2,2,3:2"), 1, 0)["seconds"]
    iso = tool.measure(tool.parse_spec("Q:3,2,2:2:isotropy"), 1, 768)
    assert iso["ok"] and set(iso["seconds"]) == {"command"}
    table = tool.measure(tool.parse_spec("Q:2,2,2:2:skew-table"), 1, 768)
    assert table["ok"] and table["checks"]["ring_dim"] and table["ring_dim"] == 16
    assert set(table["seconds"]) == {"parse", "digest", "validate", "ring"}


def test_one_rung_runs_in_a_child_process_and_is_written(tmp_path, capsys):
    tool = load_tool()
    out = tmp_path / "ladder.json"
    assert tool.main(["--rung", "Q:2,2,2:2", "--runs", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["src_sha256"] == tool.src_digest(tool.ROOT)
    [rung] = report["rungs"]
    assert rung["ok"] and rung["closed_form_separable"]
    assert rung["peak_rss_mb"] > 0
    assert capsys.readouterr().out.startswith("Q:2,2,2:2")
