"""The summary and expectation rules of `tools/pairs.py` on synthetic numbers and
generated op lists; no benchmark runs and no process is started."""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs_tool", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [0.340, 0.338, 0.345, 0.342, 0.336, 0.341, 0.339, 0.344, 0.337, 0.343]


def test_a_clear_gain_on_every_pair_holds(pairs):
    change = [p - 0.04 for p in PARENT]
    s = pairs.summarise(PARENT, change, "lower")
    assert s["wins"] == 10 and s["holds"]
    assert s["parent"][0] == pytest.approx(0.3405)
    assert s["relative"] == pytest.approx(-0.04 / 0.3405)


def test_nine_wins_of_ten_hold_and_eight_do_not(pairs):
    change = [p - 0.04 for p in PARENT]
    change[0] = PARENT[0] + 0.01
    assert pairs.summarise(PARENT, change, "lower")["holds"]
    change[1] = PARENT[1]       # a tie is not a win
    s = pairs.summarise(PARENT, change, "lower")
    assert s["wins"] == 8 and not s["holds"]


def test_a_gap_inside_the_parent_iqr_does_not_hold(pairs):
    q1, _, q3 = pairs.quartiles(PARENT)
    change = [p - (q3 - q1) / 2 for p in PARENT]
    s = pairs.summarise(PARENT, change, "lower")
    assert s["wins"] == 10 and not s["holds"]


def test_higher_is_better_reverses_the_direction(pairs):
    up = [p + 0.04 for p in PARENT]
    assert pairs.summarise(PARENT, up, "higher")["holds"]
    assert not pairs.summarise(PARENT, up, "lower")["holds"]
    assert pairs.summarise(PARENT, up, "lower")["wins"] == 0


def test_unequal_or_short_runs_are_refused(pairs):
    with pytest.raises(ValueError):
        pairs.summarise(PARENT, PARENT[:9], "lower")
    with pytest.raises(ValueError):
        pairs.summarise([1.0], [0.5], "lower")


def test_paired_ops_compare_digest_and_stdout_not_time(pairs):
    parent = [["d1", "s1", 0.01], ["d2", "s2", 0.02], ["d3", "s3", 0.03]]
    change = [["d1", "s1", 0.5], ["d2", "sX", 0.02]]
    assert pairs.mismatched_ops(parent, change) == [1]
    assert pairs.mismatched_ops(parent, parent) == []


def test_differing_ops_must_match_an_expected_pattern(pairs):
    keys = ["validate op00000.json", "traces op00003.json", "validate op00009.json"]
    assert pairs.sort_differences(keys, []) == ([], keys, set())
    expected, unexpected, used = pairs.sort_differences(keys, ["validate *", "skew-table *"])
    assert expected == ["validate op00000.json", "validate op00009.json"]
    assert unexpected == ["traces op00003.json"]
    # the unused pattern is what main reports as matching no differing op
    assert used == {"validate *"}
    assert pairs.sort_differences([], ["validate *"]) == ([], [], set())


def test_op_keys_are_the_workload_command_lines(pairs):
    # generated in process, as `tools/opcounts.py` writes the ops; the
    # certify-wide rungs cycle through validate, traces and separability
    keys = pairs.op_keys("certify-wide", 1, 10)
    assert keys == ["%s op%05d.json" % (cmd, i) for i, cmd in
                    enumerate(["validate"] * 3 + ["traces"] * 3 + ["separability"] * 3
                              + ["validate"])]
    assert pairs.op_keys("differential", 2, 2) == ["separability op00000.json --oracle",
                                                   "separability op00001.json --oracle"]
    assert pairs.sort_differences(keys, ["validate *", "traces *"])[1] == keys[6:9]


def test_a_median_within_the_bound_is_within(pairs):
    change = [p * 1.05 for p in PARENT]
    assert pairs.no_regression(PARENT, change, "lower", 0.15) == "within bound"


def test_a_median_beyond_the_bound_is_worse(pairs):
    change = [p * 1.2 for p in PARENT]
    assert pairs.no_regression(PARENT, change, "lower", 0.15) == "worse than bound"
    assert pairs.no_regression(PARENT, [p * 0.8 for p in PARENT], "higher", 0.15) == \
        "worse than bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved(pairs):
    # the parent's IQR is about 37% of its median; a 25% bound cannot be read
    parent = [1.0, 1.5, 0.9, 1.3, 1.1, 1.4, 0.95, 1.6, 1.0, 1.2]
    assert pairs.no_regression(parent, list(parent), "lower", 0.25) == "unresolved"
    assert pairs.no_regression(parent, [p * 1.5 for p in parent], "lower", 0.25) == \
        "unresolved"


def test_every_change_run_better_than_every_parent_run_resolves_the_spread(pairs):
    parent = [1.0, 1.5, 0.9, 1.3, 1.1, 1.4, 0.95, 1.6, 1.0, 1.2]
    assert pairs.no_regression(parent, [0.8] * 9 + [0.89], "lower", 0.25) == "within bound"
    assert pairs.no_regression(parent, [0.8] * 9 + [0.9], "lower", 0.25) == "unresolved"
    assert pairs.no_regression(parent, [1.7] * 10, "higher", 0.25) == "within bound"
