import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewalg import Algebra, PartialAction, cli
from skewalg.cli import main, render
from skewalg.fuzz import random_skeleton, run_differential, skeleton_to_instance
from skewalg.skew_ring import SkewRing, TensorOverA

from conftest import (INSTANCE_DIR, instance_data, instance_path, load_action,
                      non_central_domain, opposite_oracle, reference_trace_invariant_suite,
                      subspace_invariant_suite)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_good_instance(capsys):
    code, out, err = run_cli(capsys, "validate", str(instance_path("partial_bridge_q.json")))
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert report["groupoid_violations"] == []
    assert report["action_violations"] == []
    assert report["object_decomposition"]
    assert "invariants" not in report
    assert all(subspace_invariant_suite(load_action("partial_bridge_q.json")).values())
    assert report["metadata"]["map_convention"] == "annihilate_complement"
    assert "elapsed_ms" in err


def test_validate_flip_instances(capsys):
    for name in ("z2_flip_q.json", "z2_flip_gf2.json"):
        code, out, _ = run_cli(capsys, "validate", str(instance_path(name)))
        assert code == 0
        assert json.loads(out)["ok"]


def test_validate_broken_inverse_exits_nonzero(capsys, tmp_path):
    data = instance_data("partial_bridge_q.json")
    data["groupoid"]["inverse"] = []
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    report = json.loads(out)
    assert not report["ok"]
    codes = {v["code"] for v in report["groupoid_violations"]}
    assert "MissingInverse" in codes


def test_metadata_field_is_the_same_for_every_spelling(capsys, tmp_path):
    fields = []
    for i, spelling in enumerate(("GF(5)", {"prime": 5})):
        data = instance_data("z2_flip_gf3.json")
        data["field"] = spelling
        path = tmp_path / ("f%d.json" % i)
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "separability", str(path))
        assert code == 0
        fields.append(json.loads(out)["metadata"]["field"])
    assert fields == ["GF(5)", "GF(5)"]


def test_unreadable_file_exits_two(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2
    assert not json.loads(out)["ok"]


def test_oversized_json_integer_exits_two(capsys, tmp_path):
    # json.load itself refuses integers past the int-to-string digit limit
    text = instance_path("partial_bridge_q.json").read_text()
    bad = tmp_path / "long_int.json"
    bad.write_text(text.replace('"diagonal": 4', '"diagonal": ' + "4" * 5000, 1))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceFormatError"


@pytest.mark.parametrize("algebra", [
    {"diagonal": -2},
    {"diagonal": 2.5},
    {"diagonal": True},
    {"diagonal": 10**9},
    {"structure": [[]] * 129, "unit": []},
], ids=["negative", "fraction", "bool", "huge", "long-structure"])
def test_hostile_algebra_dimension_exits_two(capsys, tmp_path, algebra):
    # rejected before any structure of size dim^3 is built
    data = instance_data("z2_flip_q.json")
    data["algebra"] = algebra
    bad = tmp_path / "dim.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "InstanceFormatError"
    assert "algebra dimension must be an integer from 0 to 128" in error["message"]


@pytest.mark.parametrize("prime", [2.5, True, "5"], ids=["fraction", "bool", "string"])
def test_non_integer_prime_exits_two(capsys, tmp_path, prime):
    # int() would truncate 2.5 to GF(2) and read "5" as GF(5)
    data = instance_data("z2_flip_gf2.json")
    data["field"] = {"prime": prime}
    bad = tmp_path / "prime.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceFormatError"


@pytest.mark.parametrize("spelling", ["GF(02)", "GF( 2)", "GF(+2)", {"prime": 2}],
                         ids=["leading-zero", "space", "plus", "prime"])
def test_every_spelling_of_a_field_gives_one_digest(capsys, tmp_path, spelling):
    # the canonical form names the parsed field, not the text it was read from
    code, out, _ = run_cli(capsys, "validate", str(instance_path("z2_flip_gf2.json")))
    assert code == 0
    shipped = json.loads(out)
    data = instance_data("z2_flip_gf2.json")
    data["field"] = spelling
    path = tmp_path / "spelled.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["metadata"]["field"] == "GF(2)"
    assert report["instance"]["digest"] == shipped["instance"]["digest"]


def test_exponent_scalar_exits_two(capsys, tmp_path):
    data = instance_data("partial_bridge_q.json")
    data["action"]["g"]["map"][2][1] = "1e5000"
    bad = tmp_path / "exponent.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceFormatError"


def test_boolean_scalar_exits_two(capsys, tmp_path):
    # JSON true/false are not the integers 1 and 0, as for "prime" and "diagonal"
    data = instance_data("z2_flip_q.json")
    data["action"]["id:e1"]["dom"] = [True, False]
    bad = tmp_path / "boolean.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceFormatError"


def test_string_in_place_of_an_array_exits_two(capsys, tmp_path):
    # "10" was read as the vector [1, 0]: the instance validated with the
    # shipped digest
    data = instance_data("z2_flip_q.json")
    data["action"]["id:e1"]["dom"] = "10"
    data["action"]["g"]["map"] = ["10", "00"]
    bad = tmp_path / "strings.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceFormatError"


def test_invalid_action_fails_commands_that_need_it(capsys, tmp_path):
    data = instance_data("partial_bridge_q.json")
    data["action"]["ginv"]["map"] = [[0, 0, 0, 0]] * 4
    bad = tmp_path / "zeroed.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "traces", str(bad))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ActionError"
    # validate itself reports the violation list instead of an error
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    report = json.loads(out)
    assert {v["code"] for v in report["action_violations"]} == {"NotRingIso"}


def _one_arrow_instance(compose) -> dict:
    """One object, one non-identity arrow g with inverse g, the trivial action on k."""
    return {"field": "Q",
            "groupoid": {"objects": ["e"],
                         "morphisms": [{"name": "g", "src": "e", "tgt": "e"}],
                         "compose": compose, "inverse": [["g", "g"]]},
            "algebra": {"diagonal": 1},
            "action": {"id:e": {"dom": [1]}, "g": {"dom": [1], "map": [[1]]}}}


@pytest.mark.parametrize("compose,code", [
    ([], "BadComposition"),
    ([["g", "g", "g"]], "MissingInverse"),
], ids=["missing-product", "no-identity-product"])
def test_groupoid_law_failure_fails_commands_that_need_it(capsys, tmp_path, compose, code):
    bad = tmp_path / "bad_groupoid.json"
    bad.write_text(json.dumps(_one_arrow_instance(compose)))
    for cmd in ("traces", "separability", "skew-table"):
        exit_code, out, _ = run_cli(capsys, cmd, str(bad))
        assert exit_code == 1, cmd
        report = json.loads(out)
        assert not report["ok"]
        assert report["error"]["type"] == "ActionError", cmd
    # validate itself lists the groupoid violations and checks no action axiom
    exit_code, out, _ = run_cli(capsys, "validate", str(bad))
    assert exit_code == 1
    report = json.loads(out)
    assert {v["code"] for v in report["groupoid_violations"]} == {code}
    assert "action_violations" not in report


def test_components_command(capsys):
    code, out, _ = run_cli(capsys, "components", str(instance_path("partial_bridge_q.json")))
    assert code == 0
    report = json.loads(out)
    assert report["classes"] == [["e1", "e2"]]
    assert report["transversal"] == ["e1"]


def test_components_of_a_glued_file(capsys, tmp_path):
    # serialize the glued double back to the file format and read it again
    from skewalg.instances import parse_instance
    from conftest import canonical_dict, glue_components, renamed_instance

    base = instance_data("partial_bridge_q.json")
    glued = glue_components([
        parse_instance(renamed_instance(base, "L.")).action,
        parse_instance(renamed_instance(base, "R.")).action,
    ])
    path = tmp_path / "glued.json"
    path.write_text(json.dumps(canonical_dict(glued)))
    code, out, _ = run_cli(capsys, "components", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["classes"] == [["L.e1", "L.e2"], ["R.e1", "R.e2"]]
    assert report["transversal"] == ["L.e1", "R.e1"]
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and json.loads(out)["ok"]


def test_traces_command(capsys):
    code, out, _ = run_cli(capsys, "traces", str(instance_path("z2_flip_gf2.json")))
    assert code == 0
    report = json.loads(out)
    by_target = {t["target"]: t["matrix"] for t in report["trace_into"]}
    # doubling map vanishes mod 2
    assert by_target["e1"] == [["0", "0"], ["0", "0"]]
    assert "invariants" not in report
    assert all(reference_trace_invariant_suite(load_action("z2_flip_gf2.json")).values())


def test_validate_and_traces_print_no_identity_of_a_valid_action(capsys, tmp_path):
    # the identities of a valid action follow from its axioms (proofs in
    # test_paction and test_separability), so neither report prints them:
    # `traces` exits 0 once the action is valid, and `validate`'s ok is its
    # object decomposition
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        for cmd in ("validate", "traces"):
            code, out, _ = run_cli(capsys, cmd, str(path))
            report = json.loads(out)
            assert (code, report["ok"]) == (0, True), (cmd, path.name)
            assert "invariants" not in report
    # a planted invalid action is refused before any trace matrix
    data = instance_data("z2_flip_q.json")
    data["action"]["g"]["map"] = [[2, 0], [0, 0]]
    bad = tmp_path / "doubled.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "traces", str(bad))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ActionError"


def test_validate_ok_is_the_object_decomposition(capsys, tmp_path):
    # a valid action on k^2 with one object, 1_e = b1: every axiom holds, but
    # the object idempotents do not sum to 1
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"field": "Q", "groupoid": {"objects": ["e"]},
                                "algebra": {"diagonal": 2},
                                "action": {"id:e": {"dom": ["1", "0"]}}}))
    code, out, _ = run_cli(capsys, "validate", str(path))
    report = json.loads(out)
    assert report["groupoid_violations"] == report["action_violations"] == []
    assert report["object_decomposition"] is False
    assert report["ok"] is report["object_decomposition"] and code == 1
    assert "invariants" not in report


# no objects; one object over the zero algebra; two objects over k, one
# of them with 1_f = 0 (so A_{id_f} = 0)
DEGENERATE = {
    "no-objects": ({"field": "Q", "groupoid": {"objects": []},
                    "algebra": {"diagonal": 0}, "action": {}}, 0),
    "zero-algebra": ({"field": "Q", "groupoid": {"objects": ["e"]},
                      "algebra": {"diagonal": 0}, "action": {"id:e": {"dom": []}}}, 0),
    "zero-object-ideal": ({"field": "Q", "groupoid": {"objects": ["e", "f"]},
                           "algebra": {"diagonal": 1},
                           "action": {"id:e": {"dom": ["1"]}, "id:f": {"dom": ["0"]}}}, 1),
}


@pytest.mark.parametrize("name", list(DEGENERATE))
def test_degenerate_instances_run_every_command(capsys, tmp_path, name):
    data, tensor_dim = DEGENERATE[name]
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(data))
    for argv in (["validate"], ["traces"], ["separability", "--oracle"],
                 ["separability", "--global", "--isotropy"], ["skew-table"]):
        code, out, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 0, argv
        report = json.loads(out)
        if "--oracle" in argv:
            oracle = report["oracle"]
            assert oracle["agrees_with_decision"]
            assert oracle["separable"] == report["verdict"]["separable"]
            assert oracle["tensor_dim"] == tensor_dim


def test_oversized_tensor_square_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("SKEWALG_MAX_DIM", "10")
    code, out, _ = run_cli(capsys, "separability",
                           str(instance_path("partial_bridge_q.json")), "--oracle")
    assert code == 2
    report = json.loads(out)
    assert not report["ok"]
    assert report["error"]["type"] == "TensorTooLarge"
    assert report["error"]["message"] == \
        "tensor ambient dimension 36 exceeds cap 10 (SKEWALG_MAX_DIM)"


def test_oversized_skew_table_exits_two(capsys, monkeypatch):
    # the table of the bridge's ring dim 6 holds 36 products
    path = str(instance_path("partial_bridge_q.json"))
    monkeypatch.setenv("SKEWALG_MAX_DIM", "35")
    code, out, _ = run_cli(capsys, "skew-table", path)
    assert code == 2
    report = json.loads(out)
    assert not report["ok"]
    assert report["error"]["type"] == "TensorTooLarge"
    assert report["error"]["message"] == \
        "skew ring table size 36 exceeds cap 35 (SKEWALG_MAX_DIM)"
    monkeypatch.setenv("SKEWALG_MAX_DIM", "36")
    code, out, _ = run_cli(capsys, "skew-table", path)
    assert code == 0 and json.loads(out)["ring_dim"] == 6


@pytest.mark.parametrize("name", ["partial_bridge_q.json", "z2_flip_gf2.json"])
def test_a_disagreeing_oracle_fails_the_report(capsys, monkeypatch, name):
    # an oracle of the opposite answer shows as agrees_with_decision false
    # and exit 1, whichever the verdict; the planted solution's extracted
    # witness, 0, is no witness
    monkeypatch.setattr(cli, "oracle_separability", opposite_oracle)
    code, out, _ = run_cli(capsys, "separability", str(instance_path(name)), "--oracle")
    report = json.loads(out)
    assert code == 1 and report["ok"] is False
    assert report["oracle"]["agrees_with_decision"] is False
    assert report["oracle"]["separable"] is not report["verdict"]["separable"]
    assert report["oracle"].get("extracted_witness_ok") is (
        None if report["verdict"]["separable"] else False)


def test_oversized_square_is_refused_before_the_decision(capsys, monkeypatch):
    def no_decision(pa):
        raise AssertionError("the trace decision ran")

    monkeypatch.setattr(cli, "decide_separability", no_decision)
    monkeypatch.setenv("SKEWALG_MAX_DIM", "10")
    code, out, _ = run_cli(capsys, "separability",
                           str(instance_path("partial_bridge_q.json")), "--oracle")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "TensorTooLarge"


def test_size_cap_does_not_bound_plain_separability(capsys, monkeypatch):
    # only --oracle builds the square; the certificate is checked without it
    path = str(instance_path("partial_bridge_q.json"))
    code, out, _ = run_cli(capsys, "separability", path)
    monkeypatch.setenv("SKEWALG_MAX_DIM", "10")
    capped_code, capped_out, _ = run_cli(capsys, "separability", path)
    assert code == capped_code == 0
    assert capped_out == out


def test_malformed_size_cap_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("SKEWALG_MAX_DIM", "abc")
    code, out, _ = run_cli(capsys, "separability",
                           str(instance_path("partial_bridge_q.json")), "--oracle")
    assert code == 2
    report = json.loads(out)
    assert not report["ok"]
    assert report["error"]["type"] == "InvalidSizeCap"
    assert "SKEWALG_MAX_DIM" in report["error"]["message"]


def test_separability_command_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "separability",
                           str(instance_path("partial_bridge_q.json")), "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["separable"]
    assert report["verdict"]["witness"] == ["1", "0", "1", "1"]
    fam = report["verdict"]["certificate"]["witness_family"]
    assert fam["particular"] == ["1", "0", "1", "1"]
    assert fam["kernel"] == [["0", "1", "-1", "0"]]
    assert report["oracle"]["agrees_with_decision"]
    assert report["oracle"]["extracted_witness_ok"]


def test_separability_of_flip_across_fields(capsys):
    results = {}
    for name in ("z2_flip_q.json", "z2_flip_gf3.json", "z2_flip_gf2.json"):
        code, out, _ = run_cli(capsys, "separability", str(instance_path(name)),
                               "--oracle")
        report = json.loads(out)
        results[name] = (code, report["verdict"]["separable"],
                         report["oracle"]["agrees_with_decision"])
    assert results["z2_flip_q.json"] == (0, True, True)
    assert results["z2_flip_gf3.json"] == (0, True, True)
    assert results["z2_flip_gf2.json"] == (0, False, True)


def test_separability_global_and_isotropy_flags(capsys):
    code, out, _ = run_cli(capsys, "separability",
                           str(instance_path("pair_swap_global_q.json")),
                           "--global", "--isotropy")
    assert code == 0
    report = json.loads(out)
    assert report["decision_path"] == "global_transversal"
    assert report["verdict"]["separable"]
    tr = report["isotropy_transport"][0]
    assert tr["object"] == "e1"
    assert all(tr["checks"].values())
    assert all(all(p["checks"].values()) for p in tr["isotropy_isomorphisms"])


def test_global_flag_on_partial_action_fails(capsys):
    code, out, _ = run_cli(capsys, "separability",
                           str(instance_path("partial_bridge_q.json")), "--global")
    assert code == 1
    report = json.loads(out)
    assert report["error"]["type"] == "NotGlobal"


def test_skew_table_command(capsys, tmp_path):
    trivial = {
        "field": "Q",
        "groupoid": {"objects": ["e"], "morphisms": [], "compose": [], "inverse": []},
        "algebra": {"diagonal": 1},
        "action": {"id:e": {"dom": [1]}},
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(trivial))
    code, out, _ = run_cli(capsys, "skew-table", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["ring_dim"] == 1
    assert report["products"] == [{"left": ["id:e", ["1"]],
                                   "right": ["id:e", ["1"]],
                                   "product": ["1"]}]


def test_skew_table_reports_a_non_central_domain_as_an_action_error(capsys, tmp_path):
    # the report is pinned byte for byte, like the golden digests
    path = tmp_path / "non_central.json"
    path.write_text(json.dumps(non_central_domain()))
    code, out, _ = run_cli(capsys, "skew-table", str(path))
    assert code == 1
    assert json.loads(out) == {
        "command": "skew-table", "ok": False,
        "error": {"type": "ActionError",
                  "message": "invalid partial action: 1_s is not a central idempotent"}}
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "5084a357f902d0f0fbf7e9444ad0d1da74863969596bba84ab81978b4bbb1f16"


def test_skew_table_bridge_spot_checks(capsys):
    code, out, _ = run_cli(capsys, "skew-table",
                           str(instance_path("partial_bridge_q.json")))
    report = json.loads(out)
    assert report["ring_dim"] == 6

    def product(left, right):
        for r in report["products"]:
            if r["left"] == left and r["right"] == right:
                return r["product"]
        raise KeyError((left, right))

    # identities come first in morphism order, so the basis is
    # (id:e1, v1), (id:e1, v2), (id:e2, v3), (id:e2, v4), (g, v3), (ginv, v2)
    assert report["basis"] == [["id:e1", ["1", "0", "0", "0"]],
                               ["id:e1", ["0", "1", "0", "0"]],
                               ["id:e2", ["0", "0", "1", "0"]],
                               ["id:e2", ["0", "0", "0", "1"]],
                               ["g", ["0", "0", "1", "0"]],
                               ["ginv", ["0", "1", "0", "0"]]]
    # (v3 d_g)(v2 d_ginv) = v3 d_id:e2 -> basis position 2
    assert product(["g", ["0", "0", "1", "0"]], ["ginv", ["0", "1", "0", "0"]]) == \
        ["0", "0", "1", "0", "0", "0"]
    # (v2 d_ginv)(v3 d_g) = v2 d_id:e1 -> basis position 1
    assert product(["ginv", ["0", "1", "0", "0"]], ["g", ["0", "0", "1", "0"]]) == \
        ["0", "1", "0", "0", "0", "0"]
    # composable through the identity: (v2 d_id:e1)(v2 d_ginv) = v2 d_ginv
    assert product(["id:e1", ["0", "1", "0", "0"]], ["ginv", ["0", "1", "0", "0"]]) == \
        ["0", "0", "0", "0", "0", "1"]
    # non-composable pair vanishes
    assert product(["g", ["0", "0", "1", "0"]], ["g", ["0", "0", "1", "0"]]) == \
        ["0"] * 6


def test_reports_are_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "separability",
                         str(instance_path("partial_bridge_q.json")), "--oracle")
    _, out2, _ = run_cli(capsys, "separability",
                         str(instance_path("partial_bridge_q.json")), "--oracle")
    assert out1 == out2


def test_out_flag_writes_the_same_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    _, out, _ = run_cli(capsys, "validate",
                        str(instance_path("partial_bridge_q.json")),
                        "--out", str(target))
    assert target.read_text() == out


def test_unwritable_out_exits_two_before_the_command_runs(capsys, tmp_path):
    target = str(tmp_path / "missing" / "x.json")
    for argv in (("components", str(instance_path("z2_flip_q.json"))),
                 ("fuzz", "--count", "1")):
        code, out, _ = run_cli(capsys, *argv, "--out", target)
        assert code == 2
        assert json.loads(out) == {"command": argv[0], "ok": False, "error": {
            "type": "FileNotFoundError",
            "message": "[Errno 2] No such file or directory: %r" % target}}


def test_out_may_name_the_instance_file(capsys, tmp_path):
    target = tmp_path / "flip.json"
    target.write_text(instance_path("z2_flip_q.json").read_text())
    _, out, _ = run_cli(capsys, "components", str(target), "--out", str(target))
    assert json.loads(out)["ok"] and target.read_text() == out


def test_fuzz_command_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "fuzz", "--seed", "1", "--count", "3")
    code2, out2, _ = run_cli(capsys, "fuzz", "--seed", "1", "--count", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["all_agree"]
    assert len(report["instances"]) == 6  # three skeletons over two fields


def test_fuzz_count_zero_is_an_empty_pass(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--seed", "1", "--count", "0")
    assert code == 0
    report = json.loads(out)
    assert report["instances"] == []
    assert report["all_agree"]


@pytest.mark.parametrize("flag, value, low", [
    ("--count", "-1", 0), ("--max-morphisms", "0", 1), ("--max-dim", "-3", 1)])
def test_fuzz_rejects_bounds_it_cannot_keep(capsys, flag, value, low):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--seed", "1", flag, value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "argument %s: must be at least %d, got %s" % (flag, low, value) in err


def test_fuzz_smallest_bounds_are_kept(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--seed", "2", "--count", "3",
                           "--max-morphisms", "1", "--max-dim", "1")
    assert code == 0
    report = json.loads(out)
    assert report["bounds"] == {"max_dim": 1, "max_morphisms": 1}
    assert all(r["morphisms"] == r["algebra_dim"] == 1 for r in report["instances"])


def _count_builds(monkeypatch, classes=(SkewRing, TensorOverA)) -> dict:
    """Count constructions of each of `classes` from now on."""
    counts = {cls: 0 for cls in classes}
    for cls in counts:
        def counted(self, *args, init=cls.__init__, cls=cls, **kwargs):
            counts[cls] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def _global_instances() -> list:
    from skewalg.instances import load_instance

    return [p for p in sorted(INSTANCE_DIR.glob("*.json"))
            if load_instance(p).action.is_global()]


@pytest.mark.parametrize("flags,squares", [
    (("--oracle",), 1),
    ((), 0),
    (("--global",), 0),
    (("--isotropy",), 0),
    (("--global", "--isotropy"), 0),
], ids=["oracle", "plain", "global", "isotropy", "global-isotropy"])
def test_separability_oracle_builds_no_ring_and_one_square(capsys, monkeypatch,
                                                           flags, squares):
    # no separability path builds the ring; only the oracle builds its
    # square, and the certificate and the isotropy conjugations do not
    paths = (_global_instances() if {"--global", "--isotropy"} & set(flags)
             else sorted(INSTANCE_DIR.glob("*.json")))
    assert paths
    counts = _count_builds(monkeypatch)
    for path in paths:
        code, _, _ = run_cli(capsys, "separability", str(path), *flags)
        assert code == 0
        assert counts == {SkewRing: 0, TensorOverA: squares}, path.name
        counts.update({SkewRing: 0, TensorOverA: 0})


def test_skew_table_builds_one_ring_and_no_square(capsys, monkeypatch):
    counts = _count_builds(monkeypatch)
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        code, _, _ = run_cli(capsys, "skew-table", str(path))
        assert code == 0
        assert counts == {SkewRing: 1, TensorOverA: 0}, path.name
        counts.update({SkewRing: 0, TensorOverA: 0})


@pytest.mark.parametrize("flags", [(), ("--global",), ("--oracle",), ("--isotropy",),
                                   ("--global", "--isotropy")],
                         ids=["plain", "global", "oracle", "isotropy", "global-isotropy"])
def test_separability_constructs_only_the_parsed_algebra_and_action(capsys, monkeypatch,
                                                                   flags):
    # each component is decided, and each isotropy conjugation checked, on A
    # itself: no restricted subalgebra or sub-action is built, so the parsed
    # ones are the only ones
    paths = sorted(INSTANCE_DIR.glob("*.json"))
    assert {"two_components_q.json", "two_components_gf2.json"} <= {p.name for p in paths}
    counts = _count_builds(monkeypatch, (Algebra, PartialAction))
    for path in paths:
        run_cli(capsys, "separability", str(path), *flags)
        assert counts == {Algebra: 1, PartialAction: 1}, path.name
        counts.update({Algebra: 0, PartialAction: 0})


def test_differential_builds_no_ring_and_one_square(monkeypatch):
    counts = _count_builds(monkeypatch)
    rng = random.Random(1)
    for _ in range(3):
        skel = random_skeleton(rng)
        for fdesc in ("Q", "GF(2)"):
            assert run_differential(skeleton_to_instance(skel, fdesc))["agree"]
            assert counts == {SkewRing: 0, TensorOverA: 1}
            counts.update({SkewRing: 0, TensorOverA: 0})


def test_isotropy_builds_no_ring_and_no_sub_action(capsys, monkeypatch, tmp_path):
    # a global component on three objects: both conjugations are checked on
    # A's vectors, so no isotropy action or ring is built next to the parsed
    # action
    skel = {"components": [{"k": 3, "m": 2, "d": 2, "sigma": [1, 0],
                            "tau": [[0, 1], [1, 0], [0, 1]],
                            "T": [[0, 1], [0, 1], [0, 1]]}]}
    path = tmp_path / "global3.json"
    path.write_text(json.dumps(skeleton_to_instance(skel, "Q")))
    counts = _count_builds(monkeypatch, (SkewRing, PartialAction))
    code, out, _ = run_cli(capsys, "separability", str(path), "--isotropy")
    assert code == 0
    assert len(json.loads(out)["isotropy_transport"][0]["isotropy_isomorphisms"]) == 2
    assert counts == {SkewRing: 0, PartialAction: 1}


def test_separability_computes_each_product_and_alpha_image_once(capsys, monkeypatch):
    # the algebra keeps its products and the action its alpha-images, so
    # each distinct (x, y) reaches the table product once and each distinct
    # (g, v) reaches the matrix of alpha_g once
    import skewalg.algebra
    from skewalg.linalg import Matrix

    products, images = [], []
    alpha_of = {}          # id of a parsed alpha matrix -> its morphism
    table_product, apply, init = (skewalg.algebra.table_product, Matrix.apply,
                                  PartialAction.__init__)

    def counted_product(table, x, y, field):
        products.append((tuple(x), tuple(y)))
        return table_product(table, x, y, field)

    def counted_apply(self, v):
        if id(self) in alpha_of:
            images.append((alpha_of[id(self)], tuple(v)))
        return apply(self, v)

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alpha_of.update({id(m): g for g, m in self.maps.items()})

    monkeypatch.setattr(skewalg.algebra, "table_product", counted_product)
    monkeypatch.setattr(Matrix, "apply", counted_apply)
    monkeypatch.setattr(PartialAction, "__init__", recorded_init)
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        code, _, _ = run_cli(capsys, "separability", str(path))
        assert code == 0, path.name
        assert products and images, path.name
        assert len(products) == len(set(products)), path.name
        assert len(images) == len(set(images)), path.name
        products.clear()
        images.clear()
        alpha_of.clear()


def _fresh_process(argv, env) -> tuple:
    """(exit code, stdout, stderr) of `python -m skewalg.cli argv` in a new process."""
    proc = subprocess.run([sys.executable, "-m", "skewalg.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_process_parses_like_fresh_processes(capsys, monkeypatch):
    # the parser is built once per process; later calls, including one after
    # an argparse error, must behave exactly as in a fresh process
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    path = str(instance_path("partial_bridge_q.json"))
    bad = ["separability", path, "--no-such-flag"]
    for argv in (["separability", path], ["validate", path], bad,
                 ["separability", path, "--oracle"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh_code, fresh_out, fresh_err = _fresh_process(argv, env)
        assert (code, out) == (fresh_code, fresh_out), argv
        if argv is bad:
            assert code == 2 and out == ""
            assert err == fresh_err
            assert "unrecognized arguments: --no-such-flag" in err


def _parsed(capsys, parse, argv) -> tuple:
    """(exit code or the parsed namespace's attributes, stdout, stderr) of
    one parse."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def _parser_corpus(path: str, out: str) -> list:
    return [
        *([cmd, path] for cmd in ("validate", "components", "traces", "separability",
                                  "skew-table")),
        ["fuzz"], ["fuzz", "--seed", "3", "--count", "2", "--max-morphisms", "4",
                   "--max-dim", "2", "--out", out],
        ["validate", path, "--out", out], ["traces", "--out=%s" % out, path],
        ["separability", path, "--oracle", "--global", "--isotropy"],
        ["separability", path, "--orac"], ["separability", path, "--glo", "--out", out],
        ["validate", "--", path], ["separability", "--oracle", "--", path],
        ["validate", path, "--no-such-flag"], ["separability", path, "extra", "--oracle"],
        ["separability", path, "--oracle", "--oracle=1"], ["validate"], ["skew-table", "--out"],
        ["validate", "-h"], ["separability", path, "--help"], ["fuzz", "-h"], ["-h"],
        ["--help", "validate"], [], ["frobnicate", path], ["--", "validate", path],
        ["-x", "validate", path],
        ["fuzz", "--count", "-1"], ["fuzz", "--max-morphisms", "0"], ["fuzz", "--max-dim", "-3"],
        ["fuzz", "--count", "x"], ["fuzz", "--seed"],
    ]


def test_one_pass_parsing_is_the_top_level_parse(capsys, monkeypatch, tmp_path):
    # every argv parses, or fails with the same exit code, stdout and stderr,
    # as through the top-level parser; argv[0] naming a command sends the
    # rest straight to its subparser
    monkeypatch.setenv("COLUMNS", "80")
    top = cli.build_parser()[0]
    path = str(instance_path("z2_flip_q.json"))
    for argv in _parser_corpus(path, str(tmp_path / "out.json")):
        one_pass = _parsed(capsys, cli.parse_args, list(argv))
        assert one_pass == _parsed(capsys, top.parse_args, list(argv)), argv
    # with no argv, both read sys.argv
    for argv in (["validate", path, "--orac"], ["separability", path, "--oracle"], ["-h"]):
        monkeypatch.setattr(sys, "argv", ["skewalg", *argv])
        assert _parsed(capsys, lambda _: cli.parse_args(), None) == \
            _parsed(capsys, lambda _: top.parse_args(), None)
    # and main() runs the command sys.argv names
    monkeypatch.setattr(sys, "argv", ["skewalg", "separability", path, "--orac"])
    assert main() == 0
    out = capsys.readouterr().out
    assert (main(["separability", path, "--oracle"]), capsys.readouterr().out) == (0, out)


def test_package_runs_as_a_module_from_a_checkout(capsys):
    # `PYTHONPATH=src python -m skewalg` is `cli.main` in a fresh process
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["validate", str(instance_path("z2_flip_q.json"))]
    code = main(argv)
    out, _ = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "skewalg", *argv],
                          capture_output=True, text=True, env=env, check=False)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and json.loads(out)["ok"] is True


@pytest.mark.parametrize("field,spelling", [("GF(5)", "1 / 2"), ("GF(3)", "-1/-2"),
                                            ("Q", "1/ 2")])
def test_a_scalar_outside_the_grammar_exits_two_over_every_field(capsys, tmp_path,
                                                                 field, spelling):
    data = instance_data("z2_flip_q.json")
    data["field"] = field
    data["action"]["id:e1"]["dom"][0] = spelling
    bad = tmp_path / "spelling.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceFormatError"


# -- the one-pass report writer against json.dumps -------------------------------------

_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-10**400, max_value=10**400) | st.text())
_TREES = st.recursive(
    _LEAVES,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_TREES)
@example({"q": 'a "quoted" \\ path\n\t\x00\x1f\u00e9\u2603\U0001f600\ud800'})
@example({"": {}, "a": [], "b": (), "c": [[], {}, ()], "d": {"e": {"f": [{}]}}})
@example([True, False, None, 0, -1, -(10**300), 10**300, (1, (2, ()))])
def test_render_is_json_dumps_with_indent_and_sorted_keys(tree):
    assert render(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, {1: "a"}, {"a": 1, 2: "b"},
                                   {True: 1}, {None: 1}, {("a",): 1}, {"s": {1, 2}},
                                   Fraction(1, 2)], ids=repr)
def test_render_refuses_what_it_would_not_render_as_json_does(value):
    # json.dumps writes floats and turns int, bool and None keys into strings
    with pytest.raises(TypeError):
        render(value)


def test_render_refuses_subclasses_of_the_rendered_types():
    class Flag(int):
        def __repr__(self):
            return "Flag"

    class Name(str):
        pass

    for value in (Flag(1), [Name("x")], {"k": Flag(0)}):
        with pytest.raises(TypeError):
            render(value)
