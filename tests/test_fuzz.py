import random

import pytest

from skewalg.fuzz import (random_skeleton, run_differential, run_fuzz,
                          skeleton_to_instance)
from skewalg.instances import parse_instance


def test_generated_instances_are_valid_by_construction():
    rng = random.Random(42)
    for _ in range(10):
        skel = random_skeleton(rng)
        for fdesc in ("Q", "GF(2)", "GF(3)"):
            pa = parse_instance(skeleton_to_instance(skel, fdesc)).action
            assert pa.validate().ok
            assert pa.has_object_decomposition()


def test_generated_instances_respect_bounds():
    rng = random.Random(5)
    for _ in range(20):
        skel = random_skeleton(rng, max_morphisms=6, max_dim=6)
        pa = parse_instance(skeleton_to_instance(skel, "Q")).action
        assert len(pa.groupoid.morphisms) <= 6
        assert pa.algebra.dim <= 6


def test_skeletons_are_deterministic_per_seed():
    a = random_skeleton(random.Random(123))
    b = random_skeleton(random.Random(123))
    assert a == b
    assert skeleton_to_instance(a, "Q") == skeleton_to_instance(b, "Q")


def test_differential_record_shape():
    skel = random_skeleton(random.Random(2))
    rec = run_differential(skeleton_to_instance(skel, "Q"))
    assert rec["valid"]
    assert rec["agree"]
    assert rec["decide_separable"] == rec["oracle_separable"]
    if rec["oracle_separable"]:
        assert rec["extracted_witness_ok"]


def test_differential_record_of_an_invalid_instance():
    data = skeleton_to_instance(random_skeleton(random.Random(2)), "Q")
    data["action"]["id:o0"]["dom"][0] = "2"
    rec = run_differential(data)
    assert rec["valid"] is False and rec["agree"] is False
    assert rec["violations"][0] == "1_id:o0 is not a central idempotent"
    assert "decide_separable" not in rec


def test_small_fuzz_run_agrees():
    report = run_fuzz(3, 4)
    assert report["all_agree"]
    assert report["agreements"] == len(report["instances"]) == 8


def test_fuzz_produces_both_verdicts_across_seed_one_corpus():
    # the differential suite is only meaningful if both outcomes really occur
    report = run_fuzz(1, 25)
    verdicts = {r["decide_separable"] for r in report["instances"]}
    assert verdicts == {True, False}


@pytest.mark.parametrize("args", [(1, -2), (1, 1, 0), (1, 1, 6, 0), (1, 1, 0, -3)])
def test_run_fuzz_rejects_bounds_it_cannot_keep(args):
    with pytest.raises(ValueError):
        run_fuzz(*args)


@pytest.mark.parametrize("bounds", [(0, 6), (6, 0), (-1, -1)])
def test_random_skeleton_rejects_bounds_it_cannot_keep(bounds):
    with pytest.raises(ValueError):
        random_skeleton(random.Random(1), *bounds)


def test_run_fuzz_keeps_its_smallest_bounds():
    report = run_fuzz(1, 0)
    assert report["count"] == 0 and report["instances"] == []
    report = run_fuzz(1, 2, 1, 1)
    assert report["bounds"] == {"max_morphisms": 1, "max_dim": 1}
    assert all(r["morphisms"] == 1 and r["algebra_dim"] == 1 for r in report["instances"])
