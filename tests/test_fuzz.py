import hashlib
import json
import random

import pytest

import skewalg.fuzz as fuzz
from skewalg.fuzz import (random_skeleton, run_differential, run_fuzz,
                          skeleton_to_instance)
from skewalg.instances import parse_instance

from conftest import RING_48, instance_data, opposite_oracle


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


@pytest.mark.parametrize("name", ["partial_bridge_q.json", "z2_flip_gf2.json"])
def test_differential_record_of_a_disagreeing_oracle(monkeypatch, name):
    # an oracle of the opposite answer makes the record disagree, whichever
    # the verdict
    monkeypatch.setattr(fuzz, "oracle_separability", opposite_oracle)
    rec = run_differential(instance_data(name))
    assert rec["valid"] and rec["agree"] is False
    assert rec["oracle_separable"] is not rec["decide_separable"]


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


# two components with more arrows than the fuzz bounds allow: k=2, m=4 with
# sigma of order 2 and partial domains, then k=1, m=3 with a 3-cycle
TWO_COMPONENTS = {"components": [
    {"k": 2, "m": 4, "d": 3, "sigma": [1, 0, 2],
     "tau": [[2, 0, 1], [0, 1, 2]], "T": [[0, 2], [1, 2]]},
    {"k": 1, "m": 3, "d": 3, "sigma": [1, 2, 0], "tau": [[1, 2, 0]], "T": [[0, 1]]}]}


@pytest.mark.parametrize("skel, fdesc, digest", [
    (RING_48, "Q", "4cbf78e3e10967fe61804f0eb6e961bb57e25f15c7a0824708f4cc6a0b8ec5d9"),
    (RING_48, "GF(2)", "6693e8da05de8b771b82ef43d0dc780d535f583811452b0adbca523ec7156126"),
    (TWO_COMPONENTS, "Q", "85d66c1b0eae36e92917631911682f2c67e8842b9cbd0f644a9ccbe4ccad5391"),
    (TWO_COMPONENTS, "GF(2)", "f8948ba80f0dd3b170fd5633debebcc2b2f177d77da76bd3876f4795e1b25e81"),
])
def test_generated_instance_is_pinned_with_its_order(skel, fdesc, digest):
    # json.dumps keeps insertion order, so the order of every list and of the
    # action's keys is pinned along with the content
    data = json.dumps(skeleton_to_instance(skel, fdesc))
    assert hashlib.sha256(data.encode()).hexdigest() == digest
