"""Tests of the benchmark's own generator, closed-form verdict and tracer.

    python3 -m pytest -q perfbench
"""

import random
import sys
import time
import types
from pathlib import Path

import pytest

import skeletons
import spans

SRC = Path(__file__).resolve().parent.parent / "src"


def one_object(sigma, T, m, tau=None):
    d = len(sigma)
    return {"components": [{"k": 1, "m": m, "d": d, "sigma": sigma,
                            "tau": [tau or list(range(d))], "T": [T]}]}


@pytest.mark.parametrize("m, field, separable", [
    (2, "Q", True), (2, "GF(2)", False), (2, "GF(3)", True),
    (3, "GF(3)", False), (3, "GF(2)", True), (6, "GF(5)", True), (6, "GF(3)", False),
])
def test_trivial_action_is_maschke(m, field, separable):
    skel = one_object([0, 1, 2], [0, 1, 2], m)
    assert skeletons.closed_form_separable(skel, field) is separable


@pytest.mark.parametrize("field", ["GF(2)", "GF(3)", "GF(5)"])
def test_free_shift_is_always_separable(field):
    m = 6
    skel = one_object([1, 2, 3, 4, 5, 0], list(range(6)), m)
    assert skeletons.closed_form_separable(skel, field)


def test_only_cycles_the_domain_touches_count():
    # sigma = (0 1) with 2 fixed, Z/2 over GF(2): the fixed letter has m/l = 2
    assert skeletons.closed_form_separable(one_object([1, 0, 2], [0, 1], 2), "GF(2)")
    assert not skeletons.closed_form_separable(one_object([1, 0, 2], [0, 2], 2), "GF(2)")


def test_domain_letters_are_read_through_the_relabeling():
    sigma = [1, 0, 2]          # (0 1), 2 fixed
    tau = [2, 0, 1]            # tau^-1: 2 -> 0, 0 -> 1, 1 -> 2
    assert skeletons.closed_form_separable(one_object(sigma, [0, 2], 2, tau), "GF(2)")
    assert not skeletons.closed_form_separable(one_object(sigma, [1], 2, tau), "GF(2)")


def test_sizes_of_a_partial_shift():
    # Z/2 swapping letters 0 and 1 of an object that keeps only letter 0:
    # the identity is defined on {0}, the swap nowhere
    skel = one_object([1, 0], [0], 2)
    assert skeletons.algebra_dim(skel) == 1
    assert skeletons.ring_dim(skel) == 1
    assert skeletons.ring_dim(one_object([1, 0], [0, 1], 2)) == 4


def test_tags_make_equal_structures_distinct():
    skel = one_object([0, 1], [0, 1], 1)
    a = skeletons.to_instance(skel, "GF(2)", "a")
    b = skeletons.to_instance(skel, "GF(2)", "b")
    assert a != b
    assert a["action"] == b["action"]
    assert skeletons.to_instance(skel, "GF(2)", "a") == a


def test_generated_instances_match_the_decider():
    """The generator's instances are valid and the closed form agrees with skewalg."""
    sys.path.insert(0, str(SRC))
    try:
        from skewalg.instances import parse_instance
        from skewalg.separability import decide_separability
    finally:
        sys.path.remove(str(SRC))
    rng = random.Random(0)
    verdicts = set()
    for n in range(12):
        skel = skeletons.fuzz_bounded_skeleton(rng, max_arrows=4, max_dim=4)
        for field in ("Q", "GF(2)", "GF(3)"):
            pa = parse_instance(skeletons.to_instance(skel, field, "t%d" % n)).action
            assert pa.validate().ok
            verdict = decide_separability(pa).separable
            assert verdict == skeletons.closed_form_separable(skel, field)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _fake_modules():
    linalg = types.ModuleType("linalg")
    separability = types.ModuleType("separability")

    def kernel(x):
        time.sleep(0.002)
        return x

    def trace_into(x):
        time.sleep(0.001)
        return separability.kernel(x)

    linalg.kernel = kernel
    separability.kernel = kernel         # bound by name, as `from .linalg import kernel` does
    separability.trace_into = trace_into
    return {"linalg": linalg, "separability": separability}


def test_tracer_self_times_sum_to_the_op_and_missing_entry_points_are_absent():
    modules = _fake_modules()
    original = modules["separability"].kernel
    tracer = spans.Tracer(modules)
    with tracer, tracer.span("cli.main", spans.OP_LAYER):
        modules["separability"].trace_into(1)
    assert modules["separability"].kernel is original
    op_ns = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(tracer.self_ns()) == op_ns
    metrics = tracer.metrics()
    assert metrics["linalg.self_s"][0] >= 0.002
    assert metrics["separability.trace_s"][0] >= 0.003
    assert "algebra.self_s" not in metrics
    assert "skew_ring.rings_built" not in metrics
    assert "algebra.Algebra.multiply" in tracer.missing
    assert tracer.calls["kernel"] == 1
