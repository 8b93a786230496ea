"""Acceptance suite: every criterion is exact; runtime bounds are asserted.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import random
import time
from fractions import Fraction

from skewalg import Field, build_skew_ring
from skewalg.fuzz import random_skeleton, run_fuzz, skeleton_to_instance
from skewalg.instances import parse_instance
from skewalg.separability import (build_certificate, decide_global,
                                  decide_separability, extract_witness,
                                  isotropy_witness_transport,
                                  oracle_separability, trace_between,
                                  trace_into)

from conftest import (component_decomposition_failures, glue_components,
                      instance_data, load_action, reference_trace_invariant_suite,
                      renamed_instance, restricted_action, ring_isotropy_iso,
                      subspace_invariant_suite)
from test_separability import hand_built_idempotent

Q = Field.rationals()


def _report(n, ok, text):
    print("ACCEPTANCE %d: %s - %s" % (n, "PASS" if ok else "FAIL", text))
    assert ok, text


def test_acceptance_1_bridge_reproduction():
    started = time.perf_counter()
    pa = load_action("partial_bridge_q.json")
    verdict = decide_separability(pa)
    ok = verdict.separable

    fam = verdict.certificate.witness_family
    ok = ok and fam.particular == (1, 0, 1, 1)
    ok = ok and fam.kernel_basis == ((0, 1, -1, 0),)

    for lam in (Fraction(0), Fraction(1), Fraction(2)):
        a = fam.element((lam,))
        ok = ok and a == (1, lam, 1 - lam, 1)
        cert = build_certificate(pa, a)
        # the hand-written idempotent with parameter lam, as psi blocks
        psi = {(g, h): pa.algebra.multiply(u, pa.alpha(g, w))
               for g, u, h, w in hand_built_idempotent(lam)}
        ok = ok and cert.blocks == {k: y for k, y in psi.items() if any(y)}
        ok = ok and cert.checks["multiplies_to_unit"]
        ok = ok and cert.checks["commutes_with_basis"]
        ok = ok and cert.tensor_dim == 10
    ok = ok and build_skew_ring(pa).dim == 6
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _report(1, ok, "bridge instance: verdict, witness family, idempotents for "
                   "parameters 0/1/2 (%.3fs)" % elapsed)


def test_acceptance_2_flip_reproduction_across_fields():
    results = {}
    ok = True
    for name, expected in (("z2_flip_gf3.json", True),
                           ("z2_flip_q.json", True),
                           ("z2_flip_gf2.json", False)):
        started = time.perf_counter()
        pa = load_action(name)
        verdict = decide_separability(pa)
        oracle = oracle_separability(pa)
        elapsed = time.perf_counter() - started
        results[name] = (verdict.separable, oracle.separable, elapsed)
        ok = ok and verdict.separable == expected
        ok = ok and oracle.separable == expected
        ok = ok and elapsed < 1.0
    _report(2, ok, "flip instance separable over GF(3) and Q, not GF(2), "
                   "oracle agrees: %s" % {k: v[:2] for k, v in results.items()})


def test_acceptance_3_decide_vs_oracle_fuzz():
    started = time.perf_counter()
    report = run_fuzz(seed=1, count=25, max_morphisms=6, max_dim=6)
    elapsed = time.perf_counter() - started
    ok = report["all_agree"] and report["agreements"] == 50 and elapsed < 60.0
    _report(3, ok, "fuzz seed 1, 25 instances over Q and GF(2): %d/%d "
                   "decide == oracle (%.1fs)" % (report["agreements"],
                                                 len(report["instances"]), elapsed))


def _theorem_style_checks(pa) -> bool:
    # the identities a valid action obeys by its axioms (proved in
    # test_paction and test_separability)
    ok = pa.validate().ok
    ok = ok and all(subspace_invariant_suite(pa).values())   # inverse/intersection/composite
    ok = ok and all(reference_trace_invariant_suite(pa).values())
    ok = ok and component_decomposition_failures(pa) == []
    # component reduction: the overall verdict is the conjunction of the
    # per-component verdicts, each matching an independent restricted decision
    verdict = decide_separability(pa)
    ok = ok and verdict.separable == all(c.separable for c in verdict.per_component)
    for comp in verdict.per_component:
        sub = restricted_action(pa, comp.objects)
        ok = ok and decide_separability(sub).separable == comp.separable
    return ok


def test_acceptance_4_invariant_suite():
    started = time.perf_counter()
    bridge = load_action("partial_bridge_q.json")
    flip = load_action("z2_flip_q.json")
    base = instance_data("partial_bridge_q.json")
    glued = glue_components([
        parse_instance(renamed_instance(base, "L.")).action,
        parse_instance(renamed_instance(base, "R.")).action,
    ])
    instances = [bridge, flip, glued]
    rng = random.Random(4)
    fields = ("Q", "GF(2)", "GF(3)", "GF(5)", "Q")
    for n in range(10):
        skel = random_skeleton(rng)
        instances.append(parse_instance(
            skeleton_to_instance(skel, fields[n % len(fields)])).action)
    ok = all(_theorem_style_checks(pa) for pa in instances)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report(4, ok, "invariant suite on bridge, flip, glued double and 10 "
                   "fuzzed instances (%.1fs)" % elapsed)


def test_acceptance_5_global_case():
    started = time.perf_counter()
    pa = load_action("pair_swap_global_q.json")
    vg = decide_global(pa)
    vf = decide_separability(pa)
    ok = vg.separable == vf.separable == True  # noqa: E712
    ok = ok and vg.witness == vf.witness
    tr = isotropy_witness_transport(pa, ("e1", "e2"), vf.witness)
    ok = ok and trace_between(pa, tr.obj, tr.obj).apply(tr.witness) == \
        pa.obj_idem(tr.obj)
    ok = ok and all(tr.checks.values())
    rings = ring_isotropy_iso(pa, "s")
    ok = ok and all(rings.checks.values())
    ok = ok and rings.matrix.apply(rings.source_ring.unit()) == rings.target_ring.unit()
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _report(5, ok, "global pair-swap: transversal decision matches, transport "
                   "and conjugation isomorphism verified (%.3fs)" % elapsed)


def test_acceptance_6_oracle_witness_extraction():
    from conftest import column_blocks

    rng = random.Random(1)
    checked = 0
    ok = True
    for _ in range(25):
        skel = random_skeleton(rng)
        for fdesc in ("Q", "GF(2)"):
            pa = parse_instance(skeleton_to_instance(skel, fdesc)).action
            res = oracle_separability(pa)
            if not res.separable:
                continue
            a = extract_witness(pa, res.tensor, res.solutions.particular)
            alg = pa.algebra
            ok = ok and alg.commutes_with_all(a)
            for e in pa.groupoid.objects:
                ok = ok and trace_into(pa, e).apply(a) == pa.obj_idem(e)
            # diagonal-coefficient identity of the normal form:
            # alpha_g(a_{s(g),s(g)} 1_{g^-1}) == a_{g,g^-1}
            coeffs = column_blocks(res.tensor, res.solutions.particular)
            g_oid = pa.groupoid
            for g in g_oid.morphisms:
                s_id = g_oid.identity[g_oid.src[g]]
                diag = coeffs.get((s_id, s_id), alg.zero())
                got = coeffs.get((g, g_oid.inv(g)), alg.zero())
                ok = ok and pa.alpha(g, diag) == got
            checked += 1
    ok = ok and checked > 0
    _report(6, ok, "witness extraction and the diagonal-coefficient identity "
                   "verified on %d separable fuzzed instances" % checked)
