import json
import random
from fractions import Fraction

import pytest

from skewalg import (AffineSolutionSet, Algebra, Field, Matrix, PartialAction,
                     build_groupoid)
from skewalg.linalg import echelon, solve_affine, vadd
from skewalg.separability import (EmptyHomSet, NotGlobal, SeparabilityError,
                                  WitnessInvalid, build_certificate, cross_check,
                                  decide_global,
                                  decide_separability, extract_witness,
                                  idempotent_blocks, is_witness, isotropy_transport_psi,
                                  isotropy_witness_transport,
                                  oracle_separability, separability_checks,
                                  trace_between, trace_into, trace_total)
from skewalg.skew_ring import build_skew_ring, psi_block, psi_tensor_dim, ring_generators
from skewalg.cli import main
from skewalg.fuzz import random_skeleton, skeleton_to_instance
from skewalg.instances import parse_instance

import skewalg.separability as separability
from conftest import (INSTANCE_DIR, RING_48, ambient_product, basis_oracle_solutions,
                      changed_basis_action, column_blocks, commutator_sides,
                      cut_component_family, column_pairs, column_products,
                      dense_oracle_system, from_cols, from_coords,
                      full_oracle_system, global_skeleton, glue_components,
                      greedy_psi_block, identity_matrix, intersect,
                      lift, load_action, madd, matmul, msub, product_classes, psi_of,
                      psi_pair, psi_products, pure_tensor,
                      reference_build_certificate, reference_invariant_subring,
                      reference_is_witness, reference_ring_generators,
                      reference_separability_checks,
                      reference_square, reference_trace_invariant_suite,
                      restricted_action, restricted_component_family, ring_coords,
                      ring_isotropy_iso, side_matrix, span_coords, square_certificate,
                      zero_matrix)
from test_algebra import matrix_algebra_2x2
from test_skewring import closed_form_corpus, m2_corpus, psi_corpus

Q = Field.rationals()


# -- trace maps ------------------------------------------------------------------

def test_bridge_object_traces(bridge):
    a = bridge.algebra.element([5, 7, 11, 13])
    t1 = trace_into(bridge, "e1")
    t2 = trace_into(bridge, "e2")
    # t1 keeps the first block and folds the arrow back: (l1, l2+l3, 0, 0)
    assert t1.apply(a) == (5, 18, 0, 0)
    assert t2.apply(a) == (0, 0, 18, 13)


def test_bridge_pairwise_trace_sum(bridge):
    a = bridge.algebra.element([5, 7, 11, 13])
    t12 = trace_between(bridge, "e1", "e2")
    t22 = trace_between(bridge, "e2", "e2")
    assert vadd(bridge.algebra.field, t12.apply(a), t22.apply(a)) == \
        trace_into(bridge, "e2").apply(a)


def test_flip_traces_double_the_coefficient(flip_q):
    a = flip_q.algebra.element([3, 5])
    assert trace_into(flip_q, "e1").apply(a) == (6, 0)
    assert trace_into(flip_q, "e2").apply(a) == (0, 10)


def test_flip_trace_vanishes_in_characteristic_two(flip_gf2):
    t1 = trace_into(flip_gf2, "e1")
    assert t1 == zero_matrix(t1.field, t1.nrows, t1.ncols)


def test_trivial_group_trace_is_identity(trivial_q):
    assert trace_between(trivial_q, "e", "e") == identity_matrix(Q, 1)
    assert trace_total(trivial_q) == identity_matrix(Q, 1)


def test_total_trace_is_sum_of_object_traces(bridge):
    acc = zero_matrix(Q, 4, 4)
    for e in bridge.groupoid.objects:
        acc = madd(acc, trace_into(bridge, e))
    assert acc == trace_total(bridge)


def test_cross_component_trace_is_an_error(glued_double):
    with pytest.raises(EmptyHomSet):
        trace_between(glued_double, "L.e1", "R.e1")


def test_trace_invariant_suite(bridge, flip_q, flip_gf2, pair_swap, glued_double):
    """The six trace identities of `reference_trace_invariant_suite` hold on
    every valid action, by the axioms `validate_partial_action` checks, so
    the `traces` report does not print them.  Write M_g for the stored map,
    M_g(b) = alpha_g(b 1_{g^-1}), and t = t_{ij} for the sum of M_g over
    the arrows g from i to j, t_j for the sum over the arrows into j.
    - Restriction, t(b 1_i) = t(b): for g: i -> j, 1_{g^-1} 1_i = 1_{g^-1}
      by containment (t(g^-1) = i), so M_g(b 1_i) = M_g(b).
    - Image, t(b) in A_j: M_g(b) lies in A_g, and 1_g 1_j = 1_g by
      containment, so A_g lies in A_j.
    - Isotropy invariance, M_h t = R_{1_h} t for h: j -> j: by the
      composite restriction M_h M_g = R_{1_h} M_{hg} (proved in
      `test_invariant_suite_on_known_instances` of test_paction), and
      g |-> hg permutes the arrows from i to j.
    - Bimodule linearity, t(x b) = x t(b) and t(b x) = t(b) x for x with
      M_g(x) = x 1_g at every g from i to j: 1_{g^-1} is a central
      idempotent and alpha_g is multiplicative on A_{g^-1}, so
      M_g(x b) = M_g(x) M_g(b) = x 1_g M_g(b) = x M_g(b), as M_g(b) lies in
      A_g; the right-hand side alike.
    - Sum, t_total = sum of the t_j: every arrow has one target.  It needs
      no axiom, and no input breaks it.
    - Translation, M_g t_i = R_{1_g} t_j for g: i -> j: the composite
      restriction gives M_g M_k = R_{1_g} M_{gk}, and k |-> gk maps the
      arrows into i one to one onto the arrows into j."""
    for pa in (bridge, flip_q, flip_gf2, pair_swap, glued_double):
        assert pa.validate().ok
        assert all(reference_trace_invariant_suite(pa).values())


def test_trace_invariants_read_false_on_unvalidated_actions():
    # one object e with 1_e = b1 on k^2; each stored identity map breaks one
    # trace invariant: b2 |-> b1 does not annihilate b2, which lies outside A_e,
    # and b1 |-> b1 + b2 maps out of A_e
    restricts, in_target = "trace_restricts_to_source_ideal", "trace_image_in_target_ideal"
    for cols, broken, kept in ((((1, 0), (1, 0)), restricts, in_target),
                               (((1, 1), (0, 0)), in_target, restricts)):
        pa = PartialAction(build_groupoid(["e"], [], [], []), Algebra.diagonal(Q, 2),
                           {"id:e": (1, 0)}, {"id:e": from_cols(Q, cols)})
        suite = reference_trace_invariant_suite(pa)
        assert not suite[broken] and suite[kept]
        assert not pa.validate().ok


def test_the_bimodule_invariant_reads_right_multiplications_on_noncommutative_a():
    # the stored identity map R_{E11} of M_2(Q) commutes with every L_x but
    # not with R_x for its fixed point x = E21, since E21 E11 != E11 E21
    alg = matrix_algebra_2x2()
    pa = PartialAction(build_groupoid(["e"], [], [], []), alg, {"id:e": alg.unit},
                       {"id:e": alg.right_mul_matrix(alg.basis_vector(0))})
    assert alg.basis_vector(2) in reference_invariant_subring(pa, "e", "e").rows
    assert not reference_trace_invariant_suite(pa)["trace_invariant_bimodule_linear"]
    assert not pa.validate().ok


def test_isotropy_invariance_and_translation_read_false_on_planted_actions():
    # one object with Z/2 on k^2 whose stored map of s is the nilpotent
    # b2 |-> b1: M_s T = M_s + M_s^2 differs from R_1 T = I + M_s; and two
    # objects joined by a, 1_{e1} = b1, 1_{e2} = b2, whose map sends b1 to
    # 2 b2: the isotropy groups are trivial, but M_a t_{e1} != R_{b2} t_{e2}
    isotropy, translation = "trace_image_isotropy_invariant", "trace_translation_along_arrows"
    z2 = build_groupoid(["e"], [("s", "e", "e")], [("s", "s", "id:e")], [("s", "s")])
    nilpotent = PartialAction(z2, Algebra.diagonal(Q, 2), {"id:e": (1, 1), "s": (1, 1)},
                              {"s": Matrix(Q, [[0, 1], [0, 0]])})
    pair = build_groupoid(["e1", "e2"], [("a", "e1", "e2"), ("b", "e2", "e1")],
                          [("a", "b", "id:e2"), ("b", "a", "id:e1")], [("a", "b")])
    doubled = PartialAction(pair, Algebra.diagonal(Q, 2),
                            {"id:e1": (1, 0), "id:e2": (0, 1), "a": (0, 1), "b": (1, 0)},
                            {"a": Matrix(Q, [[0, 0], [2, 0]]),
                             "b": Matrix(Q, [[0, 1], [0, 0]])})
    for pa, broken, kept in ((nilpotent, isotropy, "trace_restricts_to_source_ideal"),
                             (doubled, translation, isotropy)):
        suite = reference_trace_invariant_suite(pa)
        assert not suite[broken] and suite[kept]
        assert not pa.validate().ok


def test_trace_identities_hold_on_valid_actions_in_a_changed_basis():
    # the identities proved in `test_trace_invariant_suite`, on the shipped
    # instances and the psi corpus (fuzz actions over Q, GF(2), GF(3) and
    # M_2(k)), and on fuzz and M_2 actions rewritten in a random basis, whose
    # maps are dense and whose ideals are not spanned by basis vectors
    rng = random.Random(32)
    changed = [changed_basis_action(parse_instance(skeleton_to_instance(
        random_skeleton(rng), field)).action, rng) for _ in range(15) for field in ("Q", "GF(3)")]
    changed += [changed_basis_action(pa, rng) for pa in m2_corpus()]
    noncommutative = 0
    for pa in [*psi_corpus(), *changed]:
        assert pa.validate().ok
        assert all(reference_trace_invariant_suite(pa).values())
        noncommutative += not pa.algebra.commutative
    assert noncommutative >= 12


def _unvalidated(pa, rng) -> PartialAction:
    """pa with each stored map kept, or replaced by a random sparse one with
    entries in -1..2; the domain idempotents are pa's own, so every check of
    the suite runs."""
    field, n = pa.algebra.field, pa.algebra.dim
    maps = {g: pa.matrix(g) if rng.random() < 0.5 else
            Matrix(field, [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)]
                           for _ in range(n)]) for g in pa.groupoid.morphisms}
    return PartialAction(pa.groupoid, pa.algebra, pa.idems, maps)


def test_trace_identities_fail_only_where_validation_fails():
    # seeded random maps over Q and GF(3), on fuzz skeletons and on M_2(k):
    # each identity but the sum, which no input can break, reads false
    # somewhere, and only on an action that validation rejects
    rng = random.Random(33)
    actions = [parse_instance(skeleton_to_instance(random_skeleton(rng), field)).action
               for _ in range(40) for field in ("Q", "GF(3)")]
    actions += [pa for pa in m2_corpus() if pa.algebra.field.p != 2] * 5
    false = {}
    for pa in actions:
        broken = _unvalidated(pa, rng)
        suite = reference_trace_invariant_suite(broken)
        for key, ok in suite.items():
            false[key] = false.get(key, 0) + (not ok)
        assert all(suite.values()) or not broken.validate().ok
    assert false.pop("total_trace_is_sum_of_object_traces") == 0
    assert min(false.values()) > 0, false


def test_the_traces_report_builds_each_trace_matrix_once(monkeypatch, capsys):
    # `traces` builds each t_ij, t_j and the total once, columns from
    # `_trace_image`, and prints no identity of the trace maps
    built = []
    image = separability._trace_image

    def counted(pa, arrows, v):
        built.append(arrows)
        return image(pa, arrows, v)

    for path in sorted(INSTANCE_DIR.glob("*.json")):
        pa = load_action(path.name)
        g_oid = pa.groupoid
        sums = {g_oid.morphisms} | {g_oid.arrows_into(j) for j in g_oid.objects} | {
            g_oid.hom_set(i, j) for cls in g_oid.connected_components().classes
            for i in cls for j in cls}
        monkeypatch.setattr(separability, "_trace_image", counted)
        built.clear()
        assert main(["traces", str(path)]) == 0
        monkeypatch.undo()
        report = json.loads(capsys.readouterr().out)
        assert len(built) == len(sums) * pa.algebra.dim and set(built) == sums
        assert "invariants" not in report and report["ok"]


# -- invariant subrings ----------------------------------------------------------------

def test_bridge_invariants_between_objects(bridge):
    # the single arrow forces coeff(v2) == coeff(v3); dimension 3
    inv = reference_invariant_subring(bridge, "e1", "e2")
    assert inv.dim == 3
    assert inv.rows == ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1))


def test_invariants_of_trivial_group_are_everything(trivial_q):
    assert reference_invariant_subring(trivial_q, "e", "e").dim == 1


def test_isotropy_invariants_match_restricted_computation(flip_q, bridge, pair_swap):
    # A^{(i,i)} intersected with A_i equals the invariants of the isotropy action
    for pa in (flip_q, bridge, pair_swap):
        for e in pa.groupoid.objects:
            ambient = intersect(reference_invariant_subring(pa, e, e),
                                pa.ideal(pa.groupoid.identity[e]))
            iso = restricted_action(pa, (e,))
            basis = pa.algebra.ideal_basis(pa.obj_idem(e))
            lifted = echelon(pa.algebra.field,
                             [basis.combine(r) for r in
                              reference_invariant_subring(iso, e, e).rows],
                             pa.algebra.dim)
            assert ambient == lifted


def test_invariant_subrings_are_the_kernels_canonical_basis():
    # kernel's rows are the canonical reduced echelon basis already: a
    # second elimination of them gives the same rows and pivots
    count = 0
    for pa in psi_corpus():
        field, dim = pa.algebra.field, pa.algebra.dim
        for cls in pa.groupoid.connected_components().classes:
            for i in cls:
                for j in cls:
                    inv = reference_invariant_subring(pa, i, j)
                    again = echelon(field, inv.rows, dim)
                    assert (repr(inv.rows), inv.pivots) == (repr(again.rows), again.pivots)
                    count += 1
    assert count > 150


# -- the decision ---------------------------------------------------------------------------

def test_bridge_is_separable_with_the_one_parameter_family(bridge):
    v = decide_separability(bridge)
    assert v.separable
    fam = v.certificate.witness_family
    assert fam.particular == (1, 0, 1, 1)
    assert fam.kernel_basis == ((0, 1, -1, 0),)
    assert v.witness == (1, 0, 1, 1)


def test_flip_separability_depends_on_characteristic(flip_q, flip_gf2, flip_gf3):
    assert decide_separability(flip_q).separable
    assert decide_separability(flip_gf3).separable
    assert not decide_separability(flip_gf2).separable


def test_flip_gf3_witness(flip_gf3):
    v = decide_separability(flip_gf3)
    # 2a = 1 in GF(3) gives a = 2 per block
    assert v.witness == (Field.prime(3).from_int(2), Field.prime(3).from_int(2))


def test_trivial_group_is_separable_with_unit_witness(trivial_q):
    v = decide_separability(trivial_q)
    assert v.separable
    assert v.witness == (1,)


def trivial_cyclic_action(field, m) -> PartialAction:
    """Z/m = {id:e, g1, ..., g(m-1)} acting trivially on the 1-dim algebra k."""
    name = ["id:e"] + ["g%d" % i for i in range(1, m)]
    return PartialAction(
        build_groupoid(["e"], [(name[i], "e", "e") for i in range(1, m)],
                       [(name[i], name[j], name[(i + j) % m])
                        for i in range(1, m) for j in range(1, m)],
                       [(name[i], name[m - i]) for i in range(1, m)]),
        Algebra.diagonal(field, 1), {g: [1] for g in name},
        {g: [[1]] for g in name[1:]})


@pytest.mark.parametrize("p", [None, 2, 3, 5])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_maschke_trivial_cyclic_action(m, p):
    # t_e(a) = m a, so k inside k*Z/m is separable iff char k does not divide m
    field = Field(p)
    v = decide_separability(trivial_cyclic_action(field, m))
    assert v.separable == (p is None or m % p != 0)
    if v.separable:
        assert v.certificate.ok
        assert v.witness == (field.inv(field.from_int(m)),)
    else:
        assert v.certificate is None and v.witness is None


def hand_built_idempotent(lam) -> list:
    """The bridge idempotent with parameter lam as its four pure tensors
    a1 d_e1 (x) 1_1 d_e1 + l v3 d_g (x) v2 d_ginv
      + (1-l) v2 d_ginv (x) v3 d_g + a2 d_e2 (x) 1_2 d_e2."""
    return [("id:e1", (1, lam, 0, 0), "id:e1", (1, 1, 0, 0)),
            ("g", (0, 0, lam, 0), "ginv", (0, 1, 0, 0)),
            ("ginv", (0, 1 - lam, 0, 0), "g", (0, 0, 1, 0)),
            ("id:e2", (0, 0, 1 - lam, 1), "id:e2", (0, 0, 1, 1))]


def project_pure_tensors(square, terms) -> tuple:
    """Coordinates in the `reference_square` of a sum of pure tensors (g, u, h, w)."""
    ring = square.ring
    ambient: dict = {}
    for g, u, h, w in terms:
        for c, val in pure_tensor(square, ring_coords(ring, {g: u}),
                                  ring_coords(ring, {h: w})).items():
            ambient[c] = ambient.get(c, ring.field.zero) + val
    return square.project(ring.field.reduce_dict(ambient))


def test_certificates_match_the_hand_built_idempotents(bridge):
    # for parameter values 0, 1, 2 the constructed idempotent must equal the
    # hand-built one: blockwise, its psi blocks are the psi-images
    # u alpha_g(w 1_{g^-1}) of the hand-built terms, and in the square its
    # summands project to the same element
    v = decide_separability(bridge)
    fam = v.certificate.witness_family
    square = reference_square(build_skew_ring(bridge))
    for lam in (Fraction(0), Fraction(1), Fraction(2)):
        a = fam.element((lam,))
        assert a == (1, lam, 1 - lam, 1)
        cert = build_certificate(bridge, a)
        assert cert.ok
        terms = hand_built_idempotent(lam)
        psi = {(g, h): bridge.algebra.multiply(u, bridge.alpha(g, w))
               for g, u, h, w in terms}
        assert cert.blocks == {k: y for k, y in psi.items() if any(y)}
        assert project_pure_tensors(square, cert.summands) == \
            project_pure_tensors(square, terms)


def test_certificate_checks_hold_on_every_witness(bridge, flip_q, flip_gf3, pair_swap):
    for pa in (bridge, flip_q, flip_gf3, pair_swap):
        v = decide_separability(pa)
        assert v.separable
        assert v.certificate.ok
        assert v.certificate.checks == {
            "witness_central": True, "witness_traces": True,
            "multiplies_to_unit": True, "commutes_with_basis": True}


def _random_vector(field, rng, n) -> tuple:
    return field.reduce_vec(field.from_int(rng.randint(-2, 2)) for _ in range(n))


def test_psi_certificate_matches_the_square_reference():
    # the psi blocks and checks of x_a against the square-based reference for
    # witnesses, random central non-witnesses and random elements a; the
    # dimension, summands and checks of each certificate against the same
    rng = random.Random(37)
    outcomes = set()
    for pa in closed_form_corpus():
        alg = pa.algebra
        square = reference_square(build_skew_ring(pa))
        assert psi_tensor_dim(pa) == square.dim
        center = from_cols(alg.field, alg.center_basis().rows)
        candidates = [_random_vector(alg.field, rng, alg.dim),
                      center.apply(_random_vector(alg.field, rng, center.ncols))]
        verdict = decide_separability(pa)
        if verdict.separable:
            candidates.append(verdict.witness)
        for a in candidates:
            ref = square_certificate(square, a)
            blocks = idempotent_blocks(pa, a)
            checks = separability_checks(pa, blocks)
            assert checks == ref.checks
            assert blocks == psi_of(square, ref.element)
            outcomes.add(tuple(checks.values()))
        if verdict.separable:
            cert = verdict.certificate
            ref = square_certificate(square, cert.witness)
            assert cert.tensor_dim == square.dim
            assert cert.summands == ref.summands
            assert cert.checks == {"witness_central": True, "witness_traces": True,
                                   **ref.checks}
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_psi_formulas_match_the_square_blockwise():
    # m, and the two terms of b x - x b (`commutator_terms`) for every ring
    # basis element b, on random elements of the identity class, the blocks
    # (g, g^-1): the closed psi formulas against the square's own maps, read
    # back blockwise through the psi-images of the lifts (psi_of)
    rng = random.Random(41)
    for pa in closed_form_corpus():
        ring = build_skew_ring(pa)
        square = reference_square(ring)
        mult = square.mult_matrix()
        for _ in range(2):
            q = [ring.field.zero] * square.dim
            for c, t in zip(square.unit_class,
                            _random_vector(ring.field, rng, len(square.unit_class))):
                q[c] = t
            blocks = psi_of(square, q)
            assert all(h == pa.groupoid.inv(g) for g, h in blocks)
            lifted = lift(square, q)
            assert psi_products(pa, blocks) == from_coords(ring, mult.apply(q))
            for p, (k, v) in enumerate(ring.basis):
                b = ring.basis_coords(p)
                left = square.project(ambient_product(square, lifted, left=b))
                right = square.project(ambient_product(square, lifted, right=b))
                assert commutator_sides(pa, k, v, blocks) == (psi_of(square, left),
                                                              psi_of(square, right))


def test_invalid_witness_is_rejected(bridge):
    with pytest.raises(WitnessInvalid):
        build_certificate(bridge, [1, 1, 1, 1])  # t2 gives 2 v3 + v4 != 1_2


def test_a_non_central_solution_of_the_traces_is_no_witness():
    # on M_2 x M_2 the trace system over all of A, not only its centre, has
    # a 4-dimensional family; the particular solution is the central
    # witness, and adding any kernel vector keeps t_e(a) = 1_e but leaves
    # the centre, so the centrality half of the witness check must refuse it
    pa = load_action("conj_swap_m2_q.json")
    alg = pa.algebra
    field = alg.field
    rows, rhs = [], []
    for e in pa.groupoid.objects:
        rows.extend(trace_into(pa, e).data)
        rhs.extend(pa.obj_idem(e))
    family = solve_affine(field, rows, rhs, alg.dim)
    assert family.dim == 4
    assert is_witness(pa, family.particular)
    for k in family.kernel_basis:
        a = vadd(field, family.particular, k)
        assert all(trace_into(pa, e).apply(a) == pa.obj_idem(e) for e in pa.groupoid.objects)
        assert not alg.commutes_with_all(a)
        assert not is_witness(pa, a)
        with pytest.raises(WitnessInvalid):
            build_certificate(pa, a)


@pytest.mark.parametrize("name", ["z2_flip_q.json", "partial_bridge_q.json",
                                  "rotated_swap_gf5.json", "two_components_q.json"])
def test_the_certificate_checks_the_summands_it_writes(name, monkeypatch):
    # the checks run on the blocks that the summand coordinates rebuild, so
    # a wrong coordinate from free_coords fails them
    pa = load_action(name)
    witness = decide_separability(pa).witness
    cert = build_certificate(pa, witness)
    assert cert.ok
    free_coords = separability.free_coords

    def shifted(field, pivots, inverse, y):
        coords = free_coords(field, pivots, inverse, y)
        return field.reduce_vec((coords[0] + 1, *coords[1:]))

    monkeypatch.setattr(separability, "free_coords", shifted)
    wrong = build_certificate(pa, witness)
    assert wrong.summands != cert.summands
    assert not wrong.ok
    assert wrong.checks["multiplies_to_unit"] is False


def test_glued_double_verdict_is_the_conjunction(glued_double, bridge):
    v = decide_separability(glued_double)
    assert v.separable
    assert len(v.per_component) == 2
    single = decide_separability(bridge)
    for comp in v.per_component:
        assert comp.separable == single.separable
        # each component family is the bridge family in its own block
        assert len(comp.witness_family.kernel_basis) == 1
    assert v.certificate.ok


def test_mixed_glue_fails_exactly_on_the_bad_component(flip_gf2):
    from conftest import instance_data, renamed_instance
    left = parse_instance(renamed_instance(instance_data("z2_flip_gf2.json"), "L.")).action
    # a separable component: trivial group on GF(2)
    from conftest import trivial_group_on_field
    right = trivial_group_on_field(Field.prime(2))
    glued = glue_components([left, right])
    v = decide_separability(glued)
    assert not v.separable
    assert [c.separable for c in v.per_component] == [False, True]
    assert v.certificate is None


# -- the oracle ------------------------------------------------------------------------------

def test_oracle_agrees_on_worked_instances(bridge, flip_q, flip_gf2, flip_gf3,
                                           pair_swap, trivial_q, glued_double):
    for pa in (bridge, flip_q, flip_gf2, flip_gf3, pair_swap, trivial_q,
               glued_double):
        assert oracle_separability(pa).separable == decide_separability(pa).separable


def in_square(square, x) -> tuple:
    """An oracle vector x (column coordinates) in the coordinates of the
    `reference_square`: x at its `unit_class`, zero elsewhere."""
    out = [square.ring.field.zero] * square.dim
    for k, c in zip(square.unit_class, x):
        out[k] = c
    return tuple(out)


def test_trivial_oracle_solution_is_unit_tensor_unit(trivial_q):
    res = oracle_separability(trivial_q)
    ring = build_skew_ring(trivial_q)
    square = reference_square(ring)
    assert res.separable
    expected = square.project(pure_tensor(square, ring.unit(), ring.unit()))
    assert in_square(square, res.solutions.particular) == expected


def test_oracle_solution_reduces_to_a_family_member(bridge):
    # extracting the witness from the oracle's particular solution lands in the
    # decision's witness family, and rebuilding from it gives the same element:
    # the same psi blocks and, in the oracle's square, the same coordinates
    res = oracle_separability(bridge)
    assert res.separable
    a = extract_witness(bridge, res.tensor, res.solutions.particular)
    fam = decide_separability(bridge).certificate.witness_family
    lam = a[1]
    assert fam.element((lam,)) == a
    cert = build_certificate(bridge, a)
    assert cert.tensor_dim == res.tensor.dim
    assert cert.blocks == column_blocks(res.tensor, res.solutions.particular)
    square = reference_square(build_skew_ring(bridge))
    assert project_pure_tensors(square, cert.summands) == \
        in_square(square, res.solutions.particular)


def test_extraction_satisfies_the_diagonal_identity(bridge):
    # alpha_g(a_{s(g),s(g)} 1_{g^-1}) == a_{g, g^-1} for the oracle's solution
    res = oracle_separability(bridge)
    coeffs = column_blocks(res.tensor, res.solutions.particular)
    g_oid = bridge.groupoid
    for g in g_oid.morphisms:
        s_id = g_oid.identity[g_oid.src[g]]
        diag = coeffs.get((s_id, s_id), bridge.algebra.zero())
        got = coeffs.get((g, g_oid.inv(g)), bridge.algebra.zero())
        assert bridge.alpha(g, diag) == got


def restricted(square, v):
    """v (coordinates of the `reference_square`) at its `unit_class`; None for None."""
    return None if v is None else tuple(v[k] for k in square.unit_class)


def assert_restricts(res, full, square):
    """`res.solutions` is the solution set `full` of the whole system of the
    `reference_square` cut down to the identity class: the same verdict, the
    particular solution at the `unit_class` columns (zero off them), and as
    kernel the kernel rows supported on the blocks (g, g^-1), restricted."""
    unit_class = set(square.unit_class)
    assert res.separable == (not full.is_empty)
    if res.separable:
        assert all(k in unit_class for k, c in enumerate(full.particular) if c)
    assert res.solutions.particular == restricted(square, full.particular)
    assert res.solutions.kernel_basis == tuple(
        restricted(square, v) for v in full.kernel_basis
        if all(k in unit_class for k, c in enumerate(v) if c))


def reference_witness(pa, square, x) -> tuple:
    """The sum of the blocks (id_e, id_e) of x in the `reference_square`."""
    blocks = psi_of(square, x)
    a = pa.algebra.zero()
    for i in pa.groupoid.identity.values():
        if (i, i) in blocks:
            a = vadd(pa.algebra.field, a, blocks[i, i])
    return a


def column_identity_corpus():
    """The shipped instances and random_skeleton(Random(s), 8, 6), s < 50,
    over Q, GF(2) and GF(3)."""
    yield from (load_action(p.name) for p in sorted(INSTANCE_DIR.glob("*.json")))
    for seed in range(50):
        skel = random_skeleton(random.Random(seed), 8, 6)
        for field in ("Q", "GF(2)", "GF(3)"):
            yield parse_instance(skeleton_to_instance(skel, field)).action


def test_oracle_columns_are_the_reference_unit_class():
    # the psi columns are the lifts of the reference square's blocks
    # (g, g^-1), in its order, with their psi-images; the oracle solves the
    # reference's full system restricted to those columns
    count = 0
    for pa in column_identity_corpus():
        res = oracle_separability(pa)
        ring = build_skew_ring(pa)
        square = reference_square(ring)
        pairs = column_pairs(res.tensor, ring)
        assert pairs == tuple(square.q_coords[k] for k in square.unit_class)
        for (g, _, y), c in zip(res.tensor.columns, pairs):
            p, q = divmod(c, ring.dim)
            assert y == psi_pair(pa, g, ring.basis[p][1], ring.basis[q][1])
        assert (res.tensor.dim, res.tensor.ring_dim) == (square.dim, ring.dim)
        assert_restricts(res, solve_affine(*full_oracle_system(square)), square)
        count += 1
    assert count == len(sorted(INSTANCE_DIR.glob("*.json"))) + 150


def test_oracle_matches_the_full_reference_system():
    # the oracle solves only the blocks (g, g^-1); the whole system over the
    # reference square has the same verdict, particular solution and
    # extracted witness
    for pa in closed_form_corpus():
        res = oracle_separability(pa)
        square = reference_square(build_skew_ring(pa))
        full = solve_affine(*full_oracle_system(square))
        assert_restricts(res, full, square)
        if res.separable:
            assert extract_witness(pa, res.tensor, res.solutions.particular) == \
                reference_witness(pa, square, full.particular)


def test_oracle_matches_the_dense_reference_system():
    # the sparse, deduplicated psi rows on the blocks (g, g^-1) against the
    # dense system of L_b - R_b over every ring basis element b
    for pa in closed_form_corpus():
        res = oracle_separability(pa)
        square = reference_square(build_skew_ring(pa))
        assert_restricts(res, solve_affine(*dense_oracle_system(square)), square)


def test_commutator_rows_span_the_dense_difference():
    # for each ring basis element b = v d_k, the nonzero psi rows of
    # b x - x b on the blocks (g, g^-1) span the row space of the dense
    # x |-> b x - x b in the coordinates of the reference square, restricted
    # to those columns
    for pa in closed_form_corpus():
        tensor = oracle_separability(pa).tensor
        ring = build_skew_ring(pa)
        square = reference_square(ring)
        cols = square.unit_class
        for p, (k, v) in enumerate(ring.basis):
            b = ring.basis_coords(p)
            rows = list(tensor.commutator_rows(k, v).values())
            assert all(any(r) for r in rows)
            dense = msub(side_matrix(square, left=b), side_matrix(square, right=b))
            restricted_rows = [tuple(r[c] for c in cols) for r in dense.data]
            assert (echelon(ring.field, rows, len(cols)) ==
                    echelon(ring.field, restricted_rows, len(cols)))


def test_the_oracle_on_generators_matches_every_basis_element():
    # the oracle's commutator rows come from the ring's generators only; the
    # rows of every ring basis element give the same solution set
    for pa in closed_form_corpus():
        assert oracle_separability(pa).solutions == basis_oracle_solutions(pa)


def _partial_z4(sigma, letters) -> dict:
    """Z/4 on one object, s^t moving the letters by sigma^t, restricted to
    `letters`: the skeleton of a partial action on k^len(letters)."""
    return {"k": 1, "m": 4, "d": len(sigma), "sigma": sigma,
            "tau": [list(range(len(sigma)))], "T": [letters]}


def _partial(component):
    return parse_instance(skeleton_to_instance({"components": [component]}, "Q")).action


# (one component's skeleton, generating arrows) of partial actions; an arrow
# sh is covered from a covered h and a move s only when 1_{sh} <= 1_s.  On
# the transposition restricted to two letters, s and s^3 are defined on one
# letter and s^2 on both, so s^2 joins S.  On the 4-cycle restricted to
# three letters, 1_{s^2} lies under neither 1_s nor 1_{s^3}, so s^2 joins S.
# On the fuzz skeleton, s = m0.0.0.1 moves h = m0.0.1.0 to sh = m0.0.1.1,
# and 1_{sh} is one of the two letters of 1_s: a proper containment, which
# equality alone misses
PARTIAL_COVERS = ((_partial_z4([0, 2, 1], [0, 2]), ["m0.0.0.1", "m0.0.0.2"]),
                  (_partial_z4([1, 2, 3, 0], [0, 1, 2]), ["m0.0.0.1", "m0.0.0.2"]),
                  ({"k": 2, "m": 2, "d": 3, "sigma": [0, 1, 2],
                    "tau": [[1, 0, 2], [2, 0, 1]], "T": [[1, 2], [2]]},
                   ["m0.0.0.1", "m0.0.1.0"]))


def test_the_generators_generate_the_ring():
    # A at the identities, the generators and the inverse 1_{k^-1} d_{k^-1}
    # of each generator's arrow k, closed under the ring's product, span A*G:
    # the algebra that `ring_generators`' exactness argument puts inside the
    # elements commuting with x.  The corpus has partial actions and
    # non-commutative A (conj_swap_m2_q.json, M_2(k))
    kinds = set()
    for pa in (*closed_form_corpus(), *(_partial(c) for c, _ in PARTIAL_COVERS)):
        ring = build_skew_ring(pa)
        g_oid = pa.groupoid
        gens = [ring_coords(ring, {i: a}) for i in g_oid.identity.values()
                for a in pa.ideal(i).rows]
        for k, v in ring_generators(pa):
            kinv = g_oid.inv(k)
            gens += [ring_coords(ring, {k: v}), ring_coords(ring, {kinv: pa.idem(kinv)})]
        span = echelon(ring.field, gens, ring.dim)
        while True:
            products = [ring.mul_coords(x, y) for x in span.rows for y in gens]
            grown = echelon(ring.field, span.rows + tuple(products), ring.dim)
            if grown.dim == span.dim:
                break
            span = grown
        assert span.dim == ring.dim
        kinds.add((pa.is_global(), pa.algebra.commutative))
    assert (False, True) in kinds and (True, False) in kinds


def test_the_generators_give_the_answers_of_the_full_list(monkeypatch):
    # the oracle's solution set and the certificate checks are the same with
    # the small generating set as with the full list of
    # `reference_ring_generators`, on the closed-form corpus (the shipped
    # instances and, among the fuzz skeletons, those of `fuzz --seed 1
    # --count 25` over Q and GF(2)) and on the partial actions of
    # `PARTIAL_COVERS`.  The checks run on the certificate's
    # blocks and on blocks that fail them: sum_e 1_e d_e (x) 1_e d_e and the
    # idempotent blocks of each basis vector of A
    failed = 0
    for pa in (*closed_form_corpus(), *(_partial(c) for c, _ in PARTIAL_COVERS)):
        g_oid = pa.groupoid
        planted = [{(i, i): pa.obj_idem(e) for e, i in g_oid.identity.items()
                    if any(pa.obj_idem(e))}]
        planted += [idempotent_blocks(pa, pa.algebra.basis_vector(c))
                    for c in range(pa.algebra.dim)]
        verdict = decide_separability(pa)
        if verdict.separable:
            planted.append(verdict.certificate.blocks)

        def answers() -> tuple:
            return (oracle_separability(pa).solutions,
                    [separability_checks(pa, blocks) for blocks in planted])

        small = answers()
        with monkeypatch.context() as m:
            m.setattr(separability, "ring_generators", reference_ring_generators)
            assert answers() == small
        failed += sum(not c["commutes_with_basis"] for c in small[1])
    assert failed


def test_commutative_a_lists_no_identity_and_one_arrow_generates_a_cycle():
    # on commutative A no a d_{id_e} is listed; Z/6 acting globally on one
    # object needs its first arrow alone, a generator of Z/6, where the full
    # list has all five; the set is found once and kept on the action.  On a
    # partial action an arrow joins S unless words reach it through moves s
    # with 1_{sh} <= 1_s
    for pa in closed_form_corpus():
        if pa.algebra.commutative:
            assert not any(pa.groupoid.is_identity(k) for k, _ in ring_generators(pa))
    skel = {"components": [{"k": 1, "m": 6, "d": 3, "sigma": [1, 2, 0],
                            "tau": [[0, 1, 2]], "T": [[0, 1, 2]]}]}
    pa = parse_instance(skeleton_to_instance(skel, "Q")).action
    assert pa.is_global() and len(reference_ring_generators(pa)) == 3 + 5
    gens = ring_generators(pa)
    assert [k for k, _ in gens] == ["m0.0.0.1"]
    assert ring_generators(pa) is gens
    for component, arrows in PARTIAL_COVERS:
        pa = _partial(component)
        assert not pa.is_global() and [k for k, _ in ring_generators(pa)] == arrows


def _commutes(pa, blocks, gens) -> list:
    return [left == right for left, right in (commutator_sides(pa, k, v, blocks)
                                              for k, v in gens)]


@pytest.mark.parametrize("name", ["z2_flip_q.json", "partial_bridge_q.json",
                                  "conj_swap_m2_q.json", "two_components_gf2.json"])
def test_commuting_with_a_alone_is_rejected(name):
    # x = sum_e 1_e d_e (x) 1_e d_e multiplies to 1 and commutes with every
    # a d_{id_e}, but not with some 1_k d_k: the certificate check fails
    pa = load_action(name)
    g_oid = pa.groupoid
    blocks = {(i, i): pa.obj_idem(e) for e, i in g_oid.identity.items()
              if any(pa.obj_idem(e))}
    gens = ring_generators(pa)
    at_identities = [(k, v) for k, v in gens if g_oid.is_identity(k)]
    arrows = [(k, v) for k, v in gens if not g_oid.is_identity(k)]
    assert all(_commutes(pa, blocks, at_identities))
    assert not all(_commutes(pa, blocks, arrows))
    assert separability_checks(pa, blocks) == {"multiplies_to_unit": True,
                                               "commutes_with_basis": False}
    assert reference_separability_checks(pa, blocks)["commutes_with_basis"] is False


def test_commuting_with_the_arrows_alone_is_rejected():
    # on M_2 x M_2, x built on a non-central a commutes with every 1_k d_k
    # but not with some a' d_{id}: the certificate check fails
    pa = load_action("conj_swap_m2_q.json")
    alg = pa.algebra
    g_oid = pa.groupoid
    gens = ring_generators(pa)
    at_identities = [(k, v) for k, v in gens if g_oid.is_identity(k)]
    arrows = [(k, v) for k, v in gens if not g_oid.is_identity(k)]
    planted = 0
    for c in range(alg.dim):
        a = alg.basis_vector(c)
        if alg.commutes_with_all(a):
            continue
        blocks = idempotent_blocks(pa, a)
        assert all(_commutes(pa, blocks, arrows))
        assert not all(_commutes(pa, blocks, at_identities))
        assert separability_checks(pa, blocks)["commutes_with_basis"] is False
        assert reference_separability_checks(pa, blocks)["commutes_with_basis"] is False
        planted += 1
    assert planted


def test_the_dense_system_is_block_diagonal_over_product_classes():
    # every nonzero row reads the blocks (g, h) of one conjugacy class of
    # products gh, and only rows of m at identity degrees, which read the
    # blocks (g, g^-1), have a nonzero right-hand side
    for pa in closed_form_corpus():
        ring = build_skew_ring(pa)
        tensor = reference_square(ring)
        g_oid = pa.groupoid
        classes = product_classes(g_oid)
        identities = {classes[i] for i in g_oid.identity.values()}
        col_class = [classes[c] for c in column_products(tensor)]
        unit_class = set(tensor.unit_class)
        assert unit_class == {k for k, c in enumerate(col_class) if c in identities}
        _, rows, rhs, _ = dense_oracle_system(tensor)
        for r, (row, b) in enumerate(zip(rows, rhs)):
            read = {col_class[k] for k, c in enumerate(row) if c}
            assert len(read) <= 1
            if b:
                assert r < ring.dim and ring.basis[r][0] in g_oid.identity.values()
                assert read <= identities


def test_a_rebuilt_block_equal_to_the_unit_is_the_unit(monkeypatch):
    # `build_certificate` keeps the blocks it rebuilds from the printed
    # summands through `Algebra._reduced`, so a block equal to 1 reaches
    # `multiply` (through `commutator_terms` and `skew_product`) as the
    # unit itself and takes the unit-law shortcut, not as a copy
    corpus = [load_action(p.name) for p in sorted(INSTANCE_DIR.glob("*.json"))]
    rng = random.Random(1)
    corpus += [parse_instance(skeleton_to_instance(random_skeleton(rng), f)).action
               for _ in range(10) for f in ("Q", "GF(2)")]
    factors = []
    multiply = Algebra.multiply

    def recorded(self, x, y):
        factors.extend(v is self.unit for v in (x, y) if v == self.unit)
        return multiply(self, x, y)

    blocks = 0
    for pa in corpus:
        verdict = decide_separability(pa)
        if not verdict.separable:
            continue
        monkeypatch.setattr(Algebra, "multiply", recorded)
        cert = build_certificate(pa, verdict.witness)
        monkeypatch.undo()
        assert all(cert.checks.values())
        blocks += sum(y == pa.algebra.unit for y in cert.blocks.values())
    assert blocks and factors and all(factors)


@pytest.mark.parametrize("name", ["partial_bridge_q.json", "ring 48"])
def test_the_certificate_builds_no_elimination_once_the_blocks_are_kept(
        name, monkeypatch, tmp_path, capsys):
    # the summand coordinates are read off psi_block's own elimination, so
    # once the oracle has kept the blocks (g, g^-1), build_certificate builds
    # no Echelonizer (it built one per nonzero block of the idempotent, in a
    # second elimination of each block's images), in a whole --oracle run
    # too, which runs the oracle first; on these one-component actions the
    # decision builds only the two of `solve_affine`, the trace system's and
    # its null space's (it built two more to put the family in canonical form)
    from skewalg import cli, linalg

    if name == "ring 48":
        path = tmp_path / "ring48.json"
        path.write_text(json.dumps(skeleton_to_instance(RING_48, "Q")))
    else:
        path = INSTANCE_DIR / name
    pa = parse_instance(json.loads(path.read_text())).action
    assert len(pa.groupoid.connected_components().classes) == 1
    assert oracle_separability(pa).separable
    inv = pa.groupoid.inv
    assert set(pa._psi_blocks) == {(g, inv(g)) for g in pa.groupoid.morphisms
                                   if pa.ideal(g).dim}
    built = []
    init = linalg.Echelonizer.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(linalg.Echelonizer, "__init__", counted)
    verdict = decide_separability(pa)
    assert len(built) == 2
    built.clear()
    cert = build_certificate(pa, verdict.witness, verdict.certificate.witness_family)
    assert built == []
    assert cert == verdict.certificate and cert.ok
    assert cert.blocks and all(h == inv(g) for g, h in cert.blocks)

    inside = []
    certify = separability.build_certificate

    def watched(*args, **kwargs):
        before = len(built)
        out = certify(*args, **kwargs)
        inside.append(len(built) - before)
        return out

    monkeypatch.setattr(separability, "build_certificate", watched)
    assert cli.main(["separability", str(path), "--oracle"]) == 0
    capsys.readouterr()
    assert inside == [0]


def test_oracle_on_the_ring_48_skeleton():
    # two objects, Z/3 isotropy, all four letters kept, sigma a 3-cycle and a
    # fixed point: ring 48, square 2304 -> 288, separable unless char is 3
    for fdesc in ("Q", "GF(2)"):
        pa = parse_instance(skeleton_to_instance(RING_48, fdesc)).action
        verdict = decide_separability(pa)
        res = oracle_separability(pa)
        tensor = res.tensor
        assert (tensor.ring_dim, tensor.ambient_dim, tensor.dim) == (48, 2304, 288)
        assert verdict.separable and res.separable
        assert is_witness(pa, extract_witness(pa, tensor, res.solutions.particular))


def test_oracle_on_the_ring_80_skeleton(monkeypatch):
    # two objects, Z/4 isotropy, all five letters kept, sigma a 3-cycle and
    # two fixed points: ring 80, square 6400 -> 640, over the default cap;
    # separable over Q, not over GF(2), where 2 divides the isotropy orders
    monkeypatch.setenv("SKEWALG_MAX_DIM", "6400")
    skel = {"components": [{"k": 2, "m": 4, "d": 5, "sigma": [4, 1, 3, 2, 0],
                            "tau": [[3, 0, 1, 2, 4], [3, 2, 4, 0, 1]],
                            "T": [[0, 1, 2, 3, 4]] * 2}]}
    for fdesc, separable in (("Q", True), ("GF(2)", False)):
        pa = parse_instance(skeleton_to_instance(skel, fdesc)).action
        verdict = decide_separability(pa)
        res = oracle_separability(pa)
        tensor = res.tensor
        assert (tensor.ring_dim, tensor.ambient_dim, tensor.dim) == (80, 6400, 640)
        assert verdict.separable == res.separable == separable
        if separable:
            assert is_witness(pa, extract_witness(pa, tensor, res.solutions.particular))


# -- global actions ----------------------------------------------------------------------------

def test_global_decision_matches_full_decision(pair_swap, trivial_q):
    for pa in (pair_swap, trivial_q):
        vg = decide_global(pa)
        vf = decide_separability(pa)
        assert vg.separable == vf.separable
        assert vg.witness == vf.witness
    assert decide_global(pair_swap).witness == (0, 1)


def test_global_decision_rejects_partial_actions(bridge):
    with pytest.raises(NotGlobal):
        decide_global(bridge)


def test_witness_transport_on_the_swap(pair_swap):
    v = decide_separability(pair_swap)
    tr = isotropy_witness_transport(pair_swap, ("e1", "e2"), v.witness)
    assert tr.obj == "e1"
    assert tr.checks == {"witness_central": True, "single_object_trace": True}
    assert tr.arrows == {"e1": "id:e1", "e2": "s"}
    assert trace_between(pair_swap, "e1", "e1").apply(tr.witness) == \
        pair_swap.obj_idem("e1")


def test_transport_on_single_object_returns_the_witness(trivial_q):
    v = decide_separability(trivial_q)
    tr = isotropy_witness_transport(trivial_q, ("e",), v.witness)
    assert tr.witness == v.witness


def test_transported_witness_satisfies_the_group_criterion(pair_swap):
    # t_{i,i} on the ambient algebra restricts to the isotropy action's trace
    v = decide_separability(pair_swap)
    tr = isotropy_witness_transport(pair_swap, ("e1", "e2"), v.witness)
    iso = restricted_action(pair_swap, (tr.obj,))
    basis = pair_swap.algebra.ideal_basis(pair_swap.obj_idem(tr.obj))
    local = span_coords(basis, tr.witness)
    assert trace_total(iso).apply(local) == iso.algebra.unit


def test_transport_needs_global_action(bridge):
    with pytest.raises(NotGlobal):
        isotropy_witness_transport(bridge, ("e1", "e2"), (1, 0, 1, 1))


def test_transport_rejects_a_witness_that_fails_at_the_transversal(pair_swap):
    with pytest.raises(WitnessInvalid, match="witness fails t\\(b\\) = 1 at the transversal"):
        isotropy_witness_transport(pair_swap, ("e1", "e2"), pair_swap.algebra.zero())


def test_transport_needs_a_connected_class():
    # two objects and no arrow between them: a global action on k^2
    g = build_groupoid(["e1", "e2"], [], [], [])
    pa = PartialAction(g, Algebra.diagonal(Q, 2),
                       {"id:e1": [1, 0], "id:e2": [0, 1]}, {})
    with pytest.raises(EmptyHomSet, match="^no arrow from 'e1' to 'e2'$"):
        isotropy_witness_transport(pa, ("e1", "e2"), (1, 0))


def test_psi_conjugation_needs_a_global_action_and_a_known_arrow(bridge, pair_swap):
    with pytest.raises(NotGlobal, match="isotropy conjugation needs a global action"):
        isotropy_transport_psi(bridge, "g")
    with pytest.raises(SeparabilityError, match="^unknown arrow 'nope'$"):
        isotropy_transport_psi(pair_swap, "nope")


def test_psi_conjugation_is_an_isomorphism(pair_swap):
    psi = isotropy_transport_psi(pair_swap, "s")
    assert psi.source_object == "e1"
    assert psi.target_object == "e2"
    assert psi.checks == {"bijective": True, "multiplicative": True,
                          "unit_to_unit": True}


def test_psi_on_identity_arrow_is_identity(pair_swap):
    psi = isotropy_transport_psi(pair_swap, "id:e1")
    dim = ring_isotropy_iso(pair_swap, "id:e1").source_ring.dim
    assert psi.matrix == identity_matrix(Q, dim)


def _global_corpus() -> list:
    """Every shipped global instance, then seeded global skeletons over Q,
    GF(2) and GF(3)."""
    shipped = [load_action(p.name) for p in sorted(INSTANCE_DIR.glob("*.json"))]
    rng = random.Random(15)
    fuzzed = [parse_instance(skeleton_to_instance(global_skeleton(rng), f)).action
              for _ in range(12) for f in ("Q", "GF(2)", "GF(3)")]
    return [pa for pa in shipped if pa.is_global()] + fuzzed


def test_psi_conjugation_matches_the_isotropy_ring_reference():
    corpus = _global_corpus()
    assert len(corpus) > 36
    arrows = 0
    for pa in corpus:
        assert pa.is_global()
        for arrow in pa.groupoid.morphisms:
            psi = isotropy_transport_psi(pa, arrow)
            ref = ring_isotropy_iso(pa, arrow)
            assert psi.matrix == ref.matrix, arrow
            assert psi.checks == ref.checks, arrow
            assert all(psi.checks.values()), arrow
            arrows += 1
    assert arrows > 100


@pytest.mark.parametrize("name", ["pair_swap_global_q.json", "rotated_swap_q.json",
                                  "rotated_swap_gf5.json", "two_components_q.json"])
def test_corrupted_alpha_image_fails_multiplicativity_on_both_routes(name):
    # a fresh action, validated, then one cached alpha_l-image of a basis row
    # of A_{e_i} is doubled: it stays in A_{e_j}, so every coordinate exists
    pa = load_action(name)
    pa.ensure_valid()
    arrow = next(g for g in pa.groupoid.morphisms
                 if pa.groupoid.src[g] != pa.groupoid.tgt[g])
    row = pa.ideal(pa.groupoid.identity[pa.groupoid.src[arrow]]).rows[0]
    field = pa.algebra.field
    pa._images[(arrow, row)] = field.reduce_vec(2 * x for x in pa.alpha(arrow, row))
    assert not isotropy_transport_psi(pa, arrow).checks["multiplicative"]
    assert not ring_isotropy_iso(pa, arrow).checks["multiplicative"]


def test_psi_on_flip_style_global_instance():
    # Z/2 x pair groupoid acting globally on k^2 (swap transport, identity isotropy)
    data = skeleton_to_instance(
        {"components": [{"k": 2, "m": 1, "d": 1, "sigma": [0],
                         "tau": [[0], [0]], "T": [[0], [0]]}]}, "Q")
    pa = parse_instance(data).action
    assert pa.is_global()
    arrow = pa.groupoid.hom_set("o0", "o1")[0]
    psi = isotropy_transport_psi(pa, arrow)
    assert all(psi.checks.values())


# -- a non-diagonal presentation ------------------------------------------------------------

def rotated_swap_action(field=Q):
    """The two-object swap written over k[x]/(x^2 - 1), basis {1, x}.

    The object idempotents are (1 +/- x)/2, so no ideal is spanned by basis
    vectors and every restriction has to work in echelon coordinates.  Needs
    characteristic != 2.
    """
    from skewalg import Algebra, PartialAction, build_groupoid

    g = build_groupoid(["o1", "o2"], [("s", "o1", "o2"), ("sinv", "o2", "o1")],
                       [("s", "sinv", "id:o2"), ("sinv", "s", "id:o1")],
                       [("s", "sinv")])
    structure = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]   # x * x = 1
    a = Algebra(field, structure, [1, 0], ["one", "x"])
    half = field.inv(field.from_int(2))
    idems = {"id:o1": (half, half), "id:o2": (half, -half),
             "s": (half, -half), "sinv": (half, half)}
    maps = {"s": Matrix(field, [[half, half], [-half, -half]]),
            "sinv": Matrix(field, [[half, -half], [half, -half]])}
    return PartialAction(g, a, idems, maps)


def test_rotated_swap_validates_and_is_global():
    pa = rotated_swap_action()
    assert pa.validate().ok
    assert pa.has_object_decomposition()
    assert pa.is_global()


def test_rotated_swap_separability():
    pa = rotated_swap_action()
    v = decide_separability(pa)
    assert v.separable
    # hand-solved: t_1(a) = a_0 (1 + x)/2 sums force a_0 = 1/2, a_1 free
    assert v.witness == (Fraction(1, 2), 0)
    assert v.certificate.witness_family.kernel_basis == ((0, 1),)
    assert v.certificate.ok
    assert oracle_separability(pa).separable
    assert decide_global(pa).separable
    a = extract_witness(pa, *_oracle_pair(pa))
    assert pa.algebra.commutes_with_all(a)


def _oracle_pair(pa):
    res = oracle_separability(pa)
    return res.tensor, res.solutions.particular


def test_rotated_swap_over_odd_prime_fields():
    # the same action with genuinely modular scalars (1/2 = 3 in GF(5))
    for p in (3, 5, 7):
        f = Field.prime(p)
        pa = rotated_swap_action(f)
        assert pa.validate().ok
        assert pa.is_global()
        v = decide_separability(pa)
        assert v.separable
        assert v.witness == (f.inv(f.from_int(2)), f.zero)
        assert v.certificate.ok
        assert oracle_separability(pa).separable
        assert decide_global(pa).separable
        psi = isotropy_transport_psi(pa, "s")
        assert all(psi.checks.values())


def test_rotated_swap_restriction_works_in_echelon_coordinates():
    pa = rotated_swap_action()
    iso = restricted_action(pa, ("o1",))
    assert iso.algebra.dim == 1
    assert iso.validate().ok
    sub = restricted_action(pa, ("o1", "o2"))
    assert sub.validate().ok
    assert sub.algebra.dim == 2
    tr = isotropy_witness_transport(pa, ("o1", "o2"), decide_separability(pa).witness)
    assert all(tr.checks.values())
    psi = isotropy_transport_psi(pa, "s")
    assert all(psi.checks.values())


# -- differential corpus -------------------------------------------------------------------------

def direct_full_system_separable(pa) -> bool:
    """Third route: solve t_e(a) = 1_e over C(A) with no component reduction."""
    alg = pa.algebra
    center = alg.center_basis()
    cmat = from_cols(alg.field, center.rows)
    rows, rhs = [], []
    for e in pa.groupoid.objects:
        block = matmul(trace_into(pa, e), cmat)
        rows.extend(block.data)
        rhs.extend(pa.obj_idem(e))
    return not solve_affine(alg.field, rows, rhs, center.dim).is_empty


def assert_families_match_restricted_route(pa):
    """Each component's witness family, from the full and (for a global
    action) the transversal system, equals the one its restricted instance
    gives."""
    deciders = (decide_separability, decide_global) if pa.is_global() else \
        (decide_separability,)
    for decide in deciders:
        for comp in decide(pa).per_component:
            assert comp.witness_family == restricted_component_family(
                pa, comp.objects, comp.solved_objects), (decide.__name__, comp.objects)


def test_component_families_match_the_cut_route():
    # every component's family is solve_affine's set mapped through the
    # center basis, with no cut and no second elimination; the verdict keeps
    # a lone component's family as it is, and puts the sum of several in
    # canonical form.  Each family, and the verdict's, equals the route that
    # cuts and canonicalises every one
    lone = several = 0
    for pa in psi_corpus():
        deciders = (decide_separability, decide_global) if pa.is_global() else \
            (decide_separability,)
        for decide in deciders:
            verdict = decide(pa)
            field, dim = pa.algebra.field, pa.algebra.dim
            refs = [cut_component_family(pa, comp.objects, comp.solved_objects)
                    for comp in verdict.per_component]
            for comp, ref in zip(verdict.per_component, refs):
                assert repr(comp.witness_family) == repr(ref), (decide.__name__, comp.objects)
            if len(refs) == 1:
                lone += 1
            else:
                several += 1
            if verdict.separable:
                witness = pa.algebra.zero()
                for ref in refs:
                    witness = vadd(field, witness, ref.particular)
                ke = echelon(field, [k for ref in refs for k in ref.kernel_basis], dim)
                expected = AffineSolutionSet(ke.reduce(witness), ke.rows, field)
                assert repr(verdict.certificate.witness_family) == repr(expected)
                assert verdict.witness == expected.particular
    assert lone >= 100 and several >= 60


def test_several_components_still_take_the_cut(monkeypatch):
    # the rows a 1_f = 0 cut each component's family inside its own system,
    # which `solve_affine` leaves canonical; only the sum of the families of
    # several separable components is put in canonical form afresh
    calls = []
    original = separability._canonical_family

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(separability, "_canonical_family", spy)
    for name, expected in (("two_components_q.json", 1), ("two_components_gf2.json", 0),
                           ("conj_swap_m2_q.json", 0), ("partial_bridge_q.json", 0)):
        calls.clear()
        decide_separability(load_action(name))
        assert len(calls) == expected, name


def test_decision_agrees_with_oracle_on_random_corpus():
    rng = random.Random(99)
    for _ in range(6):
        skel = random_skeleton(rng)
        for fdesc in ("Q", "GF(2)"):
            pa = parse_instance(skeleton_to_instance(skel, fdesc)).action
            verdict = decide_separability(pa).separable
            assert verdict == oracle_separability(pa).separable
            assert verdict == direct_full_system_separable(pa)
            assert_families_match_restricted_route(pa)


def test_witness_families_match_the_restricted_route_on_shipped_instances():
    names = sorted(p.name for p in INSTANCE_DIR.glob("*.json"))
    assert {"two_components_q.json", "two_components_gf2.json"} <= set(names)
    for name in names:
        pa = load_action(name)
        assert_families_match_restricted_route(pa)
    # the two-component files pin families across components
    q = decide_separability(load_action("two_components_q.json"))
    assert [c.separable for c in q.per_component] == [True, True]
    assert len(q.per_component[1].witness_family.kernel_basis) == 1
    gf2 = decide_separability(load_action("two_components_gf2.json"))
    assert [c.separable for c in gf2.per_component] == [False, True]


def test_direct_system_agrees_on_worked_instances(bridge, flip_q, flip_gf2,
                                                  glued_double, pair_swap):
    for pa in (bridge, flip_q, flip_gf2, glued_double, pair_swap):
        assert direct_full_system_separable(pa) == decide_separability(pa).separable
    assert direct_full_system_separable(rotated_swap_action())


# -- scalar representation and object lifetime ---------------------------------------------

def _scalars_of_family(fam):
    if fam.is_empty:
        return []
    return [fam.particular, *fam.kernel_basis]


def _certificate_and_oracle_vectors(pa) -> list:
    verdict = decide_separability(pa)
    oracle = oracle_separability(pa)
    assert verdict.separable and oracle.separable
    cert = verdict.certificate
    vectors = [verdict.witness, cert.witness, *cert.blocks.values(),
               *_scalars_of_family(cert.witness_family),
               *_scalars_of_family(oracle.solutions),
               extract_witness(pa, oracle.tensor, oracle.solutions.particular)]
    for comp in verdict.per_component:
        vectors.extend(_scalars_of_family(comp.witness_family))
    for _, u, _, w in cert.summands:
        vectors.extend((u, w))
    return vectors


@pytest.mark.parametrize("name,p", [("z2_flip_gf3.json", 3), ("rotated_swap_gf5.json", 5)])
def test_certificate_and_oracle_scalars_are_residues(name, p):
    from conftest import load_action

    vectors = _certificate_and_oracle_vectors(load_action(name))
    assert all(type(x) is int and 0 <= x < p for v in vectors for x in v)


@pytest.mark.parametrize("name", ["pair_swap_global_q.json", "partial_bridge_q.json",
                                  "rotated_swap_q.json", "z2_flip_q.json"])
def test_certificate_and_oracle_q_scalars_are_ints_when_integral(name):
    from conftest import load_action

    vectors = _certificate_and_oracle_vectors(load_action(name))
    scalars = [x for v in vectors for x in v]
    assert all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for x in scalars)
    if name == "rotated_swap_q.json":
        assert {type(x) for x in scalars} == {int, Fraction}


def test_separability_objects_are_freed_by_reference_counting():
    # no reference cycle may keep an op's action or tensor square alive
    import gc
    import weakref
    from conftest import INSTANCE_DIR
    from skewalg.instances import load_instance

    gc.collect()
    gc.disable()
    try:
        for path in sorted(INSTANCE_DIR.glob("*.json")):
            pa = load_instance(path).action
            verdict = decide_separability(pa)
            oracle = oracle_separability(pa)
            refs = [weakref.ref(x) for x in
                    (pa, pa.algebra, oracle.tensor)]
            del pa, verdict, oracle
            assert all(r() is None for r in refs), path.name
    finally:
        gc.enable()


# -- the certificate on denominator-free vectors ----------------------------------------

def _reference_corpus():
    """`closed_form_corpus` and six more fuzz skeletons over Q, GF(2), GF(3)."""
    yield from closed_form_corpus()
    rng = random.Random(19)
    for _ in range(6):
        skel = random_skeleton(rng)
        for field in ("Q", "GF(2)", "GF(3)"):
            yield parse_instance(skeleton_to_instance(skel, field)).action


def _random_scalar(field, rng):
    """Over Q a fraction with denominator 2..7, over GF(p) a residue."""
    if field.p is None:
        return field.reduce_vec([Fraction(rng.randint(-6, 6), rng.randint(2, 7))])[0]
    return rng.randrange(field.p)


def _same_certificate(cert, ref) -> None:
    assert cert == ref
    assert repr(cert) == repr(ref)          # int vs integral Fraction, block order


def test_certificate_matches_the_reference_with_denominators():
    # witnesses, other members of their families, random rational vectors
    # (denominators 2..7), central ones and perturbed witnesses: the witness
    # verdict, the certificate and the checks against the route that keeps
    # the denominators
    rng = random.Random(53)
    verdicts = set()
    for pa in _reference_corpus():
        alg = pa.algebra
        field = alg.field
        verdict = decide_separability(pa)
        candidates = [field.reduce_vec(_random_scalar(field, rng) for _ in range(alg.dim))]
        center = alg.center_basis().rows
        candidates.append(field.reduce_vec(
            sum(c * z[j] for c, z in zip([_random_scalar(field, rng) for _ in center],
                                         center))
            for j in range(alg.dim)))
        if verdict.separable:
            cert = verdict.certificate
            family = cert.witness_family
            _same_certificate(cert, reference_build_certificate(pa, cert.witness, family))
            other = family.element([_random_scalar(field, rng) for _ in family.kernel_basis])
            candidates.append(other)
            candidates.append(vadd(field, cert.witness, candidates[0]))
        for a in candidates:
            ok = is_witness(pa, a)
            assert ok == reference_is_witness(pa, a)
            verdicts.add(ok)
            if ok:
                _same_certificate(build_certificate(pa, a),
                                  reference_build_certificate(pa, a))
            else:
                with pytest.raises(WitnessInvalid):
                    build_certificate(pa, a)
                with pytest.raises(WitnessInvalid):
                    reference_build_certificate(pa, a)
            blocks = idempotent_blocks(pa, a)
            assert separability_checks(pa, blocks) == reference_separability_checks(pa, blocks)
    assert verdicts == {True, False}


def test_changed_basis_actions_match_the_dense_references():
    # fuzz actions over Q and GF(3) rewritten over A in a random basis, so
    # that the ideals are not spanned by basis vectors: each block against
    # the greedy dense scan, the certificate against the route that keeps
    # the denominators, and the decision against the oracle
    rng = random.Random(31)
    blocks = moved = families = 0
    for _ in range(60):
        skel = random_skeleton(rng)
        for field in ("Q", "GF(3)"):
            pa = changed_basis_action(
                parse_instance(skeleton_to_instance(skel, field)).action, rng)
            assert pa.validate().ok
            for g, h in pa.groupoid.composable_pairs():
                if pa.ideal(g).dim and pa.ideal(h).dim:
                    assert psi_block(pa, g, h)[:4] == greedy_psi_block(pa, g, h)
                    blocks += 1
            moved += any(sum(map(bool, u)) > 1
                         for g in pa.groupoid.morphisms for u in pa.ideal(g).rows)
            verdict = decide_separability(pa)
            agree, a, a_ok = cross_check(pa, verdict, oracle_separability(pa))
            assert agree and a_ok is not False
            if verdict.separable:
                cert = verdict.certificate
                assert cert.ok
                _same_certificate(cert, reference_build_certificate(pa, cert.witness,
                                                                    cert.witness_family))
                families += cert.witness_family.dim > 0
    assert blocks > 1500 and moved > 60 and families > 40


_FRACTIONAL_WITNESSES = ["z2_flip_q.json", "rotated_swap_q.json"]


@pytest.mark.parametrize("name", _FRACTIONAL_WITNESSES)
def test_a_rescaled_witness_fails(name):
    # clearing the denominators of a must not forget them: 2a and a/3 are
    # no witnesses, and x built on 2a commutes with A*G but multiplies to 2
    pa = load_action(name)
    field = pa.algebra.field
    a = decide_separability(pa).witness
    if name == "z2_flip_q.json":
        assert a == (Fraction(1, 2), Fraction(1, 2))
    assert any(type(x) is Fraction for x in a)
    assert is_witness(pa, a)
    for c in (2, Fraction(1, 3)):
        b = field.reduce_vec(c * x for x in a)
        assert not is_witness(pa, b)
        with pytest.raises(WitnessInvalid):
            build_certificate(pa, b)
    blocks = idempotent_blocks(pa, field.reduce_vec(2 * x for x in a))
    assert separability_checks(pa, blocks) == {"multiplies_to_unit": False,
                                               "commutes_with_basis": True}


@pytest.mark.parametrize("name", _FRACTIONAL_WITNESSES)
def test_the_certificate_looks_up_no_fraction(name, monkeypatch):
    # while the decision builds its certificate, every product and
    # alpha-image lookup is keyed by integral vectors
    pa = load_action(name)
    active, seen = [], []
    multiply, alpha, build = Algebra.multiply, PartialAction.alpha, build_certificate

    def fractional(*vectors):
        if active:
            seen.extend(v for v in vectors if any(type(x) is Fraction for x in v))

    def counted_multiply(self, x, y):
        fractional(x, y)
        return multiply(self, x, y)

    def counted_alpha(self, g, v):
        fractional(v)
        return alpha(self, g, v)

    def counted_build(*args, **kwargs):
        active.append(True)
        try:
            return build(*args, **kwargs)
        finally:
            active.pop()

    monkeypatch.setattr(Algebra, "multiply", counted_multiply)
    monkeypatch.setattr(PartialAction, "alpha", counted_alpha)
    monkeypatch.setattr(separability, "build_certificate", counted_build)
    verdict = decide_separability(pa)
    assert verdict.certificate.ok
    assert any(type(x) is Fraction for x in verdict.witness)
    assert seen == []


def test_the_decision_builds_no_trace_matrix(monkeypatch):
    # the decision, the witness checks and the isotropy transport read the
    # traces off alpha-images; the dense trace matrices serve `traces` only
    calls = []
    for name in ("trace_into", "trace_between"):
        def counted(*args, _name=name, _f=getattr(separability, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(separability, name, counted)
    rng = random.Random(7)
    actions = [load_action(p.name) for p in sorted(INSTANCE_DIR.glob("*.json"))]
    actions += [parse_instance(skeleton_to_instance(random_skeleton(rng), f)).action
                for f in ("Q", "GF(2)") for _ in range(4)]
    for pa in actions:
        verdict = decide_separability(pa)
        if verdict.separable:
            assert is_witness(pa, verdict.witness)
        if not pa.is_global():
            continue
        assert decide_global(pa).separable == verdict.separable
        for comp in verdict.per_component:
            if comp.separable:
                tr = isotropy_witness_transport(pa, comp.objects,
                                                comp.witness_family.particular)
                assert all(tr.checks.values())
    assert calls == []


@pytest.mark.parametrize("field", ["Q", "GF(2)", "GF(3)"])
def test_a_partial_shift_eliminates_only_in_the_trace_system(field, monkeypatch):
    # Z/3 acts on k^8 by shifting the letters of the blocks 012, 345 and
    # 678, letter 8 dropped: every ideal basis, span of alpha-images, psi
    # block and witness family is already a reduced echelon basis, so
    # validating and deciding builds an Echelonizer only inside the trace
    # system's `solve_affine`
    from skewalg import linalg
    from skewalg.partial_action import validate_partial_action

    skeleton = {"components": [{"k": 1, "m": 3, "d": 9, "sigma": [1, 2, 0, 4, 5, 3, 7, 8, 6],
                                "tau": [list(range(9))], "T": [list(range(8))]}]}
    pa = parse_instance(skeleton_to_instance(skeleton, field)).action
    built, solving = [], [False]
    init, solve = linalg.Echelonizer.__init__, separability.solve_affine

    def counted(self, *args):
        built.append(solving[0])
        init(self, *args)

    def traced(*args):
        solving[0] = True
        try:
            return solve(*args)
        finally:
            solving[0] = False

    monkeypatch.setattr(linalg.Echelonizer, "__init__", counted)
    monkeypatch.setattr(separability, "solve_affine", traced)
    assert validate_partial_action(pa).ok
    verdict = decide_separability(pa)
    assert verdict.separable and verdict.certificate.ok
    assert pa.algebra.dim == 8 and len(pa.groupoid.morphisms) == 3
    assert True in built and False not in built
