import itertools
import json
import random

import pytest

from skewalg import (ActionError, Algebra, DecompositionRequired, Echelon, Field,
                     Groupoid, Matrix, PartialAction, Violation, build_groupoid,
                     build_skew_ring, decide_separability,
                     isotropy_transport_psi, oracle_separability,
                     validate_partial_action)
from skewalg import partial_action
from skewalg.fuzz import FIELDS, random_skeleton, skeleton_to_instance
from skewalg.instances import load_instance, parse_instance

from conftest import (INSTANCE_DIR, OverlappingObjects, changed_basis_action, from_cols,
                      full_scan_validate_partial_action,
                      global_skeleton, glue_components, identity_matrix, instance_data,
                      load_action, matmul, renamed_instance, restricted_action,
                      subspace_invariant_suite, subspace_validate_partial_action,
                      violation_codes, zero_matrix)
from test_skewring import m2_corpus

Q = Field.rationals()


def same_action_data(a: PartialAction, b: PartialAction) -> bool:
    return (a.groupoid.objects == b.groupoid.objects
            and a.groupoid.morphisms == b.groupoid.morphisms
            and a.algebra._table == b.algebra._table
            and a.idems == b.idems
            and a.maps == b.maps)


# -- validation -----------------------------------------------------------------

def test_bridge_action_is_valid(bridge):
    assert bridge.validate().ok


def test_flip_action_is_valid(flip_q, flip_gf2, flip_gf3):
    for pa in (flip_q, flip_gf2, flip_gf3):
        assert pa.validate().ok


def test_zeroed_map_is_not_a_ring_iso(bridge):
    maps = dict(bridge.maps)
    maps["ginv"] = zero_matrix(Q, 4, 4)
    broken = PartialAction(bridge.groupoid, bridge.algebra, bridge.idems, maps)
    report = validate_partial_action(broken)
    assert not report.ok
    assert "NotRingIso" in violation_codes(report)


def test_non_idempotent_domain_is_flagged(bridge):
    idems = dict(bridge.idems)
    idems["g"] = bridge.algebra.element([0, 0, 2, 0])
    report = validate_partial_action(
        PartialAction(bridge.groupoid, bridge.algebra, idems, bridge.maps))
    assert "NotIdempotentDomain" in violation_codes(report)


def test_identity_axiom_violation_is_flagged(bridge):
    maps = dict(bridge.maps)
    # a map that permutes A_{e1} instead of fixing it
    maps["id:e1"] = Matrix(Q, [[0, 1, 0, 0], [1, 0, 0, 0],
                               [0, 0, 0, 0], [0, 0, 0, 0]])
    report = validate_partial_action(
        PartialAction(bridge.groupoid, bridge.algebra, bridge.idems, maps))
    assert "IdentityAxiom" in violation_codes(report)


def test_domain_outside_target_ideal_is_flagged(bridge):
    idems = dict(bridge.idems)
    idems["g"] = bridge.algebra.element([1, 0, 0, 0])  # v1 is not inside A_{e2}
    maps = dict(bridge.maps)
    maps["g"] = Matrix(Q, [[0, 1, 0, 0], [0, 0, 0, 0],
                           [0, 0, 0, 0], [0, 0, 0, 0]])
    report = validate_partial_action(
        PartialAction(bridge.groupoid, bridge.algebra, idems, maps))
    assert "NotIdempotentDomain" in violation_codes(report)


@pytest.mark.parametrize("drop,message", [
    ("idems", "no domain idempotent for morphism 'g'"),
    ("maps", "no map given for non-identity morphism 'g'"),
    ("shape", "map for 'g' is not 4 x 4"),
])
def test_each_constructor_error_names_the_morphism(bridge, drop, message):
    idems, maps = dict(bridge.idems), dict(bridge.maps)
    if drop == "idems":
        del idems["g"]
    elif drop == "maps":
        del maps["g"]
    else:
        maps["g"] = Matrix(Q, [[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    with pytest.raises(ActionError) as exc:
        PartialAction(bridge.groupoid, bridge.algebra, idems, maps)
    assert str(exc.value) == message


def test_an_arrow_without_inverse_is_not_a_ring_iso(bridge):
    # `validate` stops at the groupoid law; a direct call reports the arrow
    g = bridge.groupoid
    broken = Groupoid(g.objects, g.morphisms, g.src, g.tgt, g.identity, g.compose,
                      {m: v for m, v in g.inverse.items() if m != "g"})
    pa = PartialAction(broken, bridge.algebra, bridge.idems, bridge.maps)
    assert violation_codes(pa.validate()) == {"MissingInverse"}
    assert validate_partial_action(pa).violations == (
        Violation("NotRingIso", "morphism 'g' has no usable inverse"),)


def test_containment_axiom_violation_is_flagged():
    # Z/4 with the swap on span(v1,v2) attached to g and only k v3 attached to
    # g^2: every arrow map is a ring iso, but alpha_g^-1(A_{g^-1} /\ A_g) is
    # span(v1,v2), which does not sit inside A_{(gg)^-1} = k v3.
    g = build_groupoid(["e"], [("g", "e", "e"), ("g2", "e", "e"), ("g3", "e", "e")],
                       [("g", "g", "g2"), ("g", "g2", "g3"), ("g2", "g", "g3"),
                        ("g2", "g2", "id:e"), ("g", "g3", "id:e"),
                        ("g3", "g", "id:e"), ("g3", "g3", "g2"),
                        ("g2", "g3", "g"), ("g3", "g2", "g")],
                       [("g", "g3"), ("g2", "g2")])
    a = Algebra.diagonal(Q, 3)
    swap = Matrix(Q, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    proj3 = Matrix(Q, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    idems = {"id:e": [1, 1, 1], "g": [1, 1, 0], "g3": [1, 1, 0], "g2": [0, 0, 1]}
    maps = {"g": swap, "g3": swap, "g2": proj3}
    report = validate_partial_action(PartialAction(g, a, idems, maps))
    assert not report.ok
    assert "AxiomII" in violation_codes(report)


def test_composition_axiom_violation_is_flagged():
    # Z/3 acting globally on k^3 by the 3-cycle; replacing the square of the
    # cycle with the identity map keeps every per-arrow check happy but breaks
    # the composition-extension axiom at the pair (g, g).
    g = build_groupoid(["e"], [("g", "e", "e"), ("g2", "e", "e")],
                       [("g", "g", "g2"), ("g", "g2", "id:e"),
                        ("g2", "g", "id:e"), ("g2", "g2", "g")],
                       [("g", "g2")])
    a = Algebra.diagonal(Q, 3)
    cycle = Matrix(Q, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    idems = {"id:e": [1, 1, 1], "g": [1, 1, 1], "g2": [1, 1, 1]}
    ok = PartialAction(g, a, idems, {"g": cycle, "g2": matmul(cycle, cycle)})
    assert validate_partial_action(ok).ok
    bad = PartialAction(g, a, idems, {"g": cycle, "g2": identity_matrix(Q, 3)})
    report = validate_partial_action(bad)
    assert not report.ok
    assert "AxiomIII" in violation_codes(report)


# -- globality ---------------------------------------------------------------------

def test_bridge_is_not_global(bridge):
    # A_g is a proper ideal of the target object ideal
    assert not bridge.is_global()


def test_pair_swap_is_global(pair_swap):
    assert pair_swap.is_global()


def test_trivial_action_is_global(trivial_q):
    assert trivial_q.is_global()


def test_decision_and_ring_require_decomposition(bridge):
    # shrink A_{e2} to k v3: v4 lies in no object ideal, so the direct sum fails
    idems = dict(bridge.idems)
    idems["id:e2"] = bridge.algebra.element([0, 0, 1, 0])
    maps = dict(bridge.maps)
    maps["id:e2"] = bridge.algebra.right_mul_matrix(idems["id:e2"])
    pa = PartialAction(bridge.groupoid, bridge.algebra, idems, maps)
    assert pa.validate().ok          # the axioms alone do not need the direct sum
    assert not pa.has_object_decomposition()
    for needs_sum in (build_skew_ring, decide_separability):
        with pytest.raises(DecompositionRequired, match="not orthogonal with sum 1"):
            needs_sum(pa)


# -- gluing ---------------------------------------------------------------------------------

def test_glued_double_validates_and_has_two_components(glued_double):
    assert glued_double.validate().ok
    assert glued_double.algebra.dim == 8
    assert len(glued_double.groupoid.connected_components().classes) == 2
    assert glued_double.has_object_decomposition()


def test_glue_then_restrict_round_trip():
    base = instance_data("partial_bridge_q.json")
    left = parse_instance(renamed_instance(base, "L.")).action
    right = parse_instance(renamed_instance(base, "R.")).action
    glued = glue_components([left, right])
    classes = glued.groupoid.connected_components().classes
    assert same_action_data(restricted_action(glued, classes[0]), left)
    assert same_action_data(restricted_action(glued, classes[1]), right)


def test_glue_single_part_is_itself(bridge):
    assert glue_components([bridge]) is bridge


def test_glue_rejects_overlapping_names(bridge):
    with pytest.raises(OverlappingObjects):
        glue_components([bridge, bridge])


# -- identity map forcing -------------------------------------------------------------------

def test_identity_maps_are_forced_when_omitted(bridge):
    maps = {g: m for g, m in bridge.maps.items()
            if not bridge.groupoid.is_identity(g)}
    pa = PartialAction(bridge.groupoid, bridge.algebra, bridge.idems, maps)
    assert pa.matrix("id:e1") == bridge.algebra.right_mul_matrix(pa.idem("id:e1"))
    assert pa.validate().ok


def _alpha_arrows(monkeypatch) -> list:
    """Record the arrow of each `PartialAction.alpha` call from now on."""
    arrows = []
    alpha = PartialAction.alpha

    def recorded(self, g, v):
        arrows.append(g)
        return alpha(self, g, v)

    monkeypatch.setattr(PartialAction, "alpha", recorded)
    return arrows


def test_default_identity_maps_are_checked_by_construction(monkeypatch):
    # an identity arrow given no map is stored as R: b -> b 1_e, which no
    # arrow check and no identity axiom can flag once 1_e is a central
    # idempotent, so they compute no alpha-image of it; the same map given
    # explicitly runs them all, to the same report
    with_defaults = 0
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        entries = json.loads(path.read_text())["action"]
        pa = load_instance(path).action
        g_oid = pa.groupoid
        identities = set(g_oid.identity.values())
        assert pa.defaulted == {g for g in g_oid.morphisms if "map" not in entries[g]}
        assert pa.defaulted <= identities
        explicit = PartialAction(g_oid, pa.algebra, pa.idems, dict(pa.maps))
        assert explicit.defaulted == set()
        assert validate_partial_action(explicit).violations == pa.validate().violations == ()
        for action in (pa, explicit):
            arrows = _alpha_arrows(monkeypatch)
            iso_ok = set(action.defaulted)
            assert not list(partial_action._arrow_violations(
                action, set(g_oid.morphisms), iso_ok, set()))
            assert not list(partial_action._identity_violations(action))
            monkeypatch.undo()
            assert iso_ok == set(g_oid.morphisms)
            assert identities & set(arrows) == identities - action.defaulted, path.name
        with_defaults += bool(pa.defaulted)
    # every shipped instance but the two two_components_* leaves them out
    assert with_defaults == 8


def test_explicit_identity_maps_run_every_check():
    # planted identity maps, right or wrong, are validated as the full scan
    # validates them: the unit map, which fails the complement check where
    # 1_e != 1; the zero map; and 2 R, a bijection that is not multiplicative
    flagged = set()
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        pa = load_instance(path).action
        field, dim = pa.algebra.field, pa.algebra.dim
        for e in pa.groupoid.objects:
            i = pa.groupoid.identity[e]
            right = pa.algebra.right_mul_matrix(pa.idem(i))
            planted = [identity_matrix(field, dim), zero_matrix(field, dim, dim),
                       Matrix(field, [[2 * x for x in row] for row in right.data])]
            for m in planted:
                bad = PartialAction(pa.groupoid, pa.algebra, pa.idems, {**pa.maps, i: m})
                assert i not in bad.defaulted
                report = validate_partial_action(bad)
                assert report.violations == full_scan_validate_partial_action(bad).violations
                assert report.ok == (m == right), (path.name, e)
                flagged |= violation_codes(report)
    assert flagged == {"NotRingIso", "IdentityAxiom"}


# -- post-validation invariants ----------------------------------------------------------------

def test_invariant_suite_on_known_instances(bridge, flip_q, pair_swap, glued_double):
    """The three identities of `subspace_invariant_suite` hold on every
    valid action, by the axioms `validate_partial_action` checks, so the
    `validate` report does not print them.  Write alpha_g for the ring
    isomorphism A_{g^-1} -> A_g and M_g(b) = alpha_g(b 1_{g^-1}) for the
    stored map; II and III are the axioms of a composable pair (g, h):
    alpha_h^-1(A_{g^-1} /\\ A_h) lies in A_{(gh)^-1}, where
    alpha_g alpha_h = alpha_gh.
    - Inverse consistency, alpha_{g^-1} alpha_g = id on A_{g^-1}: for u in
      A_{g^-1}, alpha_g(u) lies in A_g = A_{(g^-1)^-1} /\\ A_g, so II and III
      for (g^-1, g) put u in A_{s(g)} and give
      alpha_{g^-1}(alpha_g(u)) = alpha_{id}(u) = u by the identity axiom.
    - Intersection transport, alpha_g(A_{g^-1} /\\ A_h) = A_g /\\ A_gh: for x
      on the left, y = alpha_{h^-1}(x) = alpha_h^-1(x) by inverse
      consistency; II puts y in A_{(gh)^-1} and III gives
      alpha_g(x) = alpha_gh(y), in A_g /\\ A_gh.  The same for the pair
      (g^-1, gh) maps A_g /\\ A_gh into A_{g^-1} /\\ A_h, and alpha_g undoes
      it, so the inclusion is onto: the suite compares the two spans.
    - Composite restriction, M_g M_h = R_{1_g} M_gh: x = M_h(b) lies in A_h,
      and x 1_{g^-1} = alpha_h(y) for y = b 1_{h^-1} q, where
      q = alpha_{h^-1}(1_h 1_{g^-1}) = 1_{h^-1} 1_{(gh)^-1} by intersection
      transport for (h^-1, g^-1).  III gives M_g(x) = alpha_gh(y)
      = M_gh(b) alpha_gh(1_{(gh)^-1} 1_{h^-1}) = M_gh(b) 1_gh 1_g, again by
      intersection transport for (gh, h^-1), and M_gh(b) 1_gh = M_gh(b)."""
    for pa in (bridge, flip_q, pair_swap, glued_double):
        assert pa.validate().ok
        assert all(subspace_invariant_suite(pa).values())


def test_invariant_suite_on_fuzzed_instances():
    import random
    rng = random.Random(7)
    for _ in range(5):
        data = skeleton_to_instance(random_skeleton(rng), "Q")
        pa = parse_instance(data).action
        assert pa.validate().ok
        assert pa.has_object_decomposition()
        assert all(subspace_invariant_suite(pa).values())


def test_invariant_suite_on_changed_basis_actions():
    # the three identities on fuzz actions over Q and GF(3) and on the M_2
    # actions, rewritten in a random basis: dense maps, and ideals not
    # spanned by basis vectors
    rng = random.Random(17)
    actions = [parse_instance(skeleton_to_instance(random_skeleton(rng), field)).action
               for _ in range(10) for field in ("Q", "GF(3)")]
    for pa in [*actions, *m2_corpus()]:
        moved = changed_basis_action(pa, rng)
        assert moved.validate().ok
        assert all(subspace_invariant_suite(moved).values())


def test_object_decomposition_is_checked_once_per_action(monkeypatch):
    # the verdict is cached on the action, as the validation report is
    from conftest import INSTANCE_DIR
    from skewalg.instances import load_instance
    from skewalg.separability import decide_separability, oracle_separability

    checked = []
    original = Algebra.check_object_decomposition

    def counted(self, idems):
        checked.append(self)
        return original(self, idems)

    monkeypatch.setattr(Algebra, "check_object_decomposition", counted)
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        pa = load_instance(path).action
        decide_separability(pa)
        oracle_separability(pa)
        assert checked == [pa.algebra], path.name
        checked.clear()


def test_alpha_is_the_stored_map_on_every_shipped_instance():
    # alpha keeps its images: after validation and the decision have filled
    # that store, each kept image must still be the stored matrix applied
    from conftest import INSTANCE_DIR
    from skewalg.instances import load_instance
    from skewalg.separability import decide_separability

    for path in sorted(INSTANCE_DIR.glob("*.json")):
        pa = load_instance(path).action
        decide_separability(pa)
        alg = pa.algebra
        vectors = [alg.unit, *(alg.basis_vector(i) for i in range(alg.dim)),
                   *pa.idems.values(),
                   *(row for g in pa.groupoid.morphisms for row in pa.ideal(g).rows)]
        for g in pa.groupoid.morphisms:
            for v in vectors:
                for w in (v, list(v), v):
                    assert pa.alpha(g, w) == pa.matrix(g).apply(v), (path.name, g)


def test_an_alpha_image_equal_to_a_kept_vector_is_that_vector(monkeypatch):
    # alpha keeps each new image through the algebra, so an image equal to
    # the unit is `Algebra.unit` itself, one equal to a domain idempotent is
    # that idempotent, and `multiply` takes the unit law on it by identity
    from skewalg import algebra

    products = []
    table_product = algebra.table_product
    monkeypatch.setattr(algebra, "table_product",
                        lambda *args: products.append(args) or table_product(*args))
    units = 0
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        pa = load_action(path.name)
        alg = pa.algebra
        kept = {v: v for v in (alg.unit, *pa.idems.values())}
        for g in pa.groupoid.morphisms:
            for v in kept:
                image = pa.alpha(g, list(v))
                assert kept.get(image, image) is image, (path.name, g)
                if image == alg.unit:
                    units += 1
                    assert image is alg.unit
                    products.clear()
                    assert [alg.multiply(image, b) for b in alg._basis] == list(alg._basis)
                    assert products == []
    assert units


# -- the alpha-image checks against the subspace references ---------------------------------

def _relabelled(pa: PartialAction):
    """Per non-identity arrow g, the actions with alpha_g's map replaced by
    another arrow's map between the same two domains: every arrow still
    passes the ring-isomorphism checks."""
    g_oid = pa.groupoid
    for g in g_oid.morphisms:
        if g_oid.is_identity(g):
            continue
        for k in g_oid.morphisms:
            if (pa.idem(k) == pa.idem(g) and pa.idem(g_oid.inv(k)) == pa.idem(g_oid.inv(g))
                    and pa.matrix(k) != pa.matrix(g)):
                yield PartialAction(g_oid, pa.algebra, pa.idems, {**pa.maps, g: pa.matrix(k)})


def _shrunk(pa: PartialAction, keep_maps: bool):
    """Per non-identity arrow pair (g, g^-1), A_g shrunk to A f for each central
    idempotent f below 1_g and A_{g^-1} to A alpha_{g^-1}(f).  With both maps
    restricted every arrow still passes the ring-isomorphism checks; with the
    maps kept, alpha_g no longer annihilates the complement of its domain."""
    g_oid = pa.groupoid
    alg = pa.algebra
    for g in g_oid.morphisms:
        ginv = g_oid.inv(g)
        if g_oid.is_identity(g):
            continue
        candidates = [alg.multiply(pa.idem(g), alg.basis_vector(i)) for i in range(alg.dim)]
        candidates += [alg.multiply(pa.idem(g), pa.idem(k)) for k in g_oid.morphisms]
        for f in dict.fromkeys(candidates):
            if f == pa.idem(g) or not any(f) or not alg.is_central_idempotent(f):
                continue
            f_src = pa.alpha(ginv, f)
            if g == ginv and f_src != f:
                continue
            idems = {**pa.idems, g: f, ginv: f_src}
            maps = pa.maps if keep_maps else {
                **pa.maps, g: matmul(pa.matrix(g), alg.right_mul_matrix(f_src)),
                ginv: matmul(pa.matrix(ginv), alg.right_mul_matrix(f))}
            yield PartialAction(g_oid, alg, idems, maps)


def _reference_corpus():
    """The shipped instances, seeded fuzz and global skeletons over Q, GF(2)
    and GF(3), and the planted corruptions of each."""
    shipped = [load_action(p.name) for p in sorted(INSTANCE_DIR.glob("*.json"))]
    rng = random.Random(16)
    skeletons = [random_skeleton(rng) for _ in range(30)]
    skeletons += [global_skeleton(rng) for _ in range(10)]
    fuzzed = [parse_instance(skeleton_to_instance(skel, f)).action
              for skel in skeletons for f in ("Q", "GF(2)", "GF(3)")]
    for pa in shipped + fuzzed:
        yield pa
        yield from _relabelled(pa)
        yield from _shrunk(pa, keep_maps=False)
        yield from _shrunk(pa, keep_maps=True)


def test_alpha_image_checks_match_the_subspace_references():
    seen = set()
    suites = set()
    count = 0
    for pa in _reference_corpus():
        report = validate_partial_action(pa)
        assert report.violations == subspace_validate_partial_action(pa).violations
        seen |= {v.message if "complement" in v.message else v.code
                 for v in report.violations}
        if not violation_codes(report) & {"NotIdempotentDomain", "NotRingIso"}:
            suite = subspace_invariant_suite(pa)
            assert all(suite.values()) or not report.ok
            suites.add(tuple(suite.values()))
        count += 1
    assert count > 300
    assert {"AxiomII", "AxiomIII"} <= seen
    assert any("complement" in m for m in seen)
    assert (True, True, True) in suites and len(suites) > 2


# -- the full-scan reference: none of the validation's shortcuts ---------------------------

def _fuzz_seed_one():
    """The actions of `fuzz --seed 1 --count 25`, in its order."""
    rng = random.Random(1)
    for _ in range(25):
        skel = random_skeleton(rng)
        for f in FIELDS:
            yield parse_instance(skeleton_to_instance(skel, f)).action


def _two_objects_k4(field: Field, identity_a) -> PartialAction:
    """f: a -> b and its inverse on k^4, 1_a = b0 + b1 and 1_b = b2 + b3,
    alpha_f sending b0, b1 to b2, b3; `identity_a` is the map of id:a."""
    g_oid = build_groupoid(["a", "b"], [("f", "a", "b"), ("finv", "b", "a")],
                           [("f", "finv", "id:b"), ("finv", "f", "id:a")], [("f", "finv")])
    one_a, one_b = [1, 1, 0, 0], [0, 0, 1, 1]
    idems = {"id:a": one_a, "id:b": one_b, "f": one_b, "finv": one_a}
    maps = {"id:a": identity_a,
            "f": from_cols(field, [[0, 0, 1, 0], [0, 0, 0, 1], [0] * 4, [0] * 4]),
            "finv": from_cols(field, [[0] * 4, [0] * 4, [1, 0, 0, 0], [0, 1, 0, 0]])}
    return PartialAction(g_oid, Algebra.diagonal(field, 4), idems, maps)


def _twisted_x22() -> PartialAction:
    """conj_swap_m2_q (M_2 x M_2, basis X11, X12, X21, X22, Y11, ..., Y22)
    with alpha_s tau for alpha_s, tau the linear bijection sending X22 to
    X22 + Y11 and fixing the other basis vectors: tau(X12 X21) = X11 =
    tau(X12) tau(X21), but tau(X21 X12) = X22 + Y11 != X22 = tau(X21) tau(X12)."""
    pa = load_action("conj_swap_m2_q.json")
    tau = [[int(i == j or (i, j) == (4, 3)) for j in range(8)] for i in range(8)]
    return PartialAction(pa.groupoid, pa.algebra, pa.idems,
                         {**pa.maps, "s": matmul(pa.matrix("s"), Matrix(Q, tau))})


def _planted_mutants():
    """(action, violation codes) for actions whose failures the validation's
    shortcuts must not hide."""
    for field in (Q, Field.prime(2), Field.prime(3)):
        swap_a = from_cols(field, [[0, 1, 0, 0], [1, 0, 0, 0], [0] * 4, [0] * 4])
        # the identity map of a swaps b0 and b1: II and III fail on identity pairs
        yield _two_objects_k4(field, swap_a), {"IdentityAxiom", "AxiomIII"}
        # a bijection that is not multiplicative, on commutative k^3
        yield _global_z3(field, _SHIFT, _SHEAR), {"NotRingIso"}
        yield _global_z3(field, _SHEAR, _UNSHIFT), {"NotRingIso"}
    # multiplicative on (X12, X21), not on (X21, X12)
    yield _twisted_x22(), {"NotRingIso"}


def test_validation_matches_the_full_scan_reference():
    seen = set()
    count = 0
    for pa in itertools.chain(_reference_corpus(), _fuzz_seed_one()):
        report = validate_partial_action(pa)
        assert report.violations == full_scan_validate_partial_action(pa).violations
        seen |= violation_codes(report)
        count += 1
    assert count > 400
    assert {"NotRingIso", "AxiomII", "AxiomIII"} <= seen


def test_planted_mutants_match_the_full_scan_reference():
    for pa, codes in _planted_mutants():
        report = validate_partial_action(pa)
        assert violation_codes(report) == codes
        assert report.violations == full_scan_validate_partial_action(pa).violations
    ok = _two_objects_k4(Q, from_cols(Q, [[1, 0, 0, 0], [0, 1, 0, 0], [0] * 4, [0] * 4]))
    assert validate_partial_action(ok).ok and full_scan_validate_partial_action(ok).ok
    broken = validate_partial_action(_two_objects_k4(Q, from_cols(
        Q, [[0, 1, 0, 0], [1, 0, 0, 0], [0] * 4, [0] * 4])))
    assert {v.message for v in broken.violations} >= {
        "alpha_id:a alpha_id:a != alpha_id:a on the overlap",
        "alpha_f alpha_id:a != alpha_f on the overlap",
        "alpha_id:a alpha_finv != alpha_finv on the overlap"}


def test_the_twisted_map_is_multiplicative_on_one_order_of_a_pair():
    pa = _twisted_x22()
    alg = pa.algebra
    x12, x21 = alg.basis_vector(1), alg.basis_vector(2)

    def holds(u, v):
        return pa.alpha("s", alg.multiply(u, v)) == alg.multiply(
            pa.alpha("s", u), pa.alpha("s", v))

    assert not alg.commutative
    assert holds(x12, x21) and not holds(x21, x12)
    assert validate_partial_action(pa).violations == (
        Violation("NotRingIso", "map of s is not multiplicative on its ideal"),)


def test_a_noncommutative_algebra_tests_every_ordered_pair(monkeypatch):
    # on M_2 x M_2 the multiplicativity of alpha_s is tested on all 64
    # ordered pairs of basis rows; only commutative A skips the reversed ones
    pa = load_action("conj_swap_m2_q.json")
    alg = pa.algebra
    basis = {alg.basis_vector(i): i for i in range(alg.dim)}
    pairs = set()
    multiply = Algebra.multiply

    def recorded(self, x, y):
        if x in basis and y in basis:
            pairs.add((basis[x], basis[y]))
        return multiply(self, x, y)

    monkeypatch.setattr(Algebra, "multiply", recorded)
    assert validate_partial_action(pa).ok
    assert not alg.commutative
    assert pairs == {(i, j) for i in range(alg.dim) for j in range(alg.dim)}


# -- the pull-back of each pair's idempotent -------------------------------------------------

def _count_inverses(monkeypatch) -> list:
    """Record the number of vectors of each `free_basis` the validation
    builds: the change of basis of its fallback, one per rejected h."""
    calls = []
    build = partial_action.free_basis

    def counted(field, vectors, ncols):
        calls.append(len(vectors))
        return build(field, vectors, ncols)

    monkeypatch.setattr(partial_action, "free_basis", counted)
    return calls


def _ring48_skeleton() -> dict:
    """Pair groupoid on 2 objects x Z/3, global on 4 letters per object:
    12 arrows, dim A = 8, skew ring dim 48."""
    return {"components": [{"k": 2, "m": 3, "d": 4, "sigma": [1, 2, 0, 3],
                            "tau": [[0, 1, 2, 3], [2, 0, 3, 1]],
                            "T": [[0, 1, 2, 3], [0, 1, 2, 3]]}]}


def test_validation_inverts_nothing_on_valid_actions(monkeypatch):
    shipped = [load_action(p.name) for p in sorted(INSTANCE_DIR.glob("*.json"))]
    rng = random.Random(18)
    skeletons = [random_skeleton(rng) for _ in range(20)] + [_ring48_skeleton()]
    fuzzed = [parse_instance(skeleton_to_instance(skel, f)).action
              for skel in skeletons for f in ("Q", "GF(2)", "GF(3)")]
    ring48 = fuzzed[-1]
    assert sum(ring48.ideal(g).dim for g in ring48.groupoid.morphisms) == 48
    calls = _count_inverses(monkeypatch)
    for pa in shipped + fuzzed:
        assert validate_partial_action(pa).ok
    assert calls == []


def _unwound_z3(field: Field) -> PartialAction:
    """Z/3 = {1, g, g^-1} on k^3 with 1_g = b0 + b1 and 1_{g^-1} = b1 + b2:
    alpha_g is the shift b1 -> b0, b2 -> b1 and alpha_{g^-1} the ring
    isomorphism b0 -> b2, b1 -> b1, which does not invert it."""
    g_oid = build_groupoid(["e"], [("g", "e", "e"), ("ginv", "e", "e")],
                           [("g", "g", "ginv"), ("ginv", "ginv", "g"),
                            ("g", "ginv", "id:e"), ("ginv", "g", "id:e")],
                           [("g", "ginv")])
    alg = Algebra.diagonal(field, 3)
    idems = {"id:e": [1, 1, 1], "g": [1, 1, 0], "ginv": [0, 1, 1]}
    maps = {"g": [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            "ginv": [[0, 0, 0], [0, 1, 0], [1, 0, 0]]}
    return PartialAction(g_oid, alg, idems, maps)


def test_a_rejected_pull_back_falls_back_to_the_restricted_inverse(monkeypatch):
    for field in (Q, Field.prime(2), Field.prime(3)):
        pa = _unwound_z3(field)
        assert pa.alpha("g", [0, 1, 0]) == pa.algebra.basis_vector(0)
        assert pa.alpha("ginv", [1, 0, 0]) == pa.algebra.basis_vector(2)
        calls = _count_inverses(monkeypatch)
        report = validate_partial_action(pa)
        assert calls, field
        assert not violation_codes(report) & {"NotIdempotentDomain", "NotRingIso", "IdentityAxiom"}
        assert violation_codes(report) & {"AxiomII", "AxiomIII"}
        assert report.violations == subspace_validate_partial_action(pa).violations
        monkeypatch.undo()


def test_no_ideal_member_is_read_by_elimination(monkeypatch):
    # every ideal read goes through `Algebra.ideal_coords`, which tests
    # y 1_g == y: the oracle, the ring of skew-table, the isotropy
    # conjugation and the validation fallback eliminate none
    paths = sorted(INSTANCE_DIR.glob("*.json"))
    shipped = [load_action(p.name) for p in paths]
    fallbacks = [_unwound_z3(field) for field in (Q, Field.prime(2), Field.prime(3))]
    # an ideal basis eliminates a vector only through `Echelon.reduce`
    ideals = [pa.algebra._ideals for pa in shipped + fallbacks]
    calls = []
    reduce = Echelon.reduce

    def recorded(self, v):
        if any(self is basis for kept in ideals for basis in kept.values()):
            calls.append(v)
        return reduce(self, v)

    monkeypatch.setattr(Echelon, "reduce", recorded)
    for pa in shipped:
        oracle_separability(pa)
        # what `skew-table` builds, on the watched action: a command would
        # parse its own action, whose ideal bases are not watched
        build_skew_ring(pa).multiplication_rows()
        if pa.is_global():
            for arrow in pa.groupoid.morphisms:
                assert all(isotropy_transport_psi(pa, arrow).checks.values())
    inverses = _count_inverses(monkeypatch)
    for pa in fallbacks:
        taken = len(inverses)
        assert violation_codes(validate_partial_action(pa)) & {"AxiomII", "AxiomIII"}
        assert len(inverses) > taken
    assert calls == []


# -- implied ring isomorphisms -----------------------------------------------------------

def _count_image_echelons(monkeypatch) -> list:
    """Record the vectors of each echelon `validate_partial_action` builds:
    the images of a domain basis under one arrow."""
    calls = []
    build = partial_action.echelon

    def counted(field, vectors, ncols):
        vectors = list(vectors)
        calls.append(vectors)
        return build(field, vectors, ncols)

    monkeypatch.setattr(partial_action, "echelon", counted)
    return calls


def _z3_action(field: Field, dim: int, idems: dict, maps: dict) -> PartialAction:
    """Z/3 = {1, g, g^-1} on k^dim, the morphisms in the order id:e, g, ginv."""
    g_oid = build_groupoid(["e"], [("g", "e", "e"), ("ginv", "e", "e")],
                           [("g", "g", "ginv"), ("ginv", "ginv", "g"),
                            ("g", "ginv", "id:e"), ("ginv", "g", "id:e")],
                           [("g", "ginv")])
    return PartialAction(g_oid, Algebra.diagonal(field, dim), idems, maps)


def _z3_partial_shift(field: Field) -> PartialAction:
    """The cyclic shift b0 -> b1 -> b2 -> b0 of Z/3 on k^3, restricted to the
    ideal k^2 of b0 + b1: alpha_g sends b0 to b1, alpha_{g^-1} b1 to b0."""
    return _z3_action(field, 2, {"id:e": [1, 1], "g": [0, 1], "ginv": [1, 0]},
                      {"g": [[0, 0], [1, 0]], "ginv": [[0, 1], [0, 0]]})


_SHIFT = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]       # b0 -> b1 -> b2 -> b0
_UNSHIFT = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
_SHEAR = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]       # a bijection, not multiplicative


def _global_z3(field: Field, g, ginv) -> PartialAction:
    one = [1, 1, 1]
    return _z3_action(field, 3, {"id:e": one, "g": one, "ginv": one},
                      {"g": g, "ginv": ginv})


def _fallback_cases(field: Field):
    """(action, image echelons built, violation codes): each reaches the three
    ring-isomorphism checks on an arrow the implied cases do not cover."""
    swap = PartialAction(build_groupoid(["e"], [], [], []), Algebra.diagonal(field, 2),
                         {"id:e": [1, 1]}, {"id:e": [[0, 1], [1, 0]]})
    # an identity map that is an automorphism, not the identity, of A_e;
    # the swap squares to 1, not to itself, so id:e id:e != id:e too
    yield swap, 1, {"IdentityAxiom", "AxiomIII"}
    # the second arrow of the pair is a ring isomorphism, not the inverse
    yield _global_z3(field, _SHIFT, _SHIFT), 2, {"AxiomIII"}
    # the second arrow is not multiplicative
    yield _global_z3(field, _SHIFT, _SHEAR), 2, {"NotRingIso"}
    # the first arrow is not multiplicative, so g^-1 is not in iso_ok
    yield _global_z3(field, _SHEAR, _UNSHIFT), 2, {"NotRingIso"}


@pytest.mark.parametrize("field", [Q, Field.prime(2), Field.prime(3)], ids=str)
def test_arrows_outside_the_implied_cases_run_every_check(monkeypatch, field):
    for pa, builds, codes in _fallback_cases(field):
        calls = _count_image_echelons(monkeypatch)
        report = validate_partial_action(pa)
        assert len(calls) == builds
        assert violation_codes(report) == codes
        assert report.violations == subspace_validate_partial_action(pa).violations
        monkeypatch.undo()


@pytest.mark.parametrize("field", [Q, Field.prime(2), Field.prime(3)], ids=str)
def test_identities_and_second_arrows_build_no_image_echelon(monkeypatch, field):
    trivial = PartialAction(build_groupoid(["e"], [], [], []), Algebra.diagonal(field, 10),
                            {"id:e": [1] * 10}, {})
    shift = _z3_partial_shift(field)
    for pa, images in ((trivial, []), (shift, [[(0, 1)]]),
                       (_global_z3(field, _SHIFT, _UNSHIFT), [[(0, 1, 0), (0, 0, 1),
                                                               (1, 0, 0)]])):
        calls = _count_image_echelons(monkeypatch)
        report = validate_partial_action(pa)
        assert report.ok
        assert report.violations == subspace_validate_partial_action(pa).violations
        # only g's images, none of id:e or of g^-1
        assert calls == images
        monkeypatch.undo()


# -- the pairs (g^-1, g) that case (b) settles ------------------------------------------------

@pytest.mark.parametrize("field", [Q, Field.prime(2), Field.prime(3)], ids=str)
def test_a_self_inverse_arrow_tests_its_own_pair(field):
    # g = g^-1 with alpha_g the 3-cycle: a ring isomorphism, never accepted
    # by case (b), with alpha_g alpha_g != id = alpha_{gg}
    z2 = build_groupoid(["e"], [("g", "e", "e")], [("g", "g", "id:e")], [("g", "g")])
    pa = PartialAction(z2, Algebra.diagonal(field, 3), {"id:e": [1] * 3, "g": [1] * 3},
                       {"g": _SHIFT})
    report = validate_partial_action(pa)
    assert report.violations == (
        Violation("AxiomIII", "alpha_g alpha_g != alpha_id:e on the overlap"),)
    assert report.violations == full_scan_validate_partial_action(pa).violations


@pytest.mark.parametrize("field", [Q, Field.prime(2), Field.prime(3)], ids=str)
def test_ring_isomorphisms_that_are_not_mutually_inverse_test_their_pairs(field):
    # alpha_g = alpha_{g^-1} = the 3-cycle: each passes the ring-isomorphism
    # checks, so case (b) accepts neither, and both pairs (g^-1, g) fail III
    pa = _global_z3(field, _SHIFT, _SHIFT)
    messages = [v.message for v in validate_partial_action(pa).violations]
    assert {"alpha_g alpha_ginv != alpha_id:e on the overlap",
            "alpha_ginv alpha_g != alpha_id:e on the overlap"} <= set(messages)
    assert validate_partial_action(pa).violations == \
        full_scan_validate_partial_action(pa).violations
    assert validate_partial_action(_global_z3(field, _SHIFT, _UNSHIFT)).ok


# -- global actions: the generating set first, the full scan as fallback ------------------

def _global_actions():
    """Valid global actions: the shipped global instances, global fuzz actions
    and the ring-48 skeleton over Q, GF(2) and GF(3), and these and the M_2
    actions in a random basis (dense maps; non-commutative A for M_2)."""
    rng = random.Random(43)
    shipped = [load_action(p.name) for p in sorted(INSTANCE_DIR.glob("*.json"))]
    skeletons = [global_skeleton(rng) for _ in range(8)] + [_ring48_skeleton()]
    fuzzed = [parse_instance(skeleton_to_instance(skel, f)).action
              for skel in skeletons for f in ("Q", "GF(2)", "GF(3)")]
    actions = [pa for pa in shipped + fuzzed if pa.is_global()]
    moved = [changed_basis_action(pa, rng) for pa in [*fuzzed[::4], *m2_corpus()]]
    return actions + moved


def _planted_non_generators(pa: PartialAction):
    """(action, kind) per non-identity arrow h outside `generators()` of a
    global action on a diagonal algebra, with only alpha_h changed on the
    basis vectors b_i, b_j of A_{s(h)} and b_k outside it:
    - "complement": b_k goes where b_i goes, so A(1 - 1_{s(h)}) is not annihilated;
    - "shear": b_i goes to alpha_h(b_i + b_j), a bijection onto A_h that is
      not multiplicative;
    - "swap": b_i and b_j trade images, a ring isomorphism that breaks III
      on the pairs that compose to h or start at h;
    - "zeroed": b_i goes to 0, not a bijection."""
    g_oid = pa.groupoid
    alg = pa.algebra
    gens = set(g_oid.generators())
    for h in g_oid.morphisms:
        if h in gens or g_oid.is_identity(h):
            continue
        inside = [i for i, c in enumerate(pa.idem(g_oid.inv(h))) if c]
        outside = [k for k, c in enumerate(pa.idem(g_oid.inv(h))) if not c]
        cols = [pa.alpha(h, alg.basis_vector(i)) for i in range(alg.dim)]
        planted = []
        if len(inside) >= 2:
            i, j = inside[:2]
            shear = list(cols)
            shear[i] = tuple(a + b for a, b in zip(cols[i], cols[j]))
            swap = list(cols)
            swap[i], swap[j] = cols[j], cols[i]
            planted += [(shear, "shear"), (swap, "swap")]
        if inside and outside:
            complement = list(cols)
            complement[outside[0]] = cols[inside[0]]
            planted.append((complement, "complement"))
        if inside:
            zeroed = list(cols)
            zeroed[inside[0]] = alg.zero()
            planted.append((zeroed, "zeroed"))
        for changed, kind in planted:
            yield PartialAction(g_oid, alg, pa.idems,
                                {**pa.maps, h: from_cols(alg.field, changed)}), kind


_PLANTED_FAULTS = {
    "complement": "does not annihilate the complement of its domain ideal",
    "shear": "is not multiplicative on its ideal",
    "zeroed": "is not a bijection onto its ideal",
}


def _planted_global_corpus():
    """The planted faults of `_planted_non_generators` on the global fuzz
    actions, the ring-48 skeleton and Z/3 on k^3, with the kind of each."""
    rng = random.Random(44)
    skeletons = [global_skeleton(rng) for _ in range(8)] + [_ring48_skeleton()]
    for field in (Q, Field.prime(2), Field.prime(3)):
        bases = [parse_instance(skeleton_to_instance(skel, str(field))).action
                 for skel in skeletons]
        for pa in [*bases, _global_z3(field, _SHIFT, _UNSHIFT)]:
            assert pa.is_global() and validate_partial_action(pa).ok
            yield from _planted_non_generators(pa)


def test_global_actions_match_both_references():
    actions = _global_actions() + list(_fuzz_seed_one())
    for pa in actions:
        report = validate_partial_action(pa)
        assert report.violations == full_scan_validate_partial_action(pa).violations
        assert report.violations == subspace_validate_partial_action(pa).violations
    assert sum(pa.is_global() for pa in actions) > 50
    assert any(not pa.algebra.commutative and pa.is_global() and pa.groupoid.generators()
               for pa in actions)


def test_a_fault_on_a_non_generator_falls_back_to_the_full_scan(monkeypatch):
    # each planted arrow is outside the generating set, where the global
    # path runs no ring-isomorphism check; its fault still shows, through
    # the complement check or through III on a pair (s, h), and the full
    # scan then lists the violations; p = 1_{h^-1} on the global path, so
    # nothing is pulled back there, and the full scan pulls back nothing on
    # a global action whose arrows are all ring isomorphisms
    calls = _count_inverses(monkeypatch)
    kinds = set()
    for pa, kind in _planted_global_corpus():
        report = validate_partial_action(pa)
        assert report.violations == full_scan_validate_partial_action(pa).violations
        assert report.violations == subspace_validate_partial_action(pa).violations
        if kind == "swap":
            assert violation_codes(report) == {"AxiomIII"}
        else:
            faults = [v.message for v in report.violations if v.code == "NotRingIso"]
            assert len(faults) == 1 and faults[0].endswith(_PLANTED_FAULTS[kind])
        kinds.add(kind)
    assert kinds == {"complement", "shear", "swap", "zeroed"}
    assert calls == []


def test_a_valid_global_action_builds_image_echelons_for_the_generators_only(monkeypatch):
    built = skipped = 0
    for pa in _global_actions():
        g_oid = pa.groupoid
        gens = g_oid.generators()
        calls = _count_image_echelons(monkeypatch)
        assert validate_partial_action(pa).ok
        monkeypatch.undo()
        images = [[pa.alpha(s, u) for u in pa.ideal(g_oid.inv(s)).rows] for s in gens]
        assert all(vectors in images for vectors in calls)
        assert len(calls) <= len(gens)
        built += len(calls)
        skipped += len(g_oid.morphisms) - len(g_oid.identity) - len(gens)
    assert built and skipped
