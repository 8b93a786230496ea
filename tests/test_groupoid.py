import random

import pytest

from skewalg.fuzz import random_skeleton, skeleton_to_instance
from skewalg.groupoid import (Groupoid, GroupoidError, UnknownMorphism,
                              UnknownObject, Violation, build_groupoid,
                              validate_groupoid)
from skewalg.instances import parse_instance

from conftest import INSTANCE_DIR, full_scan_validate_groupoid, load_action, violation_codes


def one_object():
    return build_groupoid(["e"], [], [], [])


def bridge_groupoid():
    return build_groupoid(
        ["e1", "e2"],
        [("g", "e1", "e2"), ("ginv", "e2", "e1")],
        [("g", "ginv", "id:e2"), ("ginv", "g", "id:e1")],
        [("g", "ginv")],
    )


def flip_groupoid():
    return build_groupoid(
        ["e1", "e2"],
        [("g", "e1", "e1"), ("h", "e2", "e2"), ("x", "e1", "e2"),
         ("y", "e1", "e2"), ("xinv", "e2", "e1"), ("yinv", "e2", "e1")],
        [("g", "g", "id:e1"), ("h", "h", "id:e2"),
         ("x", "g", "y"), ("y", "g", "x"), ("h", "x", "y"), ("h", "y", "x"),
         ("xinv", "h", "yinv"), ("yinv", "h", "xinv"),
         ("g", "xinv", "yinv"), ("g", "yinv", "xinv"),
         ("x", "xinv", "id:e2"), ("x", "yinv", "h"),
         ("y", "xinv", "h"), ("y", "yinv", "id:e2"),
         ("xinv", "x", "id:e1"), ("xinv", "y", "g"),
         ("yinv", "x", "g"), ("yinv", "y", "id:e1")],
        [("g", "g"), ("h", "h"), ("x", "xinv"), ("y", "yinv")],
    )


# -- validation ------------------------------------------------------------------

def test_one_object_identity_groupoid_is_valid():
    assert validate_groupoid(one_object()).ok


def test_bridge_groupoid_is_valid():
    assert validate_groupoid(bridge_groupoid()).ok


def test_flip_groupoid_is_valid():
    assert validate_groupoid(flip_groupoid()).ok


def test_dropped_inverse_is_flagged():
    g = bridge_groupoid()
    broken = Groupoid(g.objects, g.morphisms, g.src, g.tgt, g.identity,
                      g.compose,
                      {m: v for m, v in g.inverse.items() if m != "ginv"})
    report = validate_groupoid(broken)
    assert not report.ok
    assert "MissingInverse" in violation_codes(report)


def test_wrong_inverse_pairing_is_flagged():
    g = bridge_groupoid()
    bad_inv = dict(g.inverse)
    bad_inv["g"] = "g"  # endpoints cannot match
    report = validate_groupoid(Groupoid(g.objects, g.morphisms, g.src, g.tgt,
                                        g.identity, g.compose, bad_inv))
    assert "MissingInverse" in violation_codes(report)


def test_missing_composition_entry_is_flagged():
    g = bridge_groupoid()
    compose = {k: v for k, v in g.compose.items() if k != ("g", "ginv")}
    report = validate_groupoid(Groupoid(g.objects, g.morphisms, g.src, g.tgt,
                                        g.identity, compose, g.inverse))
    assert "BadComposition" in violation_codes(report)


def test_non_associative_table_is_flagged():
    g = flip_groupoid()
    compose = dict(g.compose)
    compose[("x", "g")] = "x"  # force (x*g)*g != x*(g*g)
    report = validate_groupoid(Groupoid(g.objects, g.morphisms, g.src, g.tgt,
                                        g.identity, compose, g.inverse))
    assert not report.ok
    assert violation_codes(report) & {"NonAssociative", "MissingInverse", "BadIdentity"}


def _replaced(g: Groupoid, **tables) -> Groupoid:
    """g with some of its constructor tables replaced."""
    args = dict(objects=g.objects, morphisms=g.morphisms, src=g.src, tgt=g.tgt,
                identity=g.identity, compose=g.compose, inverse=g.inverse)
    args.update(tables)
    return Groupoid(**args)


@pytest.mark.parametrize("broken,code,message", [
    (lambda: _replaced(one_object(), identity={"e": "id:f"}),
     "BadIdentity", "object 'e' has no identity morphism"),
    (lambda: _replaced(bridge_groupoid(), identity={"e1": "id:e2", "e2": "id:e2"}),
     "BadIdentity", "identity of 'e1' has wrong endpoints"),
    (lambda: _replaced(bridge_groupoid(), src={m: s for m, s in bridge_groupoid().src.items()
                                               if m != "g"}),
     "BadComposition", "morphism 'g' lacks endpoints"),
    (lambda: _replaced(bridge_groupoid(), tgt={**bridge_groupoid().tgt, "g": "e3"}),
     "BadComposition", "morphism 'g' touches unknown object"),
    (lambda: _replaced(one_object(), compose={**one_object().compose, ("id:e", "q"): "id:e"}),
     "BadComposition", "table entry ('id:e','q')->'id:e' uses unknown morphism"),
    (lambda: _replaced(bridge_groupoid(), compose={**bridge_groupoid().compose, ("g", "g"): "g"}),
     "BadComposition", "product 'g'*'g' defined but not composable"),
], ids=["no-identity", "identity-endpoints", "no-endpoints", "unknown-object",
        "unknown-in-table", "not-composable"])
def test_each_early_groupoid_law_reports_its_violation(broken, code, message):
    report = validate_groupoid(broken())
    assert report.violations == (Violation(code, message),)
    assert report.violations == full_scan_validate_groupoid(broken()).violations


def test_the_constructor_rejects_duplicate_names():
    g = one_object()
    with pytest.raises(GroupoidError, match="^duplicate object names$"):
        _replaced(g, objects=("e", "e"))
    with pytest.raises(GroupoidError, match="^duplicate morphism names$"):
        _replaced(g, morphisms=("id:e", "id:e"))


def test_inv_of_a_morphism_without_inverse_raises():
    g = _replaced(bridge_groupoid(), inverse={})
    with pytest.raises(UnknownMorphism, match="no inverse recorded for 'g'"):
        g.inv("g")


# -- hom sets and isotropy ------------------------------------------------------------

def test_hom_set_bridge():
    g = bridge_groupoid()
    assert g.hom_set("e1", "e2") == ("g",)
    assert g.hom_set("e1", "e1") == ("id:e1",)


def test_hom_set_one_object():
    g = one_object()
    assert g.hom_set("e", "e") == ("id:e",)


def test_hom_set_flip_has_two_bridge_arrows():
    assert flip_groupoid().hom_set("e1", "e2") == ("x", "y")


def test_hom_set_unknown_object():
    with pytest.raises(UnknownObject):
        bridge_groupoid().hom_set("e1", "nope")


# -- components -------------------------------------------------------------------------

def test_bridge_is_connected():
    p = bridge_groupoid().connected_components()
    assert p.classes == (("e1", "e2"),)
    assert p.transversal == ("e1",)


def test_two_isolated_objects_are_two_classes():
    g = build_groupoid(["a", "b"], [], [], [])
    p = g.connected_components()
    assert p.classes == (("a",), ("b",))
    assert p.transversal == ("a", "b")


def test_partial_reachability_classes():
    # a <-> b, c isolated: reachability closure puts {a, b} together, {c} alone
    g = build_groupoid(["a", "b", "c"],
                       [("f", "a", "b"), ("finv", "b", "a")],
                       [("f", "finv", "id:b"), ("finv", "f", "id:a")],
                       [("f", "finv")])
    assert g.connected_components().classes == (("a", "b"), ("c",))


# -- structural invariants --------------------------------------------------------------------

def test_double_inverse_and_endpoints():
    g = flip_groupoid()
    for m in g.morphisms:
        assert g.inv(g.inv(m)) == m
        assert g.src[g.inv(m)] == g.tgt[m]
        assert g.tgt[g.inv(m)] == g.src[m]


def test_hom_nonempty_iff_same_component():
    g = build_groupoid(["a", "b", "c"],
                       [("f", "a", "b"), ("finv", "b", "a")],
                       [("f", "finv", "id:b"), ("finv", "f", "id:a")],
                       [("f", "finv")])
    classes = {o: i for i, cls in enumerate(g.connected_components().classes)
               for o in cls}
    for e in g.objects:
        for f in g.objects:
            assert bool(g.hom_set(e, f)) == (classes[e] == classes[f])


# -- the composable index against the full-scan reference ------------------------------------

def _planted(g: Groupoid, rng: random.Random):
    """Corruptions of a valid groupoid: two composition entries swapped, one
    entry dropped, one inverse pairing broken."""
    keys = list(g.compose)
    for _ in range(12):
        a, b = rng.sample(keys, 2) if len(keys) > 1 else (keys[0], keys[0])
        compose = dict(g.compose)
        compose[a], compose[b] = compose[b], compose[a]
        yield Groupoid(g.objects, g.morphisms, g.src, g.tgt, g.identity, compose, g.inverse)
    drop = rng.choice(keys)
    yield Groupoid(g.objects, g.morphisms, g.src, g.tgt, g.identity,
                   {k: v for k, v in g.compose.items() if k != drop}, g.inverse)
    for m in g.morphisms:
        if g.is_identity(m):
            continue
        others = [n for n in g.morphisms if n != g.inv(m)]
        inverse = {**g.inverse, m: rng.choice(others)}
        yield Groupoid(g.objects, g.morphisms, g.src, g.tgt, g.identity,
                       g.compose, inverse)


def _identity_broken(g: Groupoid, rng: random.Random):
    """Groupoids whose identity laws fail with every endpoint right: id m or
    m id set to another morphism x with the endpoints of m, so the triples
    that hold an identity are checked, and can fail, too."""
    for m in g.morphisms:
        others = [x for x in g.hom_set(g.src[m], g.tgt[m]) if x != m]
        if not others:
            continue
        key = rng.choice([(g.identity[g.tgt[m]], m), (m, g.identity[g.src[m]])])
        yield Groupoid(g.objects, g.morphisms, g.src, g.tgt, g.identity,
                       {**g.compose, key: rng.choice(others)}, g.inverse)


def test_indexed_validation_matches_the_full_scan_reference():
    shipped = [load_action(p.name).groupoid for p in sorted(INSTANCE_DIR.glob("*.json"))]
    rng = random.Random(18)
    fuzzed = [parse_instance(skeleton_to_instance(random_skeleton(rng), "Q")).action.groupoid
              for _ in range(20)]
    identity_rng = random.Random(19)
    seen = set()
    identity_and_triples = 0
    count = 0
    for base in [one_object(), bridge_groupoid(), flip_groupoid(), *shipped, *fuzzed]:
        for g in (base, *_planted(base, rng), *_identity_broken(base, identity_rng)):
            report = validate_groupoid(g)
            assert report.violations == full_scan_validate_groupoid(g).violations
            assert list(g.composable_pairs()) == [
                (a, b) for a in g.morphisms for b in g.morphisms if g.src[a] == g.tgt[b]]
            seen |= violation_codes(report)
            identity_and_triples += {"BadIdentity", "NonAssociative"} <= violation_codes(report)
            count += 1
    assert count > 300
    assert {"BadComposition", "BadIdentity", "MissingInverse", "NonAssociative"} <= seen
    assert identity_and_triples > 20


# -- associativity on a generating set (Light's test) ------------------------------------------

def _corpus() -> list:
    shipped = [load_action(p.name).groupoid for p in sorted(INSTANCE_DIR.glob("*.json"))]
    rng = random.Random(39)
    fuzzed = [parse_instance(skeleton_to_instance(random_skeleton(rng), "Q")).action.groupoid
              for _ in range(20)]
    return [one_object(), bridge_groupoid(), flip_groupoid(), *shipped, *fuzzed]


def _closure(g: Groupoid, gens) -> set:
    """The identities and `gens`, closed under every composable product."""
    reached = set(g.identity.values()) | set(gens)
    while True:
        new = {g.compose[a, b] for a in reached for b in reached if g.src[a] == g.tgt[b]}
        if new <= reached:
            return reached
        reached |= new


def _failing_triples(g: Groupoid) -> list:
    return [(a, b, c) for a, b in g.composable_pairs() for c in g.arrows_into(g.src[b])
            if g.compose[g.compose[a, b], c] != g.compose[a, g.compose[b, c]]]


def _reassigned(g: Groupoid, rng: random.Random):
    """g with one product a*b of non-identities set to another arrow of its
    hom set: every endpoint and identity law still holds, associativity may
    not."""
    ids = set(g.identity.values())
    keys = [k for k in g.compose if not set(k) & ids]
    for a, b in rng.sample(keys, min(len(keys), 8)):
        others = [x for x in g.hom_set(g.src[b], g.tgt[a]) if x != g.compose[a, b]]
        if others:
            yield Groupoid(g.objects, g.morphisms, g.src, g.tgt, g.identity,
                           {**g.compose, (a, b): rng.choice(others)}, g.inverse)


def test_the_generators_reach_every_arrow_and_each_was_needed():
    for g in _corpus():
        gens = g.generators()
        ids = set(g.identity.values())
        assert list(gens) == [m for m in g.morphisms if m in gens]
        assert not set(gens) & ids
        assert _closure(g, gens) == set(g.morphisms)
        # greedy: no generator is a word in the ones chosen before it
        assert all(s not in _closure(g, gens[:i]) for i, s in enumerate(gens))
    assert flip_groupoid().generators() == ("g", "h", "x", "xinv")


def test_a_failure_on_the_generators_scans_every_triple():
    # every reassigned table lists what the full scan lists; some of its
    # failing triples have their middle arrow outside the generators, and
    # only the scan after a failed generator triple finds those
    rng = random.Random(40)
    light = outside = 0
    for base in _corpus():
        for g in _reassigned(base, rng):
            report = validate_groupoid(g)
            assert report.violations == full_scan_validate_groupoid(g).violations
            ids = set(g.identity.values())
            failing = [t for t in _failing_triples(g) if not set(t) & ids]
            assert [v.message for v in report.violations if v.code == "NonAssociative"] == [
                "(%r*%r)*%r != %r*(%r*%r)" % (a, b, c, a, b, c) for a, b, c in failing]
            gens = set(g.generators())
            if failing:
                # Light's test: a non-associative table fails on a generator
                assert any(b in gens for _, b, _ in failing)
            light += len(gens) < len(g.morphisms) - len(ids)
            outside += any(b not in gens for _, b, _ in failing)
    assert light > 50 and outside > 50


def test_a_table_is_tested_on_its_generators_only_when_they_are_fewer(monkeypatch):
    from skewalg import groupoid

    middles = []
    associates_at = groupoid._associates_at

    def recorded(g, gens, identities):
        middles.append(tuple(gens))
        return associates_at(g, gens, identities)

    monkeypatch.setattr(groupoid, "_associates_at", recorded)
    z2 = build_groupoid(["e"], [("s", "e", "e")], [("s", "s", "id:e")], [("s", "s")])
    z3 = build_groupoid(["e"], [("s", "e", "e"), ("t", "e", "e")],
                        [("s", "s", "t"), ("s", "t", "id:e"), ("t", "s", "id:e"),
                         ("t", "t", "s")], [("s", "t")])
    # S is every non-identity arrow (the bridge, Z/2) or there is none;
    # on Z/3, S = {s} is one of two
    for g in (one_object(), bridge_groupoid(), z2):
        assert validate_groupoid(g).ok
    assert middles == []
    assert validate_groupoid(z3).ok
    assert middles == [("s",)]
    middles.clear()
    assert validate_groupoid(flip_groupoid()).ok
    assert middles == [("g", "h", "x", "xinv")]


def test_a_table_whose_identity_laws_fail_scans_every_triple():
    # Z/3 = {id, s, t} at e with four entries changed, beside Z/2 = {id, u}
    # at f: the triples (a, s, c) and (a, u, c) all associate, id included
    # as a or c, but the ones through id:e do not, so the generators decide
    # nothing without the identity laws
    z3 = build_groupoid(["e", "f"], [("s", "e", "e"), ("t", "e", "e"), ("u", "f", "f")],
                        [("s", "s", "t"), ("s", "t", "id:e"), ("t", "s", "id:e"),
                         ("t", "t", "s"), ("u", "u", "id:f")], [("s", "t"), ("u", "u")])
    g = _replaced(z3, compose={**z3.compose, ("id:e", "id:e"): "s", ("s", "t"): "t",
                               ("t", "s"): "t", ("t", "t"): "t"})
    assert g.generators() == ("s", "u")
    assert all(g.compose[g.compose[a, b], c] == g.compose[a, g.compose[b, c]]
               for a, b in g.composable_pairs() if b in ("s", "u")
               for c in g.arrows_into(g.src[b]))
    report = validate_groupoid(g)
    assert report.violations == full_scan_validate_groupoid(g).violations
    assert [v.message for v in report.violations if v.code == "NonAssociative"] == [
        "('id:e'*'id:e')*'s' != 'id:e'*('id:e'*'s')", "('s'*'id:e')*'id:e' != 's'*('id:e'*'id:e')"]
