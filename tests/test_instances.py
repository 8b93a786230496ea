import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewalg.algebra import Algebra
from skewalg.cli import main
from skewalg.fuzz import random_skeleton, skeleton_to_instance
from skewalg.groupoid import build_groupoid
from skewalg.instances import (InstanceFormatError, _digest, load_instance, parse_field,
                               parse_instance)
from skewalg.linalg import Field
from skewalg.partial_action import PartialAction

from conftest import (INSTANCE_DIR, canonical_dict, instance_data, instance_digest,
                      instance_path, renamed_instance)


def test_parse_field_descriptors():
    assert parse_field("Q") == Field.rationals()
    assert parse_field("GF(5)") == Field.prime(5)
    assert parse_field({"prime": 3}) == Field.prime(3)
    with pytest.raises(InstanceFormatError):
        parse_field("R")


def test_all_shipped_instances_parse_and_validate():
    for name in ("partial_bridge_q.json", "z2_flip_q.json", "z2_flip_gf2.json",
                 "z2_flip_gf3.json", "pair_swap_global_q.json"):
        inst = load_instance(instance_path(name))
        assert inst.action.validate().ok
        assert inst.action.has_object_decomposition()


def test_digest_is_stable_across_loads():
    a = load_instance(instance_path("partial_bridge_q.json"))
    b = load_instance(instance_path("partial_bridge_q.json"))
    assert a.digest == b.digest


def test_digest_ignores_whitespace_but_not_content(tmp_path):
    data = instance_data("partial_bridge_q.json")
    packed = tmp_path / "packed.json"
    packed.write_text(json.dumps(data, separators=(",", ":")))
    assert load_instance(packed).digest == \
        load_instance(instance_path("partial_bridge_q.json")).digest
    data["field"] = "GF(5)"
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(data))
    assert load_instance(changed).digest != load_instance(packed).digest


def _spelled_as_strings(where: str) -> dict:
    """z2_flip_q.json, its algebra k^2 written out, with one array written as
    the string of its entries."""
    data = instance_data("z2_flip_q.json")
    structure = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    data["algebra"] = {"structure": structure, "unit": [1, 1]}
    if where == "dom":
        data["action"]["id:e1"]["dom"] = "10"
    elif where == "map":
        data["action"]["g"]["map"] = ["10", "00"]
    elif where == "map rows":
        data["action"]["g"]["map"] = "10"
    elif where == "unit":
        data["algebra"]["unit"] = "11"
    elif where == "structure rows":
        data["algebra"]["structure"] = [["10", "00"], ["00", "01"]]
    elif where == "structure plane":
        data["algebra"]["structure"] = [structure[0], "00"]
    elif where == "structure":
        data["algebra"]["structure"] = "12"
    return data


@pytest.mark.parametrize("where", ["dom", "map", "map rows", "unit", "structure rows",
                                   "structure plane", "structure"])
def test_strings_where_arrays_are_required_are_rejected(where):
    # a string of digits used to be read one character at a time, so "dom": "10"
    # and "map": ["10", "00"] parsed as the real instance, with its digest
    assert parse_instance(_spelled_as_strings("none")).action.validate().ok
    with pytest.raises(InstanceFormatError, match="JSON array"):
        parse_instance(_spelled_as_strings(where))


def _one_object(objects=("e",)) -> dict:
    """The trivial action of one object on the 1-dim algebra."""
    return {"field": "Q",
            "groupoid": {"objects": list(objects), "morphisms": [], "compose": [],
                         "inverse": []},
            "algebra": {"diagonal": 1},
            "action": {"id:%s" % e: {"dom": [1]} for e in objects}}


def _z3() -> dict:
    """Z/3 = {id:e, g, h = g^2} acting trivially on the 1-dim algebra."""
    data = _one_object()
    data["groupoid"].update(
        morphisms=[{"name": n, "src": "e", "tgt": "e"} for n in "gh"],
        compose=[["g", "g", "h"], ["h", "h", "g"], ["g", "h", "id:e"], ["h", "g", "id:e"]],
        inverse=[["g", "h"]])
    data["action"].update({n: {"dom": [1], "map": [[1]]} for n in "gh"})
    return data


def test_objects_must_be_an_array_of_strings():
    # "ab" was read as the objects a and b, and [1] as the object "1" with a
    # digest of its own
    assert parse_instance(_one_object(("a", "b"))).action.groupoid.objects == ("a", "b")
    data = _one_object(("a", "b"))
    data["groupoid"]["objects"] = "ab"
    with pytest.raises(InstanceFormatError, match="JSON array"):
        parse_instance(data)
    data = _one_object(("1",))
    data["groupoid"]["objects"] = [1]
    with pytest.raises(InstanceFormatError, match="JSON string"):
        parse_instance(data)


def test_morphisms_must_be_an_array_of_string_names():
    # an empty JSON object was read as no morphisms
    data = _one_object()
    data["groupoid"]["morphisms"] = {}
    with pytest.raises(InstanceFormatError, match="JSON array"):
        parse_instance(data)
    data = _one_object(("1",))
    data["groupoid"]["morphisms"] = [{"name": "g", "src": "1", "tgt": 1}]
    with pytest.raises(InstanceFormatError, match="JSON string"):
        parse_instance(data)


def test_compose_triples_must_be_arrays_of_three_names():
    assert parse_instance(_z3()).action.validate().ok
    # "ggh" was read as the triple (g, g, h)
    data = _z3()
    data["groupoid"]["compose"][0] = "ggh"
    with pytest.raises(InstanceFormatError, match="JSON array"):
        parse_instance(data)
    data["groupoid"]["compose"][0] = ["g", "g"]
    with pytest.raises(InstanceFormatError, match="must hold 3 JSON strings"):
        parse_instance(data)


def test_inverse_pairs_must_be_arrays_of_two_names():
    # "gh" was read as the pair (g, h)
    data = _z3()
    data["groupoid"]["inverse"] = ["gh"]
    with pytest.raises(InstanceFormatError, match="JSON array"):
        parse_instance(data)
    data["groupoid"]["inverse"] = [["g", "h", "g"]]
    with pytest.raises(InstanceFormatError, match="must hold 2 JSON strings"):
        parse_instance(data)


def test_missing_action_entry_is_rejected():
    data = instance_data("partial_bridge_q.json")
    del data["action"]["g"]
    with pytest.raises(InstanceFormatError):
        parse_instance(data)


def test_missing_map_on_non_identity_is_rejected():
    data = instance_data("partial_bridge_q.json")
    del data["action"]["g"]["map"]
    with pytest.raises(InstanceFormatError):
        parse_instance(data)


def test_identity_map_may_be_omitted():
    data = instance_data("partial_bridge_q.json")
    assert "map" not in data["action"]["id:e1"]
    inst = parse_instance(data)
    assert inst.action.validate().ok


def test_unknown_morphism_in_action_is_rejected():
    data = instance_data("partial_bridge_q.json")
    data["action"]["ghost"] = {"dom": [0, 0, 0, 0]}
    with pytest.raises(InstanceFormatError):
        parse_instance(data)


def test_bad_scalar_is_rejected():
    data = instance_data("partial_bridge_q.json")
    data["action"]["g"]["dom"] = ["0", "0", "one", "0"]
    with pytest.raises(InstanceFormatError):
        parse_instance(data)


def test_wrong_vector_length_is_rejected():
    data = instance_data("partial_bridge_q.json")
    data["action"]["g"]["dom"] = [0, 0, 1]
    with pytest.raises(InstanceFormatError):
        parse_instance(data)


def test_rational_scalars_in_gf_field():
    # "1/2" is a legal GF(5) scalar: the inverse of 2 is 3
    data = instance_data("partial_bridge_q.json")
    data["field"] = "GF(5)"
    data["action"]["id:e1"]["dom"] = ["1/2", 0, 0, 0]
    inst = parse_instance(data)
    assert inst.action.idem("id:e1")[0] == Field.prime(5).from_int(3)


def test_not_json_is_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(InstanceFormatError):
        load_instance(bad)


def test_digest_of_canonical_dict_is_deterministic():
    inst = load_instance(instance_path("z2_flip_q.json"))
    assert instance_digest(canonical_dict(inst.action)) == inst.digest


def test_deeply_nested_json_exits_two_with_a_typed_error(capsys, tmp_path):
    # json's decoder recurses once per array, so this raised RecursionError,
    # which escaped as a traceback with exit code 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(InstanceFormatError, match="not valid JSON: maximum recursion depth"):
        load_instance(deep)
    assert main(["validate", str(deep)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "InstanceFormatError"
    assert error["message"].startswith("not valid JSON: ")


# -- the streamed digest against the reference canonical form --------------------------

def _reference_digest(pa) -> str:
    return instance_digest(canonical_dict(pa))


@pytest.mark.parametrize("path", sorted(INSTANCE_DIR.glob("*.json")), ids=lambda p: p.name)
def test_digest_equals_the_reference_on_the_corpus(path):
    inst = load_instance(path)
    assert inst.digest == _reference_digest(inst.action)


@pytest.mark.parametrize("seed", range(12))
def test_digest_equals_the_reference_on_fuzz_instances(seed):
    skel = random_skeleton(random.Random(seed))
    for fdesc in ("Q", "GF(2)", {"prime": 3}):
        inst = parse_instance(skeleton_to_instance(skel, fdesc))
        assert inst.digest == _reference_digest(inst.action)


@settings(max_examples=60, deadline=None)
@given(st.text())
@example('"')
@example("\\")
@example('e"\\\u00e9\u2603\n\x00\U0001f600\ud800')
def test_digest_equals_the_reference_on_any_names(prefix):
    # renamed objects, morphisms and basis names reach every escaped string
    # of the form, and a non-ASCII name is escaped as json.dumps escapes it
    data = instance_data("partial_bridge_q.json")
    data["algebra"]["basis_names"] = ["b%d" % i for i in range(4)]
    inst = parse_instance(renamed_instance(data, prefix))
    assert inst.digest == _reference_digest(inst.action)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(max_denominator=10**6), min_size=16, max_size=16),
       st.sampled_from(["Q", "GF(2)", "GF(5)", {"prime": 7}]))
def test_digest_equals_the_reference_on_any_scalars(entries, fdesc):
    # the action is not valid, but the digest depends only on the parse
    data = instance_data("partial_bridge_q.json")
    data["field"] = fdesc
    p = parse_field(fdesc).p
    entries = [q for q in entries if p is None or q.denominator % p] + [Fraction(0)] * 16
    data["action"]["g"]["map"] = [[str(q) for q in entries[4 * i:4 * i + 4]]
                                  for i in range(4)]
    inst = parse_instance(data)
    assert inst.digest == _reference_digest(inst.action)


@pytest.mark.parametrize("field", [Field.rationals(), Field.prime(3)], ids=str)
def test_digest_equals_the_reference_on_a_structure_algebra_and_an_empty_object(field):
    # M_2(k) given by its dense structure constants, and one empty object besides
    structure = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                structure[2 * i + j][2 * j + k][2 * i + k] = 1
    algebra = Algebra(field, structure, [1, 0, 0, 1], ["e11", "e12", "e21", "e22"])
    groupoid = build_groupoid(("x", "y"), [], [], [])
    pa = PartialAction(groupoid, algebra,
                       {"id:x": (1, 0, 0, 1), "id:y": (0, 0, 0, 0)}, {})
    assert _digest(pa) == _reference_digest(pa)
    assert _digest(pa) == parse_instance(json.loads(json.dumps(canonical_dict(pa)))).digest


def test_digest_equals_the_reference_on_a_zero_dimensional_algebra():
    data = _one_object()
    data["algebra"] = {"diagonal": 0}
    data["action"]["id:e"]["dom"] = []
    inst = parse_instance(data)
    assert inst.digest == _reference_digest(inst.action)


# -- each raw scalar is parsed once ----------------------------------------------------

def test_each_distinct_raw_scalar_is_parsed_once(monkeypatch):
    n = 32
    data = _one_object()
    data["algebra"] = {"diagonal": n}
    data["action"]["id:e"]["dom"] = ["1"] * (n - 2) + [1, " 1"]
    calls = []
    parse = Field.parse

    def counted(self, x):
        calls.append(x)
        return parse(self, x)

    monkeypatch.setattr(Field, "parse", counted)
    inst = parse_instance(data)
    assert inst.action.idem("id:e") == (1,) * n
    assert sorted(map(repr, calls)) == ["' 1'", "'1'", "1"]


@pytest.mark.parametrize("dom,message", [
    ([1, True], "a boolean is not a scalar: True"),
    (["1", True], "a boolean is not a scalar: True"),
    ([0, False], "a boolean is not a scalar: False"),
    ([1, 1.0], "cannot parse scalar from 1.0"),
    ([1, [1]], "cannot parse scalar from [1]"),
])
def test_the_scalar_memo_keeps_bools_floats_and_lists_apart(dom, message):
    # True == 1 and 1.0 == 1 in a dict key, so the memo keys on the type too
    data = _one_object()
    data["algebra"] = {"diagonal": 2}
    data["action"]["id:e"]["dom"] = dom
    with pytest.raises(InstanceFormatError, match=message.replace("[", r"\[")):
        parse_instance(data)


def test_a_diagonal_algebra_is_parsed_without_a_coercion_per_constant(monkeypatch):
    # each scalar is coerced once where it enters, and k^n enters as its n
    # nonzero constants, not as n^3 coerced scalars
    n = 64
    data = {"field": "Q",
            "groupoid": {"objects": ["e"], "morphisms": [], "compose": [], "inverse": []},
            "algebra": {"diagonal": n},
            "action": {"id:e": {"dom": ["1"] * n}}}
    calls = []
    coerce = Field.coerce

    def counted(self, x):
        calls.append(x)
        return coerce(self, x)

    monkeypatch.setattr(Field, "coerce", counted)
    inst = parse_instance(data)
    assert inst.action.algebra.dim == n
    assert len(calls) < n * n


def test_a_structure_algebra_is_parsed_without_a_second_coercion(monkeypatch):
    # each structure constant and unit scalar is checked by `Field.parse`
    # alone; the laws of the parsed table are still audited, and
    # `Algebra(...)` called from outside still coerces every scalar
    parse, coerce = Field.parse, Field.coerce
    parsing, outside = [], []

    def traced(self, x):
        parsing.append(x)
        try:
            return parse(self, x)
        finally:
            parsing.pop()

    def counted(self, x):
        if not parsing:
            outside.append(x)
        return coerce(self, x)

    monkeypatch.setattr(Field, "parse", traced)
    monkeypatch.setattr(Field, "coerce", counted)
    algebra = parse_instance(instance_data("conj_swap_m2_q.json")).action.algebra
    assert outside == []
    assert algebra.dim == 8 and not algebra.commutative
    data = instance_data("conj_swap_m2_q.json")
    data["algebra"]["unit"][0] = "0"
    with pytest.raises(InstanceFormatError, match="declared unit is not a two-sided identity"):
        parse_instance(data)
    data = instance_data("conj_swap_m2_q.json")
    # X12 X12 = X12 keeps the unit law: (X12 X12) X21 = X11, X12 (X12 X21) = 0
    data["algebra"]["structure"][1][1] = ["0", "1"] + ["0"] * 6
    with pytest.raises(InstanceFormatError, match="not associative"):
        parse_instance(data)
    Algebra(Field.rationals(), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
    assert len(outside) == 8 + 2
    with pytest.raises(ValueError, match="does not belong"):
        Algebra(Field.rationals(), [[[1, 0], [0, 0]], [[0, 0], [0, 1.0]]], [1, 1])


def test_parsed_domain_idempotents_are_not_coerced_again(monkeypatch):
    # the parser's vectors enter `PartialAction(...)` as kept vectors; a
    # vector given to the constructor from outside is still checked
    inside = []
    calls = []
    coerce, init = Field.coerce, PartialAction.__init__

    def counted(self, x):
        if inside:
            calls.append(x)
        return coerce(self, x)

    def traced(self, *args):
        inside.append(True)
        try:
            init(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(Field, "coerce", counted)
    monkeypatch.setattr(PartialAction, "__init__", traced)
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        load_instance(path)
    assert calls == []
    g = build_groupoid(["e"], [], [], [])
    PartialAction(g, Algebra.diagonal(Field.rationals(), 2), {"id:e": [1, 1]}, {})
    assert calls == [1, 1]
    with pytest.raises(ValueError):
        PartialAction(g, Algebra.diagonal(Field.rationals(), 2), {"id:e": [1.0, 1]}, {})


def _edited(base, edit):
    data = base()
    edit(data)
    return data


def _set(path, value):
    """An edit setting data[path[0]][path[1]]... to value."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


@pytest.mark.parametrize("base,edit,message", [
    (_z3, _set(("action", "g", "map"), [[1], [0]]), "matrix is not 1 x 1"),
    (_one_object, lambda d: d.pop("field"), "missing instance key: 'field'"),
    (lambda: _one_object(("e", "e")), lambda d: None, "duplicate object names"),
    (_z3, lambda d: d["groupoid"]["morphisms"].append({"name": "g", "src": "e", "tgt": "e"}),
     "duplicate morphism name 'g'"),
    (_one_object, _set(("groupoid", "morphisms"), [{"name": "g", "src": "e", "tgt": "f"}]),
     "arrow 'g' has unknown endpoint"),
    (_z3, _set(("groupoid", "compose", 0), ["g", "g", "q"]),
     "composition table mentions unknown 'q'"),
    (_z3, _set(("groupoid", "inverse"), [["g", "q"]]),
     "inverse table mentions unknown morphism"),
    (_one_object, _set(("action", "id:e", "dom"), [0.5]), "cannot parse scalar from 0.5"),
    (_one_object, _set(("action", "id:e", "dom"), [[1]]), "cannot parse scalar from [1]"),
    (_one_object, _set(("action", "id:e", "dom"), [None]), "cannot parse scalar from None"),
], ids=["matrix-shape", "missing-key", "duplicate-object", "duplicate-morphism",
        "unknown-endpoint", "unknown-in-compose", "unknown-in-inverse",
        "float-scalar", "list-scalar", "null-scalar"])
def test_each_instance_error_exits_two_with_its_message(capsys, tmp_path, base, edit,
                                                         message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_edited(base, edit)))
    assert main(["validate", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "InstanceFormatError", "message": message}


def _with_basis_names(names) -> dict:
    data = _one_object()
    data["algebra"] = {"diagonal": 2, "basis_names": names}
    data["action"]["id:e"]["dom"] = [1, 1]
    return data


@pytest.mark.parametrize("names,message", [
    ("ab", "basis_names must be a JSON array, got 'ab'"),
    ([[1], 2], "basis_names must hold 2 JSON strings, got [[1], 2]"),
    ([1, 2], "basis_names must hold 2 JSON strings, got [1, 2]"),
    (["a"], "basis_names must hold 2 JSON strings, got ['a']"),
], ids=["string", "nested", "integers", "too-few"])
def test_basis_names_must_be_one_json_string_per_basis_vector(names, message):
    # a string would be read one name per character, and [1, 2] would get a
    # digest of its own beside ["1", "2"], which names the same algebra
    assert parse_instance(_with_basis_names(["1", "2"])).action.algebra.basis_names == \
        ("1", "2")
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(_with_basis_names(names))
    assert str(exc.value) == message


def test_structure_algebras_check_basis_names_too():
    data = _spelled_as_strings("none")
    data["algebra"]["basis_names"] = "xy"
    with pytest.raises(InstanceFormatError, match="basis_names must be a JSON array"):
        parse_instance(data)
    data["algebra"]["basis_names"] = ["x", "y"]
    assert parse_instance(data).action.algebra.basis_names == ("x", "y")
