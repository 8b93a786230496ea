"""Instance files: a JSON schema describing field, groupoid, algebra, action.

Layout:

    {
      "field": "Q" | "GF(p)" | {"prime": p},       # p a JSON integer
      "groupoid": {
        "objects": ["e1", ...],
        "morphisms": [{"name": "g", "src": "e1", "tgt": "e2"}, ...],
        "compose": [["g", "h", "gh"], ...],      # non-identity products
        "inverse": [["g", "ginv"], ...]
      },
      "algebra": {"diagonal": n}
                 | {"structure": [[[...]]], "unit": [...], "basis_names": [...]},
      "action": {"id:e1": {"dom": [...]},        # identity maps may be omitted
                 "g": {"dom": [...], "map": [[...], ...]}, ...}
    }

Identity morphisms are implicit ("id:<object>") but their "dom" entries are
required, since they define the object ideals A_e.  Scalars are written as
strings ("3/4", "2") or plain integers; exponent notation is rejected.
Vectors, matrices, the structure, their rows, "objects", "morphisms",
"basis_names" and each "compose" triple and "inverse" pair must be JSON
arrays, not strings (which would be read one character at a time); every
name is a JSON string, and "basis_names", if given, names each basis vector.
The algebra dimension ("diagonal" n, or the length of "structure") must be
a JSON integer from 0 to MAX_ALGEBRA_DIM, checked before anything of size
dim^3 is built.

Each distinct raw scalar is parsed once per instance: `Field.parse` is
memoised on (type, value) of the JSON value, so `true` and `1` never share
an entry.  Parsed scalars are field scalars and are not checked again: a
"structure" algebra enters `Algebra` as the sparse table of its parsed
constants, with its parsed unit, whose laws it still audits.  An
`Instance` keeps the action and its digest, the sha256 of the canonical
form: `json.dumps(form, sort_keys=True, separators=(",", ":"))`
of the parsed instance with every scalar written as `str`, the field as
`str(field)`, every identity's "dom" and "map", and the structure dense.
`_digest` writes those exact bytes into the hash one morphism entry or
structure plane at a time and never builds the form, so it holds one dense
matrix as text at a time, not the whole dense table.  Each distinct vector
or matrix row is written as text once per instance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .algebra import Algebra
from .groupoid import build_groupoid
from .linalg import Field, Matrix
from .partial_action import PartialAction


# A dimension-n algebra has n^3 structure constants: 128^3 is about 2.1M.
MAX_ALGEBRA_DIM = 128


class InstanceFormatError(Exception):
    pass


@dataclass(frozen=True)
class Instance:
    action: PartialAction
    digest: str       # sha256 of the canonical form (`_digest`)


def parse_field(desc) -> Field:
    if desc == "Q":
        return Field.rationals()
    if isinstance(desc, str) and desc.startswith("GF(") and desc.endswith(")"):
        return Field.prime(int(desc[3:-1]))
    if isinstance(desc, dict) and "prime" in desc:
        p = desc["prime"]
        if isinstance(p, bool) or not isinstance(p, int):
            raise InstanceFormatError("prime must be a JSON integer, got %.40r" % (p,))
        return Field.prime(p)
    raise InstanceFormatError("unrecognised field descriptor %r" % (desc,))


def _algebra_dim(n) -> int:
    if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n <= MAX_ALGEBRA_DIM:
        raise InstanceFormatError(
            "algebra dimension must be an integer from 0 to %d, got %.40r"
            % (MAX_ALGEBRA_DIM, n))
    return n


def _array(raw, what: str) -> list:
    if not isinstance(raw, list):
        raise InstanceFormatError("%s must be a JSON array, got %.40r" % (what, raw))
    return raw


def _names(raw, what: str, length: int | None = None) -> tuple:
    """A JSON array of JSON strings, `length` of them if given."""
    names = tuple(_array(raw, what))
    if not all(isinstance(x, str) for x in names) or length not in (None, len(names)):
        raise InstanceFormatError("%s must hold %s JSON strings, got %.40r"
                                  % (what, length or "only", raw))
    return names


def _basis_names(adata: dict, dim: int) -> tuple | None:
    """The algebra's "basis_names", dim JSON strings, or None if absent."""
    raw = adata.get("basis_names")
    return None if raw is None else _names(raw, "basis_names", dim)


def _scalar_parser(field: Field):
    """`field.parse`, memoised per (type, value) of the raw JSON scalar.

    The type is part of the key because `True == 1` and `1.0 == 1`: a bool
    or a float never reads the entry of an int, so each is still rejected.
    A list or dict cannot be hashed and goes to `field.parse`, which rejects
    it; a rejected value is never kept.
    """
    memo: dict = {}

    def parsed(x):
        try:
            return memo[type(x), x]
        except KeyError:
            out = memo[type(x), x] = field.parse(x)
            return out
        except TypeError:
            return field.parse(x)
    return parsed


def _parse_vector(parse, raw, dim: int) -> tuple:
    if len(_array(raw, "vector")) != dim:
        raise InstanceFormatError("vector of length %d, expected %d" % (len(raw), dim))
    return tuple(map(parse, raw))


def _parse_rows(parse, raw, dim: int) -> tuple:
    """The rows of a dim x dim matrix of raw scalars, parsed."""
    if (len(_array(raw, "matrix")) != dim
            or any(len(_array(r, "matrix row")) != dim for r in raw)):
        raise InstanceFormatError("matrix is not %d x %d" % (dim, dim))
    return tuple(tuple(map(parse, row)) for row in raw)


def parse_instance(data: dict) -> Instance:
    try:
        field = parse_field(data["field"])
        parse = _scalar_parser(field)
        gdata = data["groupoid"]
        arrows = [_names([m["name"], m["src"], m["tgt"]], "morphism name, src and tgt")
                  for m in _array(gdata.get("morphisms", []), "morphisms")]
        groupoid = build_groupoid(
            _names(gdata["objects"], "objects"), arrows,
            # a list of 3 strings passes as it is; `_names` raises on any other
            [t if type(t) is list and len(t) == 3 and type(t[0]) is type(t[1]) is type(t[2]) is str
             else _names(t, "compose triple", 3)
             for t in _array(gdata.get("compose", []), "compose")],
            [_names(p, "inverse pair", 2) for p in _array(gdata.get("inverse", []), "inverse")])
        adata = data["algebra"]
        if "diagonal" in adata:
            dim = _algebra_dim(adata["diagonal"])
            algebra = Algebra.diagonal(field, dim, _basis_names(adata, dim))
        else:
            dim = _algebra_dim(len(_array(adata["structure"], "structure")))
            # parsed scalars are field scalars: the sparse table enters unchecked
            table = tuple(tuple({k: c for k, c in enumerate(row) if c}
                                for row in _parse_rows(parse, plane, dim))
                          for plane in adata["structure"])
            algebra = Algebra(field, table, _parse_vector(parse, adata["unit"], dim),
                              _basis_names(adata, dim), _sparse=True)
        act = data.get("action", {})
        idems = {}
        maps = {}
        for g in groupoid.morphisms:
            entry = act.get(g)
            if entry is None:
                raise InstanceFormatError("no action entry for morphism %r" % (g,))
            # parsed scalars are field scalars: the vector enters as a kept one
            idems[g] = algebra._keep(_parse_vector(parse, entry["dom"], algebra.dim))
            if "map" in entry:
                maps[g] = Matrix._trusted(field, _parse_rows(parse, entry["map"], algebra.dim),
                                          algebra.dim)
            elif not groupoid.is_identity(g):
                raise InstanceFormatError("morphism %r needs an explicit map" % (g,))
        extra = set(act) - set(groupoid.morphisms)
        if extra:
            raise InstanceFormatError("action mentions unknown morphisms %r" % (sorted(extra),))
        action = PartialAction(groupoid, algebra, idems, maps)
    except InstanceFormatError:
        raise
    except KeyError as exc:
        raise InstanceFormatError("missing instance key: %s" % (exc,)) from exc
    except Exception as exc:
        raise InstanceFormatError(str(exc)) from exc
    return Instance(action, _digest(action))


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # JSONDecodeError, an int too long to convert, or arrays or objects
        # nested deeper than the decoder's recursion limit
        except (ValueError, RecursionError) as exc:
            raise InstanceFormatError("not valid JSON: %s" % (exc,)) from exc
    return parse_instance(data)


# json's own compact encoder: the C one, with ensure_ascii, so names are
# escaped exactly as json.dumps escapes them
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _Joined(dict):
    """Each vector's scalars as `str`s, which need no escape, joined by
    '","': the text between the outer quotes of its compact JSON array.
    A vector's text is written once, on its first lookup."""

    def __missing__(self, v: tuple) -> str:
        out = self[v] = '","'.join(map(str, v))
        return out


def _canonical_text(pa: PartialAction):
    """The canonical form's compact, key-sorted JSON, one morphism entry or
    structure plane at a time.

    The pieces join to `json.dumps(form, sort_keys=True, separators=(",",
    ":"))`, where `form` is

        {"action": {m: {"dom": [...], "map": [[...], ...]} for every m},
         "algebra": {"basis_names": [...], "structure": [[[...]]],
                     "unit": [...]},
         "field": str(field),
         "groupoid": {"compose": sorted non-identity [a, b, ab],
                      "inverse": sorted non-identity [a, b] with a <= b,
                      "morphisms": [{"name", "src", "tgt"}] of non-identities,
                      "objects": [...]}}

    with every scalar as its `str` and each structure row dense ("0" where
    the sparse table has no entry).
    """
    g, alg = pa.groupoid, pa.algebra
    joined = _Joined()

    def vector(v) -> str:
        return '["%s"]' % joined[v] if v else "[]"

    def matrix(rows) -> str:
        return '[["%s"]]' % '"],["'.join([joined[r] for r in rows]) if rows else "[]"

    yield '{"action":{'
    for n, m in enumerate(sorted(g.morphisms)):
        yield '%s%s:{"dom":%s,"map":%s}' % ("," if n else "", _encode(m),
                                            vector(pa.idem(m)), matrix(pa.matrix(m).data))
    yield '},"algebra":{"basis_names":%s,"structure":[' % _encode(list(alg.basis_names))
    zero_row = '","'.join(("0",) * alg.dim)
    for n, plane in enumerate(alg._table):
        yield '%s[["%s"]]' % ("," if n else "", '"],["'.join([
            '","'.join([str(row.get(k, 0)) for k in range(alg.dim)]) if row else zero_row
            for row in plane]))
    ids = {m for m in g.morphisms if g.is_identity(m)}
    groupoid = {
        "objects": list(g.objects),
        "morphisms": [{"name": m, "src": g.src[m], "tgt": g.tgt[m]}
                      for m in g.morphisms if m not in ids],
        "compose": sorted([a, b, c] for (a, b), c in g.compose.items()
                          if a not in ids and b not in ids),
        "inverse": sorted([a, b] for a, b in g.inverse.items() if a <= b and a not in ids),
    }
    yield '],"unit":%s},"field":%s,"groupoid":%s}' % (
        vector(alg.unit), _encode(str(alg.field)), _encode(groupoid))


def _digest(pa: PartialAction) -> str:
    h = hashlib.sha256()
    for piece in _canonical_text(pa):
        h.update(piece.encode("ascii"))
    return h.hexdigest()
