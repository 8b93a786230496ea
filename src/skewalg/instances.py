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
dim^3 is built.  An `Instance` keeps the action and the digest of its
`canonical_dict`.
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
    digest: str       # sha256 of the canonical form (`canonical_dict`)


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


def _parse_vector(field: Field, raw, dim: int) -> tuple:
    if len(_array(raw, "vector")) != dim:
        raise InstanceFormatError("vector of length %d, expected %d" % (len(raw), dim))
    return tuple(field.parse(x) for x in raw)


def _parse_matrix(field: Field, raw, dim: int) -> Matrix:
    if (len(_array(raw, "matrix")) != dim
            or any(len(_array(r, "matrix row")) != dim for r in raw)):
        raise InstanceFormatError("matrix is not %d x %d" % (dim, dim))
    return Matrix._trusted(field, tuple(tuple(field.parse(x) for x in row) for row in raw),
                           dim)


def parse_instance(data: dict) -> Instance:
    try:
        field = parse_field(data["field"])
        gdata = data["groupoid"]
        arrows = [_names([m["name"], m["src"], m["tgt"]], "morphism name, src and tgt")
                  for m in _array(gdata.get("morphisms", []), "morphisms")]
        groupoid = build_groupoid(
            _names(gdata["objects"], "objects"), arrows,
            [_names(t, "compose triple", 3) for t in _array(gdata.get("compose", []), "compose")],
            [_names(p, "inverse pair", 2) for p in _array(gdata.get("inverse", []), "inverse")])
        adata = data["algebra"]
        if "diagonal" in adata:
            dim = _algebra_dim(adata["diagonal"])
            algebra = Algebra.diagonal(field, dim, _basis_names(adata, dim))
        else:
            dim = _algebra_dim(len(_array(adata["structure"], "structure")))
            structure = [_parse_matrix(field, plane, dim).data for plane in adata["structure"]]
            algebra = Algebra(field, structure, _parse_vector(field, adata["unit"], dim),
                              _basis_names(adata, dim))
        act = data.get("action", {})
        idems = {}
        maps = {}
        for g in groupoid.morphisms:
            entry = act.get(g)
            if entry is None:
                raise InstanceFormatError("no action entry for morphism %r" % (g,))
            idems[g] = _parse_vector(field, entry["dom"], algebra.dim)
            if "map" in entry:
                maps[g] = _parse_matrix(field, entry["map"], algebra.dim)
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
    return Instance(action, instance_digest(canonical_dict(action)))


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an int too long to convert
            raise InstanceFormatError("not valid JSON: %s" % (exc,)) from exc
    return parse_instance(data)


def canonical_dict(pa: PartialAction) -> dict:
    """Re-serialize a parsed instance deterministically (scalars as strings).

    The field is written as `str(field)`, so every spelling of one field
    gives the same form; the structure constants are written dense from the
    sparse table, "0" where the table has no entry.
    """
    g = pa.groupoid
    alg = pa.algebra
    non_id = [m for m in g.morphisms if not g.is_identity(m)]
    out = {
        "field": str(alg.field),
        "groupoid": {
            "objects": list(g.objects),
            "morphisms": [{"name": m, "src": g.src[m], "tgt": g.tgt[m]}
                          for m in non_id],
            "compose": sorted([a, b, c] for (a, b), c in g.compose.items()
                              if not (g.is_identity(a) or g.is_identity(b))),
            "inverse": sorted([a, b] for a, b in g.inverse.items()
                              if a <= b and not g.is_identity(a)),
        },
        "algebra": {
            "basis_names": list(alg.basis_names),
            "structure": [[[str(row[k]) if k in row else "0" for k in range(alg.dim)]
                           if row else ["0"] * alg.dim for row in plane]
                          for plane in alg._table],
            "unit": [str(c) for c in alg.unit],
        },
        "action": {
            m: {"dom": [str(c) for c in pa.idem(m)],
                "map": [[str(c) for c in row] for row in pa.matrix(m).data]}
            for m in g.morphisms
        },
    }
    return out


def instance_digest(canonical: dict) -> str:
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
