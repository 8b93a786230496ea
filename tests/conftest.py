import copy
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from skewalg import (Field, Matrix, PartialAction, build_skew_ring,
                     glue_components, tensor_over)
from skewalg.instances import load_instance, parse_instance
from skewalg.linalg import echelon, vadd

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


def instance_path(name: str) -> Path:
    return INSTANCE_DIR / name


def load_action(name: str) -> PartialAction:
    return load_instance(instance_path(name)).action


def instance_data(name: str) -> dict:
    return json.loads(instance_path(name).read_text())


def renamed_instance(data: dict, prefix: str) -> dict:
    """Rename all objects and morphisms so two copies can be glued."""
    d = copy.deepcopy(data)

    def ro(o):
        return prefix + o

    def rm(m):
        return "id:" + ro(m[3:]) if m.startswith("id:") else prefix + m

    g = d["groupoid"]
    g["objects"] = [ro(o) for o in g["objects"]]
    g["morphisms"] = [{"name": rm(m["name"]), "src": ro(m["src"]), "tgt": ro(m["tgt"])}
                      for m in g["morphisms"]]
    g["compose"] = [[rm(a), rm(b), rm(c)] for a, b, c in g["compose"]]
    g["inverse"] = [[rm(a), rm(b)] for a, b in g["inverse"]]
    d["action"] = {rm(m): v for m, v in d["action"].items()}
    if "basis_names" in d["algebra"]:
        d["algebra"]["basis_names"] = [prefix + n for n in d["algebra"]["basis_names"]]
    return d


@pytest.fixture(scope="session")
def bridge():
    """Two objects joined by one arrow; 4-dim diagonal algebra, partial domains."""
    return load_action("partial_bridge_q.json")


@pytest.fixture(scope="session")
def flip_q():
    """Z/2 isotropy at both objects, bridge arrows act on zero ideals."""
    return load_action("z2_flip_q.json")


@pytest.fixture(scope="session")
def flip_gf2():
    return load_action("z2_flip_gf2.json")


@pytest.fixture(scope="session")
def flip_gf3():
    return load_action("z2_flip_gf3.json")


@pytest.fixture(scope="session")
def pair_swap():
    """Global connected action: pair groupoid swapping two 1-dim blocks."""
    return load_action("pair_swap_global_q.json")


@pytest.fixture(scope="session")
def glued_double():
    """Disjoint union of two renamed copies of the bridge instance."""
    base = instance_data("partial_bridge_q.json")
    left = parse_instance(renamed_instance(base, "L.")).action
    right = parse_instance(renamed_instance(base, "R.")).action
    return glue_components([left, right])


def trivial_group_on_field(field: Field) -> PartialAction:
    """One object, only its identity, acting on the 1-dim algebra."""
    from skewalg import Algebra, build_groupoid

    g = build_groupoid(["e"], [], [], [])
    a = Algebra.diagonal(field, 1, ["v"])
    return PartialAction(g, a, {"id:e": [1]}, {})


@pytest.fixture(scope="session")
def trivial_q():
    return trivial_group_on_field(Field.rationals())


def component_algebra_rows(pa: PartialAction, objects) -> tuple:
    """A basis of the component subalgebra A_[e] = A * sum of 1_f over `objects`."""
    alg = pa.algebra
    u = alg.zero()
    for f in objects:
        u = vadd(alg.field, u, pa.obj_idem(f))
    return alg.ideal_basis(u).basis.rows


def from_coords(ring, coords):
    """The ring element with the given ring coordinates."""
    parts = {}
    for g, at in ring.starts.items():
        ideal = ring.action.ideal(g)
        local = coords[at:at + ideal.dim]
        if any(local):
            parts[g] = ideal.combine(local)
    return ring.element(parts)


def embedded(ring, a):
    """The image sum_e (a 1_e) d_e of a under the embedding of A into the ring."""
    pa = ring.action
    g_oid = pa.groupoid
    return ring.element({g_oid.identity[e]: pa.algebra.multiply(a, pa.obj_idem(e))
                         for e in g_oid.objects})


def component_blocks(ring) -> list:
    """(objects, positions, u_[e]) for each block B_[e] of the ring: the basis
    positions on arrows whose target lies in the class, and the unit
    u_[e] = sum of 1_f d_f over its objects f."""
    g_oid = ring.action.groupoid
    out = []
    for cls in g_oid.connected_components().classes:
        positions = tuple(p for p, (g, _) in enumerate(ring.basis) if g_oid.tgt[g] in cls)
        unit = ring.element({g_oid.identity[f]: ring.action.obj_idem(f) for f in cls})
        out.append((cls, positions, unit))
    return out


def component_decomposition_failures(pa: PartialAction) -> list:
    """The laws of A*G = sum of the blocks B_[e] that fail on pa ([] if none).

    The units u_[e] are central, idempotent and orthogonal, sum to the ring
    unit, and cut out their blocks (b u_[e] is b on the block and 0 off it).
    Over the balancing relations, B_[e] (x)_A B_[e] has the dimension of
    B_[e] (x)_{A_[e]} B_[e] and of the square of the component's own ring,
    cross blocks B_[e] (x)_A B_[f] are 0, and the blocks' dimensions add up
    to the dimension of the whole square.
    """
    ring = build_skew_ring(pa)
    alg = pa.algebra
    a_rows = [alg.basis_vector(i) for i in range(alg.dim)]
    blocks = component_blocks(ring)
    failures = []
    if sorted(p for _, pos, _ in blocks for p in pos) != list(range(ring.dim)):
        failures.append("blocks do not partition the basis")
    total = ring.element({})
    dims = 0
    for i, (cls, pos, u) in enumerate(blocks):
        if u * u != u:
            failures.append("u%s is not idempotent" % (cls,))
        for p in range(ring.dim):
            b = ring.basis_element(p)
            if u * b != b * u:
                failures.append("u%s is not central" % (cls,))
            if b * u != (b if p in pos else ring.element({})):
                failures.append("u%s does not cut out its block" % (cls,))
        over_a = relation_quotient(ring, pos, pos, a_rows).dim
        over_own = relation_quotient(ring, pos, pos, component_algebra_rows(pa, cls)).dim
        own_square = tensor_over(build_skew_ring(pa.restrict_to_component(cls))).dim
        if not over_a == over_own == own_square:
            failures.append("block %s squares to %d over A, %d over A_[e], %d in its "
                            "own ring" % (cls, over_a, over_own, own_square))
        dims += over_a
        for j, (other, opos, v) in enumerate(blocks):
            if i != j:
                if not (u * v).is_zero():
                    failures.append("u%s u%s != 0" % (cls, other))
                if relation_quotient(ring, pos, opos, a_rows).dim:
                    failures.append("B%s (x) B%s != 0" % (cls, other))
        total = total + u
    if total != ring.unit():
        failures.append("block units do not sum to the ring unit")
    if tensor_over(ring).dim != dims:
        failures.append("block squares do not add up to the whole square")
    return failures


def relation_quotient(ring, lpos, rpos, mid_rows):
    """Reference for `TensorOverA`: the quotient by the balancing relations.

    The ambient space is the pairs (lpos[li], rpos[ri]), numbered
    li * len(rpos) + ri; for each (g, h) block of it and each a in `mid_rows`
    the relations (u d_g . a) (x) w d_h - u d_g (x) (a . w d_h) are eliminated
    in one leftmost-pivot echelon form.  Returns `dim`, `q_coords` (the free
    columns, blockwise, as ambient coordinates) and `project` (quotient
    coordinates of a sparse ambient vector, the residue at the free columns).
    """
    act = ring.action
    alg = act.algebra
    field = ring.field
    nr = len(rpos)

    def runs(positions):
        out: list = []
        for i, p in enumerate(positions):
            g = ring.basis[p][0]
            if out and out[-1][0] == g:
                out[-1][1].append(i)
            else:
                out.append((g, [i]))
        return out

    blocks = []
    for g, lls in runs(lpos):
        for h, rls in runs(rpos):
            nu, nw = len(lls), len(rls)
            g_ideal, h_ideal = act.ideal(g), act.ideal(h)
            rows = []
            for a in mid_rows:
                moved = act.alpha(g, a)
                ra = [g_ideal.coords(alg.multiply(u, moved)) for u in g_ideal.rows]
                la = [h_ideal.coords(alg.multiply(a, w)) for w in h_ideal.rows]
                for ui in range(nu):
                    for wi in range(nw):
                        row = [field.zero] * (nu * nw)
                        for ui2 in range(nu):
                            row[ui2 * nw + wi] += ra[ui][ui2]
                        for wi2 in range(nw):
                            row[ui * nw + wi2] -= la[wi][wi2]
                        rows.append(field.reduce_vec(row))
            ech = echelon(field, rows, nu * nw)
            coords = tuple(li * nr + ri for li in lls for ri in rls)
            free = tuple(j for j in range(nu * nw) if j not in set(ech.pivots))
            blocks.append((coords, ech, free))
    local_of = {c: (bi, j) for bi, (coords, _, _) in enumerate(blocks)
                for j, c in enumerate(coords)}
    q_coords = tuple(coords[f] for coords, _, free in blocks for f in free)

    def project(ambient: dict) -> tuple:
        out = []
        for bi, (coords, ech, free) in enumerate(blocks):
            local = [field.zero] * len(coords)
            for c, v in ambient.items():
                b, j = local_of[c]
                if b == bi:
                    local[j] = v
            reduced = ech.reduce(local)
            out.extend(reduced[f] for f in free)
        return tuple(out)

    return SimpleNamespace(dim=len(q_coords), q_coords=q_coords, project=project)


def dense_oracle_system(tensor):
    """Reference for `oracle_separability`: the dense system as (matrix, rhs).

    The rows of `mult_matrix` with the ring unit as right-hand side, then, for
    every ring basis element b, all `tensor.dim` rows of
    `left_matrix(b) - right_matrix(b)`, zero and repeated rows included.
    """
    ring = tensor.ring
    field = ring.field
    rows = list(tensor.mult_matrix().data)
    rhs = list(ring.coords_of(ring.unit()))
    for p in range(ring.dim):
        b = ring.basis_coords(p)
        rows.extend((tensor.left_matrix(b) - tensor.right_matrix(b)).data)
        rhs.extend([field.zero] * tensor.dim)
    return Matrix(field, rows, ncols=tensor.dim), rhs
