import copy
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from skewalg import (ActionError, AffineSolutionSet, Algebra, Echelon, Field,
                     Groupoid, Matrix, PartialAction, build_skew_ring,
                     solve_affine, tensor_over)
from skewalg.fuzz import random_skeleton
from skewalg.groupoid import ValidationReport, Violation
from skewalg.instances import load_instance, parse_instance
from skewalg.linalg import DimensionMismatch, LinalgError, echelon, kernel, vadd
from skewalg.separability import (OracleResult, SeparabilityCertificate,
                                  WitnessInvalid, idempotent_blocks,
                                  oracle_separability, trace_into)
from skewalg.skew_ring import commutator_terms, psi_block

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


def instance_path(name: str) -> Path:
    return INSTANCE_DIR / name


def load_action(name: str) -> PartialAction:
    return load_instance(instance_path(name)).action


def instance_data(name: str) -> dict:
    return json.loads(instance_path(name).read_text())


def canonical_dict(pa: PartialAction) -> dict:
    """Reference canonical form of a parsed instance (scalars as strings).

    The field is written as `str(field)`, so every spelling of one field
    gives the same form; the structure constants are written dense from the
    sparse table, "0" where the table has no entry.  `parse_instance`
    streams the hash of this form's compact JSON without building it.
    """
    g = pa.groupoid
    alg = pa.algebra
    non_id = [m for m in g.morphisms if not g.is_identity(m)]
    return {
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


def instance_digest(canonical: dict) -> str:
    """Reference digest: the sha256 of the canonical form's compact JSON."""
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# a one-component fuzz skeleton whose skew ring has dimension 48
RING_48 = {"components": [{"k": 2, "m": 3, "d": 4, "sigma": [1, 2, 0, 3],
                           "tau": [[0, 1, 2, 3]] * 2, "T": [[0, 1, 2, 3]] * 2}]}


def non_central_domain() -> dict:
    """conj_swap_m2_q.json with 1_s = X11, an idempotent of M_2 x M_2 that is
    not central."""
    data = instance_data("conj_swap_m2_q.json")
    data["action"]["s"]["dom"] = ["1"] + ["0"] * 7
    return data


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


def global_skeleton(rng) -> dict:
    """A fuzzer skeleton with every object keeping all its letters: a global action."""
    skel = random_skeleton(rng)
    for c in skel["components"]:
        c["T"] = [list(range(c["d"])) for _ in range(c["k"])]
    return skel


def trivial_group_on_field(field: Field) -> PartialAction:
    """One object, only its identity, acting on the 1-dim algebra."""
    from skewalg import Algebra, build_groupoid

    g = build_groupoid(["e"], [], [], [])
    a = Algebra.diagonal(field, 1, ["v"])
    return PartialAction(g, a, {"id:e": [1]}, {})


@pytest.fixture(scope="session")
def trivial_q():
    return trivial_group_on_field(Field.rationals())


def component_unit(pa: PartialAction, objects) -> tuple:
    """u_[e]: the sum of the object idempotents 1_f over `objects`."""
    u = pa.algebra.zero()
    for f in objects:
        u = vadd(pa.algebra.field, u, pa.obj_idem(f))
    return u


def component_algebra_rows(pa: PartialAction, objects) -> tuple:
    """A basis of the component subalgebra A_[e] = A * sum of 1_f over `objects`."""
    return pa.algebra.ideal_basis(component_unit(pa, objects)).rows


def restricted_action(pa: PartialAction, objects) -> PartialAction:
    """The full subgroupoid on `objects` (every arrow with both ends there)
    acting on A u, u = `component_unit(pa, objects)`, in the echelon
    coordinates of A u: a component's own instance for a component class,
    the isotropy action for one object."""
    g_oid = pa.groupoid
    alg = pa.algebra
    keep = tuple(g for g in g_oid.morphisms
                 if g_oid.src[g] in objects and g_oid.tgt[g] in objects)
    sub_oid = Groupoid(
        tuple(e for e in g_oid.objects if e in objects), keep,
        {g: g_oid.src[g] for g in keep}, {g: g_oid.tgt[g] for g in keep},
        {e: g_oid.identity[e] for e in objects},
        {gh: v for gh, v in g_oid.compose.items() if gh[0] in keep and gh[1] in keep},
        {g: v for g, v in g_oid.inverse.items() if g in keep})
    u = component_unit(pa, objects)
    basis = alg.ideal_basis(u)
    structure = [[alg.ideal_coords(u, alg.multiply(x, y)) for y in basis.rows]
                 for x in basis.rows]
    sub = Algebra(alg.field, structure, alg.ideal_coords(u, u),
                  tuple("u%d" % i for i in range(basis.dim)))
    idems = {g: alg.ideal_coords(u, pa.idem(g)) for g in keep}
    maps = {g: from_cols(alg.field, [alg.ideal_coords(u, pa.alpha(g, r))
                                     for r in basis.rows]) for g in keep}
    return PartialAction(sub_oid, sub, idems, maps)


def restricted_component_family(pa: PartialAction, cls, solve_at) -> AffineSolutionSet:
    """Reference for `ComponentVerdict.witness_family`: the component's own
    instance (`restricted_action`, echelon coordinates of A_[e]) solves
    t_f(a) = 1_f for f in `solve_at` over its own center, and the solutions
    are mapped back into A's coordinates and put in canonical form."""
    sub = restricted_action(pa, cls)
    field = pa.algebra.field
    basis = pa.algebra.ideal_basis(component_unit(pa, cls))
    cmat = from_cols(field, sub.algebra.center_basis().rows)
    rows: list = []
    rhs: list = []
    for f in solve_at:
        rows.extend(matmul(trace_into(sub, f), cmat).data)
        rhs.extend(sub.obj_idem(f))
    sol = solve_affine(field, rows, rhs, cmat.ncols)
    if sol.is_empty:
        return sol

    def full(c):
        return basis.combine(cmat.apply(c))

    ke = echelon(field, [full(k) for k in sol.kernel_basis], pa.algebra.dim)
    return AffineSolutionSet(ke.reduce(full(sol.particular)), ke.rows, field)


def skew_mul(pa: PartialAction, x: dict, y: dict) -> dict:
    """Reference skew product of {morphism: coefficient} dicts, straight from
    the action: (a d_g)(b d_h) = alpha_g(alpha_{g^-1}(a) b) d_{gh} on
    composable pairs and 0 otherwise; zero coefficients are dropped."""
    alg = pa.algebra
    g_oid = pa.groupoid
    acc: dict = {}
    for g, a in x.items():
        pulled = pa.alpha(g_oid.inv(g), a)
        for h, b in y.items():
            if g_oid.src[g] == g_oid.tgt[h]:
                gh = g_oid.compose[(g, h)]
                v = pa.alpha(g, alg.multiply(pulled, b))
                acc[gh] = vadd(alg.field, acc[gh], v) if gh in acc else v
    return {g: v for g, v in acc.items() if any(v)}


def ring_coords(ring, parts: dict) -> tuple:
    """Ring coordinates of sum of v d_g over {g: v} (each v in A_g)."""
    out = [ring.field.zero] * ring.dim
    for g, v in parts.items():
        at = ring.starts[g]
        for k, c in enumerate(span_coords(ring.action.ideal(g), v)):
            out[at + k] = c
    return tuple(out)


def from_coords(ring, coords) -> dict:
    """The {morphism: coefficient} dict with the given ring coordinates."""
    parts = {}
    for g, at in ring.starts.items():
        ideal = ring.action.ideal(g)
        local = coords[at:at + ideal.dim]
        if any(local):
            parts[g] = ideal.combine(local)
    return parts


def embedded(pa: PartialAction, a) -> dict:
    """The image sum_e (a 1_e) d_e of a under the embedding of A into A*G."""
    g_oid = pa.groupoid
    parts = {g_oid.identity[e]: pa.algebra.multiply(a, pa.obj_idem(e))
             for e in g_oid.objects}
    return {g: v for g, v in parts.items() if any(v)}


def component_blocks(ring) -> list:
    """(objects, positions, u_[e]) for each block B_[e] of the ring: the basis
    positions on arrows whose target lies in the class, and the coordinates
    of the unit u_[e] = sum of 1_f d_f over its objects f."""
    pa = ring.action
    g_oid = pa.groupoid
    out = []
    for cls in g_oid.connected_components().classes:
        positions = tuple(p for p, (g, _) in enumerate(ring.basis) if g_oid.tgt[g] in cls)
        unit = ring_coords(ring, {g_oid.identity[f]: pa.obj_idem(f) for f in cls})
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
    mul = ring.mul_coords
    alg = pa.algebra
    zero = (ring.field.zero,) * ring.dim
    a_rows = [alg.basis_vector(i) for i in range(alg.dim)]
    blocks = component_blocks(ring)
    failures = []
    if sorted(p for _, pos, _ in blocks for p in pos) != list(range(ring.dim)):
        failures.append("blocks do not partition the basis")
    total = zero
    dims = 0
    for i, (cls, pos, u) in enumerate(blocks):
        if mul(u, u) != u:
            failures.append("u%s is not idempotent" % (cls,))
        for p in range(ring.dim):
            b = ring.basis_coords(p)
            if mul(u, b) != mul(b, u):
                failures.append("u%s is not central" % (cls,))
            if mul(b, u) != (b if p in pos else zero):
                failures.append("u%s does not cut out its block" % (cls,))
        over_a = relation_quotient(ring, pos, pos, a_rows).dim
        over_own = relation_quotient(ring, pos, pos, component_algebra_rows(pa, cls)).dim
        own_square = tensor_over(restricted_action(pa, cls)).dim
        if not over_a == over_own == own_square:
            failures.append("block %s squares to %d over A, %d over A_[e], %d in its "
                            "own ring" % (cls, over_a, over_own, own_square))
        dims += over_a
        for j, (other, opos, v) in enumerate(blocks):
            if i != j:
                if mul(u, v) != zero:
                    failures.append("u%s u%s != 0" % (cls, other))
                if relation_quotient(ring, pos, opos, a_rows).dim:
                    failures.append("B%s (x) B%s != 0" % (cls, other))
        total = vadd(ring.field, total, u)
    if total != ring.unit():
        failures.append("block units do not sum to the ring unit")
    if tensor_over(pa).dim != dims:
        failures.append("block squares do not add up to the whole square")
    return failures


def relation_quotient(ring, lpos, rpos, mid_rows):
    """Reference for the psi normal form: the quotient by the balancing relations.

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
                ra = [span_coords(g_ideal, alg.multiply(u, moved)) for u in g_ideal.rows]
                la = [span_coords(h_ideal, alg.multiply(a, w)) for w in h_ideal.rows]
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
    offsets = [0]
    for _, _, free in blocks:
        offsets.append(offsets[-1] + len(free))

    def project(ambient: dict) -> tuple:
        local: dict = {}
        for c, v in ambient.items():
            bi, j = local_of[c]
            local.setdefault(bi, [field.zero] * len(blocks[bi][0]))[j] = v
        out = [field.zero] * len(q_coords)
        for bi, vec in local.items():
            _, ech, free = blocks[bi]
            reduced = ech.reduce(vec)
            for k, f in enumerate(free, offsets[bi]):
                out[k] = reduced[f]
        return tuple(out)

    return SimpleNamespace(dim=len(q_coords), q_coords=q_coords, project=project)


def reference_square(ring) -> SimpleNamespace:
    """Reference for `TensorOverA`: the whole square (A*G) (x)_A (A*G) over
    the ring table, the `relation_quotient` of all ring.dim^2 basis pairs
    over A's basis, eliminated from scratch.

    Ambient coordinate p * n + q, n = ring.dim, is the basis pair
    (ring.basis[p], ring.basis[q]).  Holds the quotient's `dim`, `q_coords`
    and `project`; `unit_class`, the quotient coordinates of the blocks
    (g, g^-1); `multiply_ambient`, the ring coordinates of a sparse ambient
    vector's image under b (x) b' -> b b', read off the table; and
    `mult_matrix`, that map on the quotient basis.
    """
    pa = ring.action
    alg = pa.algebra
    field = ring.field
    n = ring.dim
    quotient = relation_quotient(ring, range(n), range(n),
                                 [alg.basis_vector(i) for i in range(alg.dim)])
    unit_class = tuple(k for k, c in enumerate(quotient.q_coords)
                       if ring.basis[c % n][0] == pa.groupoid.inv(ring.basis[c // n][0]))

    def multiply_ambient(ambient: dict) -> tuple:
        out = [field.zero] * n
        for c, v in ambient.items():
            p, q = divmod(c, n)
            for k, t in ring._table[p][q].items():
                out[k] += v * t
        return field.reduce_vec(out)

    def mult_matrix() -> Matrix:
        images = [multiply_ambient({c: field.one}) for c in quotient.q_coords]
        return Matrix._trusted(field, tuple(zip(*images)), len(images))

    return SimpleNamespace(ring=ring, n=n, dim=quotient.dim, q_coords=quotient.q_coords,
                           project=quotient.project, unit_class=unit_class,
                           multiply_ambient=multiply_ambient, mult_matrix=mult_matrix)


def psi_pair(pa: PartialAction, g, u, w) -> tuple:
    """psi(u d_g (x) w d_h) = u alpha_g(w 1_{g^-1}) from the definition; the
    stored map `alpha(g, .)` is alpha_g(. 1_{g^-1}) on all of A."""
    return pa.algebra.multiply(u, pa.alpha(g, w))


def factoring_failures(ring) -> list:
    """The composable basis pairs (p, q) whose table product b_p b_q is not
    their psi-image y at d_{gh}, y d_{gh} as a {morphism: coefficient} dict
    ([] if none): multiplication factors through the psi normal form exactly
    when there are none.  A psi-image outside A_{gh} fails, since every
    table product lies in A_{gh} d_{gh}."""
    pa = ring.action
    g_oid = pa.groupoid
    failures = []
    for p, (g, u) in enumerate(ring.basis):
        for q, (h, w) in enumerate(ring.basis):
            if g_oid.src[g] != g_oid.tgt[h]:
                continue
            y = psi_pair(pa, g, u, w)
            expected = {g_oid.compose[(g, h)]: y} if any(y) else {}
            if from_coords(ring, ring.product_coords(p, q)) != expected:
                failures.append((p, q))
    return failures


def column_pairs(tensor, ring) -> tuple:
    """The ambient coordinate p * ring.dim + q of each column of `tensor` (a
    `TensorOverA`): pair j of block (g, g^-1) is the basis pair
    (b_p, b_q) = (ideal(g).rows[i], ideal(g^-1).rows[l]), j = i * dim A_{g^-1} + l."""
    inv = ring.action.groupoid.inv
    out = []
    for g, j, _ in tensor.columns:
        i, l = divmod(j, ring.action.ideal(inv(g)).dim)
        out.append((ring.starts[g] + i) * ring.dim + ring.starts[inv(g)] + l)
    return tuple(out)


def side_matrix(square, **side) -> Matrix:
    """x |-> b x (left=b) or x b (right=b) in the coordinates of the
    `reference_square`: column k is the projected product at the lift of
    quotient basis vector k."""
    field = square.ring.field
    cols = [square.project(ambient_product(square, {c: field.one}, **side))
            for c in square.q_coords]
    return Matrix._trusted(field, tuple(zip(*cols)), len(cols))


def dense_oracle_system(square):
    """Reference for `oracle_separability`: the dense system as the
    arguments (field, rows, rhs, ncols) of `solve_affine`.

    The rows of the `reference_square`'s `mult_matrix` with the ring unit as
    right-hand side, then, for every ring basis element b, all `square.dim`
    rows of x |-> b x - x b in its coordinates, zero and repeated rows
    included.
    """
    ring = square.ring
    field = ring.field
    rows = list(square.mult_matrix().data)
    rhs = list(ring.unit())
    for p in range(ring.dim):
        b = ring.basis_coords(p)
        rows.extend(msub(side_matrix(square, left=b), side_matrix(square, right=b)).data)
        rhs.extend([field.zero] * square.dim)
    return field, rows, rhs, square.dim


def full_oracle_system(square):
    """Reference for `oracle_separability`: the system over the whole
    `reference_square` as the arguments (field, rows, rhs, ncols) of
    `solve_affine`, as the oracle solved it before it kept only the blocks
    (g, g^-1).

    The rows of `mult_matrix` with the ring unit as right-hand side, then,
    for each ring basis element b_p, the nonzero rows of x |-> b_p x - x b_p
    in quotient coordinates over every column, each distinct row once: the
    left leg b_p b_p0 reads the ring table at (p, p0), the right leg b_q0 b_p
    at (q0, p), and each output pair is projected into the quotient.
    """
    ring = square.ring
    field = ring.field
    zero = field.zero
    table = ring._table
    n, dim, project = square.n, square.dim, square.project
    quotient: dict = {}

    def q_of(c):
        if c not in quotient:
            quotient[c] = [(j, v) for j, v in enumerate(project({c: field.one})) if v]
        return quotient[c]

    rows = list(square.mult_matrix().data)
    rhs = list(ring.unit())
    commutators: dict = {}
    for p in range(ring.dim):
        acc: dict = {}
        for k, c in enumerate(square.q_coords):
            p0, q0 = divmod(c, n)
            for i, t in table[p][p0].items():
                for j, s in q_of(i * n + q0):
                    acc[j, k] = acc.get((j, k), zero) + t * s
            for i, t in table[q0][p].items():
                for j, s in q_of(p0 * n + i):
                    acc[j, k] = acc.get((j, k), zero) - t * s
        out: dict = {}
        for (j, k), v in field.reduce_dict(acc).items():
            out.setdefault(j, [zero] * dim)[k] = v
        commutators.update(dict.fromkeys(tuple(out[j]) for j in sorted(out)))
    rows.extend(commutators)
    rhs.extend([zero] * len(commutators))
    return field, rows, rhs, dim


def reference_ring_generators(pa: PartialAction) -> list:
    """Reference for `ring_generators`: the full list it was cut from, in
    morphism order, a d_{id_e} for each a in ideal(id_e).rows and c_k 1_k d_k
    for every other arrow k with A_k != 0, c_k the common denominator of
    1_k.  They generate A*G as an algebra, since (u d_{id_t(k)})(1_k d_k) =
    u d_k for u in A_k."""
    field = pa.algebra.field
    g_oid = pa.groupoid
    gens = []
    for k in g_oid.morphisms:
        if g_oid.is_identity(k):
            gens.extend((k, a) for a in pa.ideal(k).rows)
        elif any(pa.idem(k)):
            c = field.denominator((pa.idem(k),))
            gens.append((k, field.reduce_vec(c * x for x in pa.idem(k))))
    return gens


def basis_oracle_solutions(pa: PartialAction) -> AffineSolutionSet:
    """Reference for `oracle_separability`'s solution set: the same system,
    with the commutator rows of every ring basis element v d_k (v in
    ideal(k).rows) instead of those of the ring's generators."""
    tensor = tensor_over(pa)
    field = pa.algebra.field
    rows = tensor.mult_matrix()
    rhs = [c for e in pa.groupoid.objects for c in pa.obj_idem(e)]
    for k in pa.groupoid.morphisms:
        for v in pa.ideal(k).rows:
            rows.extend(tensor.commutator_rows(k, v).values())
    rhs.extend([field.zero] * (len(rows) - len(rhs)))
    return solve_affine(field, rows, rhs, len(tensor.columns))


def product_classes(groupoid) -> dict:
    """Morphism -> its conjugacy class, the least morphism in groupoid order
    among those linked to it by x ~ k x k^-1 (x a loop at the source of k)."""
    order = {g: i for i, g in enumerate(groupoid.morphisms)}
    parent = {g: g for g in groupoid.morphisms}

    def find(g):
        while parent[g] != g:
            g = parent[g]
        return g

    for k in groupoid.morphisms:
        src = groupoid.src[k]
        for x in groupoid.hom_set(src, src):
            conj = groupoid.compose[(groupoid.compose[(k, x)], groupoid.inv(k))]
            a, b = sorted((find(x), find(conj)), key=order.get)
            parent[b] = a
    return {g: find(g) for g in groupoid.morphisms}


def column_products(square) -> list:
    """The product gh of the block (g, h) of each quotient coordinate of the
    `reference_square`."""
    ring = square.ring
    compose = ring.action.groupoid.compose
    return [compose[(ring.basis[p][0], ring.basis[q][0])]
            for p, q in (divmod(c, square.n) for c in square.q_coords)]


# -- the square-based certificate reference ------------------------------------------

def pure_tensor(square, xc, yc) -> dict:
    """Sparse ambient vector of x (x) y for ring coordinates xc, yc."""
    ys = [(q, d) for q, d in enumerate(yc) if d]
    return square.ring.field.reduce_dict(
        {p * square.n + q: c * d for p, c in enumerate(xc) if c for q, d in ys})


def ambient_product(square, x, left=None, right=None) -> dict:
    """left x right for a sparse ambient vector x and ring coordinates `left`,
    `right` (None for 1): the sum over x's terms v e_p (x) e_q of
    v `pure_tensor(left e_p, e_q right)`."""
    ring = square.ring
    out: dict = {}
    for c, v in x.items():
        p, q = divmod(c, square.n)
        ep, eq = ring.basis_coords(p), ring.basis_coords(q)
        ep = ep if left is None else ring.mul_coords(left, ep)
        eq = eq if right is None else ring.mul_coords(eq, right)
        for k, t in pure_tensor(square, ep, eq).items():
            out[k] = out.get(k, ring.field.zero) + v * t
    return ring.field.reduce_dict(out)


def lift(square, qcoords) -> dict:
    """Canonical ambient representative (sparse) of quotient coordinates."""
    return {square.q_coords[k]: v for k, v in enumerate(qcoords) if v}


def square_certificate(square, a) -> SimpleNamespace:
    """Reference for `build_certificate`: x built and checked in the square.

    x = sum_g alpha_g(a 1_{g^-1}) d_g (x) 1_{g^-1} d_{g^-1} is summed as
    pure tensors in the ambient space of the `reference_square` and
    projected; m(x) is read off the ring table and bx, xb for each basis
    element b as sums of pure tensors, projected back.  No witness is
    required.  Returns x's quotient coordinates (`element`), the canonical
    `summands` of its lift and the two `checks`.
    """
    ring = square.ring
    pa = ring.action
    field = ring.field
    project = square.project
    ambient: dict = {}
    for g in pa.groupoid.morphisms:
        ginv = pa.groupoid.inv(g)
        left = ring_coords(ring, {g: pa.alpha(g, a)})
        right = ring_coords(ring, {ginv: pa.idem(ginv)})
        for c, v in pure_tensor(square, left, right).items():
            ambient[c] = ambient.get(c, field.zero) + v
    q = project(field.reduce_dict(ambient))
    lifted = lift(square, q)
    summands = []
    for c in sorted(lifted):
        p, r = divmod(c, square.n)
        (g, u), (h, w) = ring.basis[p], ring.basis[r]
        summands.append((g, field.reduce_vec(lifted[c] * x for x in u), h, w))
    checks = {
        "multiplies_to_unit": square.multiply_ambient(lifted) == ring.unit(),
        "commutes_with_basis": all(
            project(ambient_product(square, lifted, left=b)) ==
            project(ambient_product(square, lifted, right=b))
            for b in map(ring.basis_coords, range(ring.dim))),
    }
    return SimpleNamespace(element=q, summands=tuple(summands), checks=checks)


def psi_of(square, qcoords) -> dict:
    """The nonzero psi blocks of an element of the `reference_square` given
    in quotient coordinates: each lift b_p (x) b_q adds its `psi_pair` to
    its block (g, h)."""
    ring = square.ring
    field = ring.field
    out: dict = {}
    for k, v in enumerate(qcoords):
        if v:
            p, q = divmod(square.q_coords[k], square.n)
            (g, u), (h, w) = ring.basis[p], ring.basis[q]
            y = field.reduce_vec(v * x for x in psi_pair(ring.action, g, u, w))
            out[g, h] = vadd(field, out[g, h], y) if (g, h) in out else y
    return {pair: y for pair, y in out.items() if any(y)}


def opposite_oracle(pa: PartialAction) -> OracleResult:
    """The oracle's result on pa with the opposite answer planted: no
    solution where it finds one, and the zero element, whose extracted
    witness is 0, where it finds none."""
    real = oracle_separability(pa)
    field = pa.algebra.field
    particular = None if real.separable else (field.zero,) * len(real.tensor.columns)
    return OracleResult(not real.separable, real.tensor,
                        AffineSolutionSet(particular, (), field))


def column_blocks(tensor, x) -> dict:
    """The nonzero psi blocks of an oracle solution x, in the column
    coordinates of `tensor` (a `TensorOverA`): block (g, g^-1) sums x_c y_c
    over its columns."""
    field = tensor.action.algebra.field
    inv = tensor.action.groupoid.inv
    out: dict = {}
    for c, (g, _, y) in zip(x, tensor.columns):
        if c:
            y = field.reduce_vec(c * t for t in y)
            out[g, inv(g)] = vadd(field, out[g, inv(g)], y) if (g, inv(g)) in out else y
    return {pair: y for pair, y in out.items() if any(y)}


# -- the trace matrices as sums of the stored maps ----------------------------------------

def reference_trace_sum(pa: PartialAction, arrows) -> Matrix:
    """The sum of the stored maps of `arrows`, which computes the trace
    a |-> sum of alpha_g(a 1_{g^-1}) matrix by matrix."""
    m = zero_matrix(pa.algebra.field, pa.algebra.dim, pa.algebra.dim)
    for g in arrows:
        m = madd(m, pa.matrix(g))
    return m


# -- the trace invariant suite as matrix identities ---------------------------------------

def reference_invariant_subring(pa: PartialAction, i, j) -> Echelon:
    """The invariant subring {a : alpha_g(a 1_{g^-1}) = a 1_g for every arrow
    g from i to j}: the kernel of the stacked dense differences
    M_g - R_{1_g}, all of A when there is no such arrow."""
    alg = pa.algebra
    rows = []
    for g in pa.groupoid.hom_set(i, j):
        rows.extend(msub(pa.matrix(g), alg.right_mul_matrix(pa.idem(g))).data)
    return kernel(alg.field, rows, alg.dim)


def reference_trace_invariant_suite(pa: PartialAction) -> dict:
    """The six identities the trace maps of a valid action obey (proved from
    the axioms in `test_trace_invariant_suite` of test_separability): each
    an equation between dense matrix products (`matmul`), on the trace
    matrices summed from the stored maps (`reference_trace_sum`), with the
    left and right multiplication matrices L_x and R_x of A."""
    alg = pa.algebra
    g_oid = pa.groupoid
    checks = dict.fromkeys(("trace_restricts_to_source_ideal", "trace_image_in_target_ideal",
                            "trace_image_isotropy_invariant",
                            "trace_invariant_bimodule_linear",
                            "total_trace_is_sum_of_object_traces",
                            "trace_translation_along_arrows"), True)
    for cls in g_oid.connected_components().classes:
        for i in cls:
            for j in cls:
                t = reference_trace_sum(pa, g_oid.hom_set(i, j))
                if matmul(t, alg.right_mul_matrix(pa.obj_idem(i))) != t:
                    checks["trace_restricts_to_source_ideal"] = False
                target = alg.ideal_basis(pa.obj_idem(j))
                try:
                    for c in range(alg.dim):
                        span_coords(target, tuple(r[c] for r in t.data))
                except LinalgError:
                    checks["trace_image_in_target_ideal"] = False
                for h in g_oid.hom_set(j, j):
                    if matmul(pa.matrix(h), t) != matmul(alg.right_mul_matrix(pa.idem(h)), t):
                        checks["trace_image_isotropy_invariant"] = False
                for x in reference_invariant_subring(pa, i, j).rows:
                    for m in (left_mul_matrix(alg, x), alg.right_mul_matrix(x)):
                        if matmul(t, m) != matmul(m, t):
                            checks["trace_invariant_bimodule_linear"] = False
    into = {j: reference_trace_sum(pa, g_oid.arrows_into(j)) for j in g_oid.objects}
    acc = zero_matrix(alg.field, alg.dim, alg.dim)
    for t in into.values():
        acc = madd(acc, t)
    if acc != reference_trace_sum(pa, g_oid.morphisms):
        checks["total_trace_is_sum_of_object_traces"] = False
    for g in g_oid.morphisms:
        ti, tj = into[g_oid.src[g]], into[g_oid.tgt[g]]
        if matmul(pa.matrix(g), ti) != matmul(alg.right_mul_matrix(pa.idem(g)), tj):
            checks["trace_translation_along_arrows"] = False
    return checks


# -- the certificate reference with the witness's own denominators ------------------------

def reference_is_witness(pa: PartialAction, a) -> bool:
    """a is central and t_e(a) = 1_e at every object e."""
    return pa.algebra.commutes_with_all(a) and all(
        trace_into(pa, e).apply(a) == pa.obj_idem(e) for e in pa.groupoid.objects)


def greedy_psi_block(pa: PartialAction, g, h) -> tuple:
    """Reference for the first four parts of `psi_block`, (images, kinds,
    free, pivots): the images alone go into the elimination, with no tag
    columns, and a pair is free when its image enlarged their span, in
    the dense elimination `DenseEchelonizer`."""
    alg = pa.algebra
    moved = [pa.alpha(g, w) for w in pa.ideal(h).rows]
    images, kinds = [], []
    for u in pa.ideal(g).rows:
        for m in moved:
            y = alg.multiply(u, m)
            if y not in images:
                images.append(y)
            kinds.append(images.index(y))
    ech = DenseEchelonizer(alg.field, alg.dim)
    free = []
    tried = set()
    for j in range(len(kinds) - 1, -1, -1):
        k = kinds[j]
        if k not in tried:
            tried.add(k)
            if any(images[k]) and ech.insert(images[k]):
                free.append(j)
    return tuple(images), tuple(kinds), tuple(reversed(free)), tuple(ech.pivots)


def psi_coords(field, pivots, basis, vectors) -> Matrix:
    """Reference for the `inverse` of `psi_block`: the coordinates over
    `basis` (rows) of each vector in its span, by a second elimination.

    With B and Y the basis and the vectors read at the `pivots` of their
    span, the coordinates X solve X B = Y; B is invertible, so the reduced
    echelon form of [B^T | Y^T] is [I | X^T], one elimination.
    """
    n = len(pivots)
    red = echelon(field, (tuple(b[p] for b in basis) + tuple(y[p] for y in vectors)
                          for p in pivots), n + len(vectors))
    return Matrix._trusted(field, tuple(tuple(r[n + k] for r in red.rows)
                                        for k in range(len(vectors))), n)


def pair_sum_tensor_dim(pa: PartialAction) -> int:
    """Reference for `psi_tensor_dim`: the sum of dim A 1_g 1_{gh} over every
    composable pair (g, h), one term per pair."""
    alg = pa.algebra
    g_oid = pa.groupoid

    def meet(e, f) -> tuple:
        return e if e == f else alg.multiply(e, f)

    return sum(alg.ideal_basis(meet(pa.idem(g), pa.idem(g_oid.compose[(g, h)]))).dim
               for g, h in g_oid.composable_pairs())


def cut_component_family(pa: PartialAction, cls, solve_at) -> AffineSolutionSet:
    """Reference for `ComponentVerdict.witness_family`: the trace system of
    `solve_at` over the center of A, its solutions cut down by u, the sum of
    the 1_f over `cls`, and put in canonical form by a fresh elimination,
    whether or not u is the unit."""
    alg = pa.algebra
    field = alg.field
    center = alg.center_basis()
    cmat = from_cols(field, center.rows)
    rows: list = []
    rhs: list = []
    for f in solve_at:
        rows.extend(matmul(trace_into(pa, f), cmat).data)
        rhs.extend(pa.obj_idem(f))
    sol = solve_affine(field, rows, rhs, cmat.ncols)
    if sol.is_empty:
        return sol
    u = alg.zero()
    for f in cls:
        u = vadd(field, u, pa.obj_idem(f))

    def cut(c):
        return alg.multiply(cmat.apply(c), u)

    ke = echelon(field, [cut(k) for k in sol.kernel_basis], alg.dim)
    return AffineSolutionSet(ke.reduce(cut(sol.particular)), ke.rows, field)


def reference_build_certificate(pa: PartialAction, a,
                                family: AffineSolutionSet | None = None
                                ) -> SeparabilityCertificate:
    """Reference for `build_certificate`: the witness check through the dense
    `trace_into` matrices, and the blocks, checks and coordinates on a and
    its blocks alpha_g(a 1_{g^-1}) as they are, denominators and all."""
    pa.ensure_valid()
    pa.require_decomposition()
    alg = pa.algebra
    a = alg.element(a)
    if not reference_is_witness(pa, a):
        raise WitnessInvalid("witness is not central with t_e(a) = 1_e at every object")
    blocks = idempotent_blocks(pa, a)
    checks = {"witness_central": True, "witness_traces": True,
              **reference_separability_checks(pa, blocks)}
    summands = []
    for (g, h), y in blocks.items():
        images, kinds, free, pivots, _ = psi_block(pa, g, h)
        basis = [images[kinds[f]] for f in free]
        us, ws = pa.ideal(g).rows, pa.ideal(h).rows
        for f, c in zip(free, psi_coords(alg.field, pivots, basis, [y]).data[0]):
            if c:
                i, j = divmod(f, len(ws))
                summands.append((g, alg.field.reduce_vec(c * x for x in us[i]), h, ws[j]))
    if family is None:
        family = AffineSolutionSet(a, (), alg.field)
    return SeparabilityCertificate(a, family, pair_sum_tensor_dim(pa), blocks,
                                   tuple(summands), checks)


def psi_products(pa: PartialAction, blocks) -> dict:
    """m(x) as {morphism: coefficient} for x given by its psi blocks: block
    (g, h) y maps to y d_{gh}, summed per morphism, zero sums dropped."""
    field = pa.algebra.field
    out: dict = {}
    for pair, y in blocks.items():
        gh = pa.groupoid.compose[pair]
        out[gh] = vadd(field, out[gh], y) if gh in out else y
    return {g: v for g, v in out.items() if any(v)}


def commutator_sides(pa: PartialAction, k, v, blocks) -> tuple:
    """(b x, x b) for b = v d_k and x given by its psi blocks (g, g^-1), each
    as its nonzero psi blocks: the left and the right terms of
    `commutator_terms`, summed per output block."""
    field = pa.algebra.field
    sides: tuple = ({}, {})
    for (g, _), y in blocks.items():
        for side, term in zip(sides, commutator_terms(pa, k, v, g, y)):
            if term is not None:
                out, z = term
                side[out] = vadd(field, side[out], z) if out in side else z
    return tuple({out: z for out, z in side.items() if any(z)} for side in sides)


def reference_separability_checks(pa: PartialAction, blocks) -> dict:
    """m(x) = 1 and bx = xb for every ring basis element b, not only the
    generators, for the tensor element x given by its psi blocks (g, g^-1):
    m through the groupoid's composition, and bx, xb summed per output
    block (`commutator_sides`)."""
    g_oid = pa.groupoid
    unit = {g_oid.identity[e]: pa.obj_idem(e) for e in g_oid.objects}
    return {
        "multiplies_to_unit": psi_products(pa, blocks) == {
            g: v for g, v in unit.items() if any(v)},
        "commutes_with_basis": all(
            left == right for left, right in (
                commutator_sides(pa, k, v, blocks)
                for k in g_oid.morphisms for v in pa.ideal(k).rows)),
    }


def changed_basis(alg: Algebra, rng) -> tuple:
    """(B, to_new, to_old): alg on the basis p_0..p_{n-1}, the rows of a
    random invertible matrix P, and the maps x -> x P^-1 and x -> x P between
    old and new coordinates; p_i p_j and the unit in new coordinates are the
    old ones times P^-1."""
    field, n = alg.field, alg.dim
    while True:
        p = Matrix(field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if rank(p) == n:
            break
    to_new = from_cols(field, gauss_jordan_inverse(field, p.data))  # x -> x P^-1
    structure = [[to_new.apply(alg.multiply(u, v)) for v in p.data] for u in p.data]
    return (Algebra(field, structure, to_new.apply(alg.unit)), to_new,
            from_cols(field, p.data))


def changed_basis_action(pa: PartialAction, rng) -> PartialAction:
    """pa written over A in a random basis (`changed_basis`): each 1_g in the
    new coordinates and each alpha_g conjugated into them.  The change of
    basis is an algebra isomorphism, so validity, verdicts and the
    dimensions of every ideal and block are those of pa."""
    alg, to_new, to_old = changed_basis(pa.algebra, rng)
    morphisms = pa.groupoid.morphisms
    return PartialAction(pa.groupoid, alg, {g: to_new.apply(pa.idem(g)) for g in morphisms},
                         {g: matmul(matmul(to_new, pa.matrix(g)), to_old) for g in morphisms})


# -- the isotropy-ring conjugation reference ------------------------------------------

def ring_isotropy_iso(pa: PartialAction, arrow) -> SimpleNamespace:
    """The conjugation u d_g |-> alpha_l(u) d_{l g l^-1} for an arrow l:
    e_i -> e_j, checked between the skew rings of the two isotropy actions
    (`restricted_action` on one object, echelon coordinates of A_{e_i} and
    A_{e_j}), one ring per end.  On a valid global action every check holds
    (the proof is in `test_psi_conjugation_is_an_isomorphism_on_the_global_corpus`).

    Returns the `matrix` and `checks` to compare, and the two rings.
    """
    g_oid = pa.groupoid
    e_i, e_j = g_oid.src[arrow], g_oid.tgt[arrow]
    src_ring = build_skew_ring(restricted_action(pa, (e_i,)))
    dst_ring = build_skew_ring(restricted_action(pa, (e_j,)))
    src_basis = pa.algebra.ideal_basis(pa.obj_idem(e_i))
    dst_basis = pa.algebra.ideal_basis(pa.obj_idem(e_j))
    linv = g_oid.inv(arrow)
    cols = []
    for g, u_local in src_ring.basis:
        moved = pa.alpha(arrow, src_basis.combine(u_local))
        conj = g_oid.compose[(g_oid.compose[(arrow, g)], linv)]
        col = [dst_ring.field.zero] * dst_ring.dim
        for k, c in dst_ring._scatter(conj, span_coords(dst_basis, moved)).items():
            col[k] = c
        cols.append(col)
    m = from_cols(dst_ring.field, cols)
    mult_ok = True
    for p in range(src_ring.dim):
        for q in range(src_ring.dim):
            lhs = m.apply(src_ring.product_coords(p, q))
            rhs = dst_ring.mul_coords(m.apply(src_ring.basis_coords(p)),
                                      m.apply(src_ring.basis_coords(q)))
            if lhs != rhs:
                mult_ok = False
    checks = {
        "bijective": rank(m) == src_ring.dim == dst_ring.dim,
        "multiplicative": mult_ok,
        "unit_to_unit": m.apply(src_ring.unit()) == dst_ring.unit(),
    }
    return SimpleNamespace(source_ring=src_ring, target_ring=dst_ring, matrix=m,
                           checks=checks)


# -- test-only constructions -----------------------------------------------------------

def dense_center_basis(alg) -> Echelon:
    """Reference for `Algebra.center_basis`: the kernel of the stacked
    differences L_b - R_b of the left and right multiplication matrices of
    every basis element b."""
    rows = []
    for b in alg._basis:
        delta = msub(left_mul_matrix(alg, b), alg.right_mul_matrix(b))
        rows.extend(delta.data)
    return kernel(alg.field, rows, alg.dim)


# -- dense matrix arithmetic, for references and fixtures ------------------------------

def identity_matrix(field: Field, n: int) -> Matrix:
    return Matrix._trusted(field, tuple(tuple(field.one if i == j else field.zero
                                              for j in range(n)) for i in range(n)), n)


def zero_matrix(field: Field, nrows: int, ncols: int) -> Matrix:
    return Matrix._trusted(field, ((field.zero,) * ncols,) * nrows, ncols)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """a b: each row of a times the dense rows of b."""
    if a.ncols != b.nrows:
        raise DimensionMismatch("%dx%d times %dx%d" % (a.nrows, a.ncols, b.nrows, b.ncols))
    field = a.field
    out = []
    for r in a.data:
        acc = [field.zero] * b.ncols
        for x, row in zip(r, b.data):
            if x:
                for j, y in enumerate(row):
                    if y:
                        acc[j] += x * y
        out.append(field.reduce_vec(acc))
    return Matrix._trusted(field, tuple(out), b.ncols)


def _entrywise(a: Matrix, b: Matrix, op) -> Matrix:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise DimensionMismatch("%dx%d and %dx%d" % (a.nrows, a.ncols, b.nrows, b.ncols))
    return Matrix._trusted(a.field, tuple(a.field.reduce_vec(map(op, r, s))
                                          for r, s in zip(a.data, b.data)), a.ncols)


def madd(a: Matrix, b: Matrix) -> Matrix:
    return _entrywise(a, b, lambda x, y: x + y)


def msub(a: Matrix, b: Matrix) -> Matrix:
    return _entrywise(a, b, lambda x, y: x - y)


def left_mul_matrix(alg: Algebra, x) -> Matrix:
    """Matrix of y -> x y on coefficient columns."""
    cols = [alg.multiply(x, alg.basis_vector(c)) for c in range(alg.dim)]
    return Matrix._trusted(alg.field, tuple(zip(*cols)), alg.dim)


def from_cols(field: Field, cols) -> Matrix:
    """The matrix whose columns are `cols`, each entry coerced; with no
    rows when the columns are empty."""
    return Matrix(field, list(zip(*cols)), ncols=len(cols))


def rank(m: Matrix) -> int:
    """The dimension of the row space of m."""
    return echelon(m.field, m.data, m.ncols).dim


def span_coords(basis: Echelon, v) -> tuple:
    """The coordinates of v over a reduced echelon basis, its entries at the
    pivots, checked by elimination: LinalgError when v is outside the span."""
    if any(basis.reduce(v)):
        raise LinalgError("vector is not in the subspace")
    return tuple(v[p] for p in basis.pivots)


def in_span(basis: Echelon, v) -> bool:
    return not any(basis.reduce(v))


def violation_codes(report: ValidationReport) -> set:
    """The codes of the violations of a report."""
    return {v.code for v in report.violations}


class DenseEchelonizer:
    """Reference for `Echelonizer`: the dense insert it replaced.  Rows are
    tuples kept fully reduced and sorted by pivot; a new row is cleared at
    each pivot in turn, then its leftmost nonzero entry becomes a pivot."""

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list = []
        self.pivots: list = []

    def insert(self, row) -> bool:
        field = self.field
        out = list(row)
        for r, piv in zip(self.rows, self.pivots):
            c = out[piv] if field.p is None else out[piv] % field.p
            if c:
                out = [a - c * b for a, b in zip(out, r)]
        out = field.reduce_vec(out)
        piv = next((j for j, x in enumerate(out) if x), None)
        if piv is None:
            return False
        inv = field.inv(out[piv])
        new = field.reduce_vec(x * inv for x in out)
        for k, r in enumerate(self.rows):
            if r[piv]:
                self.rows[k] = field.reduce_vec(a - r[piv] * b for a, b in zip(r, new))
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, new)
        self.pivots.insert(at, piv)
        return True


def dense_echelon(field: Field, vectors, ncols: int) -> Echelon:
    """Reference for `echelon`: the vectors inserted densely, in the order given."""
    ech = DenseEchelonizer(field, ncols)
    for v in vectors:
        ech.insert(v)
    return Echelon(field, ncols, tuple(ech.rows), tuple(ech.pivots))


def is_reduced_basis(field: Field, vectors, ncols: int) -> bool:
    """Reference for the input `echelon` and `free_basis` settle without an
    elimination: the nonzero vectors, none repeated, are the rows of the
    reduced echelon form of their span."""
    nonzero = [tuple(v) for v in vectors if any(v)]
    return (len(set(nonzero)) == len(nonzero)
            and set(nonzero) == set(dense_echelon(field, nonzero, ncols).rows))


def greedy_free(field: Field, vectors, ncols: int) -> tuple:
    """Reference for the free indices and pivots of `free_basis`: the vectors
    alone go into `DenseEchelonizer`, from the last, and a vector is free when
    it enlarged the span of those after it."""
    ech = DenseEchelonizer(field, ncols)
    free = [i for i in range(len(vectors) - 1, -1, -1) if ech.insert(vectors[i])]
    return tuple(reversed(free)), tuple(ech.pivots)


def gauss_jordan_inverse(field: Field, rows) -> tuple | None:
    """Reference for the `inverse` rows of `free_basis`: the rows of M^-1,
    read off [M | I] reduced densely to [I | M^-1], or None when M is
    singular."""
    n = len(rows)
    red = dense_echelon(field, [tuple(r) + tuple(field.one if i == j else field.zero
                                                 for j in range(n))
                                for i, r in enumerate(rows)], 2 * n)
    if red.pivots != tuple(range(n)):
        return None
    return tuple(r[n:] for r in red.rows)


def matrix_inverse(m: Matrix) -> Matrix:
    """M^-1 by `gauss_jordan_inverse`, for an invertible M."""
    return Matrix._trusted(m.field, gauss_jordan_inverse(m.field, m.data), m.nrows)


def dense_solve_affine(field: Field, rows, rhs, ncols: int) -> AffineSolutionSet:
    """Reference for `solve_affine`: [A | b] reduced densely; the particular
    solution is read at the pivots, the kernel is spanned by one vector per
    free column, and both are put in canonical form densely."""
    red = dense_echelon(field, [tuple(r) + (b,) for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in red.pivots:
        return AffineSolutionSet(None, (), field)
    part = [field.zero] * ncols
    vecs = []
    for r, p in zip(red.rows, red.pivots):
        part[p] = r[ncols]
    for f in range(ncols):
        if f not in red.pivots:
            v = [field.zero] * ncols
            v[f] = field.one
            for r, p in zip(red.rows, red.pivots):
                v[p] = -r[f]
            vecs.append(field.reduce_vec(v))
    ke = dense_echelon(field, vecs, ncols)
    return AffineSolutionSet(ke.reduce(part), ke.rows, field)


def dense_nonassociative_triple(table, field):
    """Reference audit: the first basis triple (i, j, k) in lexicographic
    order where (b_i b_j) b_k != b_i (b_j b_k), scanning all dim^3 triples
    and skipping only those where b_i b_j and b_j b_k both vanish."""
    zero = field.zero

    def combine(terms) -> dict:
        out: dict = {}
        for c, t in terms:
            for k, tk in t.items():
                out[k] = out.get(k, zero) + c * tk
        return field.reduce_dict(out)

    for i, row_i in enumerate(table):
        for j, ij in enumerate(row_i):
            for k, jk in enumerate(table[j]):
                if not ij and not jk:
                    continue
                left = combine((c, table[m][k]) for m, c in ij.items())
                right = combine((c, row_i[m]) for m, c in jk.items())
                if left != right:
                    return i, j, k
    return None


def dense_table_product(table, x, y, field) -> tuple:
    """Reference product: sum over every (i, j) of x_i y_j b_i b_j."""
    out = [field.zero] * len(table)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, c in table[i][j].items():
                out[k] += xi * yj * c
    return field.reduce_vec(out)


def law_failures(alg) -> list:
    """Reference audit of the laws `Algebra(...)` checks, on `alg`'s table:
    ("unit", i) for each b_i with u b_i != b_i or b_i u != b_i, then
    ("associativity", i, j, k) for the first failing basis triple."""
    field, table = alg.field, alg._table
    out = []
    for i in range(alg.dim):
        b = tuple(field.one if k == i else field.zero for k in range(alg.dim))
        if (dense_table_product(table, alg.unit, b, field) != b
                or dense_table_product(table, b, alg.unit, field) != b):
            out.append(("unit", i))
    bad = dense_nonassociative_triple(table, field)
    if bad is not None:
        out.append(("associativity",) + bad)
    return out


def full_scan_validate_groupoid(g: Groupoid) -> ValidationReport:
    """Reference for `validate_groupoid`: the same laws in the same order,
    finding the composable pairs and triples by scanning all |G|^2 pairs and
    |G|^3 triples."""
    bad = []

    def flag(code, msg):
        bad.append(Violation(code, msg))

    for e in g.objects:
        i = g.identity.get(e)
        if i is None or i not in g.src:
            flag("BadIdentity", "object %r has no identity morphism" % (e,))
        elif g.src[i] != e or g.tgt[i] != e:
            flag("BadIdentity", "identity of %r has wrong endpoints" % (e,))
    for m in g.morphisms:
        if m not in g.src or m not in g.tgt:
            flag("BadComposition", "morphism %r lacks endpoints" % (m,))
            continue
        if g.src[m] not in g.identity or g.tgt[m] not in g.identity:
            flag("BadComposition", "morphism %r touches unknown object" % (m,))
    if bad:
        return ValidationReport(tuple(bad))

    morph = set(g.morphisms)
    for (a, b), c in g.compose.items():
        if a not in morph or b not in morph or c not in morph:
            flag("BadComposition", "table entry (%r,%r)->%r uses unknown morphism" % (a, b, c))
            continue
        if g.src[a] != g.tgt[b]:
            flag("BadComposition", "product %r*%r defined but not composable" % (a, b))
        elif g.tgt[c] != g.tgt[a] or g.src[c] != g.src[b]:
            flag("BadComposition", "product %r*%r has wrong endpoints" % (a, b))
    for a in g.morphisms:
        for b in g.morphisms:
            if g.src[a] == g.tgt[b] and (a, b) not in g.compose:
                flag("BadComposition", "composable pair (%r,%r) missing from table" % (a, b))
    if any(v.code == "BadComposition" for v in bad):
        return ValidationReport(tuple(bad))

    for m in g.morphisms:
        i_t, i_s = g.identity[g.tgt[m]], g.identity[g.src[m]]
        if g.compose.get((i_t, m)) != m or g.compose.get((m, i_s)) != m:
            flag("BadIdentity", "identity law fails at %r" % (m,))
    for m in g.morphisms:
        n = g.inverse.get(m)
        if n is None:
            flag("MissingInverse", "morphism %r has no inverse" % (m,))
            continue
        if g.src[n] != g.tgt[m] or g.tgt[n] != g.src[m]:
            flag("MissingInverse", "inverse of %r has wrong endpoints" % (m,))
            continue
        if (g.compose.get((m, n)) != g.identity[g.tgt[m]]
                or g.compose.get((n, m)) != g.identity[g.src[m]]):
            flag("MissingInverse", "%r and %r do not compose to identities" % (m, n))
    for a in g.morphisms:
        for b in g.morphisms:
            if g.src[a] != g.tgt[b]:
                continue
            ab = g.compose[(a, b)]
            for c in g.morphisms:
                if g.src[b] != g.tgt[c]:
                    continue
                if g.compose[(ab, c)] != g.compose[(a, g.compose[(b, c)])]:
                    flag("NonAssociative",
                         "(%r*%r)*%r != %r*(%r*%r)" % (a, b, c, a, b, c))
    return ValidationReport(tuple(bad))


def product_commutes_with_all(alg, x) -> bool:
    """Reference for `Algebra.commutes_with_all`: x b == b x for every basis
    vector b, by products, on any algebra."""
    return all(alg.multiply(x, b) == alg.multiply(b, x) for b in alg._basis)


def product_central_idempotent(alg, e) -> bool:
    """Reference for `Algebra.is_central_idempotent`: e e == e and e commutes
    with every basis vector, by products."""
    e = tuple(e)
    return alg.multiply(e, e) == e and product_commutes_with_all(alg, e)


def full_scan_validate_partial_action(pa: PartialAction) -> ValidationReport:
    """Reference for `validate_partial_action`: the same axioms in the same
    order and with the same messages, with none of its shortcuts.  Centrality
    is tested by products; every arrow runs the bijection check and the
    multiplicativity check on all ordered pairs of domain rows; the
    pull-back p of each pair is read through the inverse of the restricted
    map of h; and II and III are checked on every composable pair, found by
    scanning all |G|^2 pairs, identities included."""
    g_oid = pa.groupoid
    alg = pa.algebra
    bad = []

    def flag(code, msg):
        bad.append(Violation(code, msg))

    usable = set()
    for g in g_oid.morphisms:
        if not product_central_idempotent(alg, pa.idem(g)):
            flag("NotIdempotentDomain", "1_%s is not a central idempotent" % (g,))
            continue
        e_t = pa.obj_idem(g_oid.tgt[g])
        if (product_central_idempotent(alg, e_t)
                and alg.multiply(pa.idem(g), e_t) != pa.idem(g)):
            flag("NotIdempotentDomain",
                 "A_%s is not contained in the ideal of its target object" % (g,))
            continue
        usable.add(g)
    if usable != set(g_oid.morphisms):
        return ValidationReport(tuple(bad))

    iso_ok = set()
    for g in g_oid.morphisms:
        ginv = g_oid.inverse.get(g)
        if ginv is None or ginv not in pa.idems:
            flag("NotRingIso", "morphism %r has no usable inverse" % (g,))
            continue
        if any(pa.alpha(g, b) != pa.alpha(g, alg.multiply(b, pa.idem(ginv)))
               for b in alg._basis):
            flag("NotRingIso",
                 "map of %s does not annihilate the complement of its domain ideal" % (g,))
            continue
        src, dst = pa.ideal(ginv), pa.ideal(g)
        images = [pa.alpha(g, u) for u in src.rows]
        img_span = echelon(alg.field, images, alg.dim)
        if img_span.dim != src.dim or img_span != dst:
            flag("NotRingIso", "map of %s is not a bijection onto its ideal" % (g,))
            continue
        if not all(pa.alpha(g, alg.multiply(u, v)) == alg.multiply(au, av)
                   for u, au in zip(src.rows, images) for v, av in zip(src.rows, images)):
            flag("NotRingIso", "map of %s is not multiplicative on its ideal" % (g,))
            continue
        iso_ok.add(g)

    for e in g_oid.objects:
        i = g_oid.identity[e]
        if any(pa.alpha(i, u) != u for u in pa.ideal(i).rows):
            flag("IdentityAxiom", "identity map at %r is not the identity on A_%r" % (e, e))
    if iso_ok != set(g_oid.morphisms):
        return ValidationReport(tuple(bad))

    for g in g_oid.morphisms:
        for h in g_oid.morphisms:
            if g_oid.src[g] != g_oid.tgt[h]:
                continue
            gh = g_oid.compose[(g, h)]
            hinv_ideal = pa.ideal(g_oid.inv(h))
            meet = alg.multiply(pa.idem(g_oid.inv(g)), pa.idem(h))
            coords = matrix_inverse(restricted_matrix(pa, h)).apply(
                span_coords(pa.ideal(h), meet))
            p = hinv_ideal.combine(coords)
            if alg.multiply(p, pa.idem(g_oid.inv(gh))) != p:
                flag("AxiomII",
                     "preimage of A_%s^-1 /\\ A_%s under alpha_%s leaves A_(%s)^-1" %
                     (g, h, h, gh))
            elif any(pa.alpha(g, pa.alpha(h, u)) != pa.alpha(gh, alg.multiply(u, p))
                     for u in hinv_ideal.rows):
                flag("AxiomIII", "alpha_%s alpha_%s != alpha_%s on the overlap" % (g, h, gh))
    return ValidationReport(tuple(bad))


class OverlappingObjects(ActionError):
    pass


def glue_components(parts) -> PartialAction:
    """Partial action of the disjoint-union groupoid on the direct-sum algebra."""
    parts = list(parts)
    if not parts:
        raise ActionError("nothing to glue")
    if len(parts) == 1:
        return parts[0]
    field = parts[0].algebra.field
    if any(p.algebra.field != field for p in parts):
        raise ActionError("glued parts must share one field")
    seen_obj: set = set()
    seen_mor: set = set()
    for p in parts:
        if seen_obj & set(p.groupoid.objects) or seen_mor & set(p.groupoid.morphisms):
            raise OverlappingObjects("glued parts share object or morphism names")
        seen_obj |= set(p.groupoid.objects)
        seen_mor |= set(p.groupoid.morphisms)

    objects, morphisms, names = [], [], []
    src, tgt, identity, compose, inverse = {}, {}, {}, {}, {}
    for p in parts:
        g = p.groupoid
        objects.extend(g.objects)
        morphisms.extend(g.morphisms)
        src.update(g.src)
        tgt.update(g.tgt)
        identity.update(g.identity)
        compose.update(g.compose)
        inverse.update(g.inverse)
        names.extend(p.algebra.basis_names)
    union = Groupoid(objects, morphisms, src, tgt, identity, compose, inverse)

    dims = [p.algebra.dim for p in parts]
    total = sum(dims)
    offsets = []
    at = 0
    for d in dims:
        offsets.append(at)
        at += d
    zero = field.zero
    structure = [[[zero] * total for _ in range(total)] for _ in range(total)]
    unit = [zero] * total
    for p, off in zip(parts, offsets):
        a = p.algebra
        for i in range(a.dim):
            unit[off + i] = a.unit[i]
            for j in range(a.dim):
                for k, c in a._table[i][j].items():
                    structure[off + i][off + j][off + k] = c
    if len(set(names)) != total:
        names = ["p%d.%s" % (i, n) for i, p in enumerate(parts)
                 for n in p.algebra.basis_names]
    big = Algebra(field, structure, unit, names)

    def pad_vec(v, off):
        out = [zero] * total
        for i, x in enumerate(v):
            out[off + i] = x
        return tuple(out)

    idems, maps = {}, {}
    for p, off in zip(parts, offsets):
        d = p.algebra.dim
        for g in p.groupoid.morphisms:
            idems[g] = pad_vec(p.idem(g), off)
            m = p.matrix(g)
            block = [[zero] * total for _ in range(total)]
            for i in range(d):
                for j in range(d):
                    block[off + i][off + j] = m.data[i][j]
            maps[g] = Matrix(field, block)
    return PartialAction(union, big, idems, maps)


def intersect(a: Echelon, b: Echelon) -> Echelon:
    """Canonical basis of the intersection of two row spaces."""
    if a.ncols != b.ncols or a.field != b.field:
        raise DimensionMismatch("incompatible subspaces")
    if a.dim == 0 or b.dim == 0:
        return echelon(a.field, [], a.ncols)
    # v = x*A = y*B  <=>  (x, y) in ker [A^T | -B^T]
    field = a.field
    cols = list(a.rows) + [field.reduce_vec(-x for x in r) for r in b.rows]
    vecs = [a.combine(k[: a.dim]) for k in kernel(field, list(zip(*cols)), len(cols)).rows]
    return echelon(a.field, vecs, a.ncols)


# -- the subspace references for the action checks ---------------------------------

def restricted_matrix(pa: PartialAction, g) -> Matrix:
    """The matrix of alpha_g from ideal(g^-1)-coordinates to ideal(g)-coordinates,
    read by elimination (`span_coords`)."""
    src = pa.ideal(pa.groupoid.inv(g))
    dst = pa.ideal(g)
    cols = [span_coords(dst, pa.alpha(g, u)) for u in src.rows]
    return Matrix._trusted(pa.algebra.field, tuple(zip(*cols)), len(cols))


def subspace_validate_partial_action(pa: PartialAction) -> ValidationReport:
    """Reference for `validate_partial_action`: the axioms checked on
    subspaces in canonical bases.  The complement is annihilated as a matrix
    product, and per composable pair (g, h) the ideal basis of the meet
    A_{g^-1} /\\ A_h is pulled back through the restricted inverse of alpha_h,
    tested for membership in A_{(gh)^-1} (axiom II) and moved by alpha_g alpha_h
    and alpha_gh (axiom III)."""
    g_oid = pa.groupoid
    alg = pa.algebra
    bad = []

    def flag(code, msg):
        bad.append(Violation(code, msg))

    usable = set()
    for g in g_oid.morphisms:
        if not alg.is_central_idempotent(pa.idem(g)):
            flag("NotIdempotentDomain", "1_%s is not a central idempotent" % (g,))
            continue
        # A_g must sit inside the object ideal A_{t(g)}
        e_t = pa.obj_idem(g_oid.tgt[g])
        if alg.is_central_idempotent(e_t):
            if alg.multiply(pa.idem(g), e_t) != pa.idem(g):
                flag("NotIdempotentDomain",
                     "A_%s is not contained in the ideal of its target object" % (g,))
                continue
        usable.add(g)
    if usable != set(g_oid.morphisms):
        return ValidationReport(tuple(bad))

    one = alg.unit
    iso_ok = set()
    for g in g_oid.morphisms:
        m = pa.matrix(g)
        ginv = g_oid.inverse.get(g)
        if ginv is None or ginv not in pa.idems:
            flag("NotRingIso", "morphism %r has no usable inverse" % (g,))
            continue
        comp = alg.right_mul_matrix(
            alg.field.reduce_vec(a - b for a, b in zip(one, pa.idem(ginv))))
        if any(map(any, matmul(m, comp).data)):
            flag("NotRingIso",
                 "map of %s does not annihilate the complement of its domain ideal" % (g,))
            continue
        src = pa.ideal(ginv)
        dst = pa.ideal(g)
        images = [pa.alpha(g, u) for u in src.rows]
        img_span = echelon(alg.field, images, alg.dim)
        if img_span.dim != src.dim or img_span != dst:
            flag("NotRingIso", "map of %s is not a bijection onto its ideal" % (g,))
            continue
        hom = all(pa.alpha(g, alg.multiply(u, v)) == alg.multiply(au, av)
                  for u, au in zip(src.rows, images) for v, av in zip(src.rows, images))
        if not hom:
            flag("NotRingIso", "map of %s is not multiplicative on its ideal" % (g,))
            continue
        if src.dim and pa.alpha(g, pa.idem(ginv)) != pa.idem(g):
            flag("NotRingIso", "map of %s does not send 1_%s to 1_%s" % (g, ginv, g))
            continue
        iso_ok.add(g)

    for e in g_oid.objects:
        i = g_oid.identity[e]
        ideal = pa.ideal(i)
        if any(pa.alpha(i, u) != u for u in ideal.rows):
            flag("IdentityAxiom", "identity map at %r is not the identity on A_%r" % (e, e))

    if iso_ok != set(g_oid.morphisms):
        return ValidationReport(tuple(bad))

    # every restricted map is invertible once each morphism passed iso_ok
    inverses = {h: matrix_inverse(restricted_matrix(pa, h)) for h in g_oid.morphisms}
    for g, h in g_oid.composable_pairs():
        gh = g_oid.compose[(g, h)]
        ginv, hinv = g_oid.inv(g), g_oid.inv(h)
        # central idempotents: A*a intersect A*b equals A*(a*b)
        meet = alg.multiply(pa.idem(ginv), pa.idem(h))
        meet_basis = alg.ideal_basis(meet)
        inv_h = inverses[h]
        h_ideal, hinv_ideal = pa.ideal(h), pa.ideal(hinv)
        pulled = [hinv_ideal.combine(inv_h.apply(span_coords(h_ideal, d)))
                  for d in meet_basis.rows]
        target = pa.ideal(g_oid.inv(gh))
        if not all(in_span(target, x) for x in pulled):
            flag("AxiomII",
                 "preimage of A_%s^-1 /\\ A_%s under alpha_%s leaves A_(%s)^-1" %
                 (g, h, h, gh))
            continue
        for x in pulled:
            if pa.alpha(g, pa.alpha(h, x)) != pa.alpha(gh, x):
                flag("AxiomIII", "alpha_%s alpha_%s != alpha_%s on the overlap" % (g, h, gh))
                break
    return ValidationReport(tuple(bad))


def subspace_inverse_consistency(pa: PartialAction) -> bool:
    """The restriction of alpha_{g^-1} inverts the restriction of alpha_g."""
    for g in pa.groupoid.morphisms:
        ginv = pa.groupoid.inv(g)
        a = restricted_matrix(pa, g)
        b = restricted_matrix(pa, ginv)
        n = pa.ideal(ginv).dim
        if matmul(b, a) != identity_matrix(pa.algebra.field, n):
            return False
    return True


def subspace_intersection_transport(pa: PartialAction) -> bool:
    """alpha_g maps A_{g^-1} /\\ A_h onto A_g /\\ A_{gh}, as subspaces."""
    alg = pa.algebra
    for g, h in pa.groupoid.composable_pairs():
        gh = pa.groupoid.compose[(g, h)]
        ginv = pa.groupoid.inv(g)
        lhs_gen = alg.multiply(pa.idem(ginv), pa.idem(h))
        rhs_gen = alg.multiply(pa.idem(g), pa.idem(gh))
        lhs = echelon(alg.field,
                      [pa.alpha(g, d) for d in alg.ideal_basis(lhs_gen).rows],
                      alg.dim)
        if lhs != alg.ideal_basis(rhs_gen):
            return False
    return True


def subspace_composite_restriction(pa: PartialAction) -> bool:
    """alpha_g(alpha_h(a 1_{h^-1}) 1_{g^-1}) == alpha_{gh}(a 1_{(gh)^-1}) 1_g, all a."""
    alg = pa.algebra
    for g, h in pa.groupoid.composable_pairs():
        gh = pa.groupoid.compose[(g, h)]
        lhs = matmul(pa.matrix(g), pa.matrix(h))
        rhs = matmul(alg.right_mul_matrix(pa.idem(g)), pa.matrix(gh))
        if lhs != rhs:
            return False
    return True


def subspace_invariant_suite(pa: PartialAction) -> dict:
    """The three identities every valid action obeys (proved from the axioms
    in `test_invariant_suite_on_known_instances` of test_paction), on
    restricted matrices, echelon spans and dense matrix products."""
    return {
        "inverse_mutual": subspace_inverse_consistency(pa),
        "intersection_transport": subspace_intersection_transport(pa),
        "composite_restriction": subspace_composite_restriction(pa),
    }
