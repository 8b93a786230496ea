"""Trace maps and the separability decision.

The extension A in A*G is separable exactly when, on every connected
component, some central element a satisfies t_i(a) = 1_i for all objects i
(t_i sums alpha_g(a 1_{g^-1}) over arrows with target e_i).  The decision
solves that affine system for each component [e] over Z(A) u_[e], u_[e] the
sum of its object idempotents, in A's own coordinates; a positive answer
yields an explicit separability idempotent in the tensor square, held as
its psi blocks (g, g^-1) and verified against the definition, on the
blocks its printed summands rebuild, with the closed form of b x - x b
that the oracle solves (`skew_ring.commutator_terms`).  Each block and each
component is eliminated once: the certificate reads its summand
coefficients off the tag rows that `psi_block` keeps, and a component's
solution set is canonical as `solve_affine` returns it, mapped through the
center basis, since the rows a 1_f = 0 for the objects f outside the
component cut the center down to Z(A) u_[e] within that one system.
Every system goes to `linalg` as its rows; a subspace comes back as an
`Echelon`.
Over Q a witness usually has denominators (1/2, 1/m), and every cached
product or alpha-image of a `Fraction` vector is slow to hash, so the
witness and certificate checks run on d a instead, d the least common
denominator (d = 1 over GF(p)).  This is exact because d != 0: centrality
and bx = xb are linear and homogeneous in a and x, t_e(a) = 1_e iff
t_e(d a) = d 1_e, and m(x) = 1 iff m(d x) = d 1.  The traces t_e(a) are read
as sums of the kept alpha-images alpha_g(a) over the arrows g into e
(`_trace_image`); the trace matrices of the `traces` report (`trace_into`
and the rest) are those sums on A's basis, kept on the action per tuple of
arrows like its alpha-images, so each t_{ij}, t_j and the total is built
once.  The identities these maps obey on a valid action (each t_{ij}
restricts to A_i, lands in A_j and is linear over the invariants of the
arrows from i to j, and the rest) follow from the axioms that validation
checks, so they are not checked here: the tests keep them, with their
proofs.
`oracle_separability` instead solves the defining conditions m(x) = 1 and
bx = xb directly, not the trace criterion: an independent check of the
criterion and of the certificate, though it shares `psi_block`,
`commutator_terms` and the small generating set of A*G (`ring_generators`,
found once per action) with the certificate: its rows are the
certificate's check written over the unknowns.  The independent
references are the trace decision, which `cross_check` compares it with,
and the tests' square.  A*G is
graded by the morphisms, so that system is block-diagonal over the
conjugacy classes of the products gh of the square's blocks (g, h), and
only the class of identities, the blocks (g, g^-1), has a nonzero
right-hand side (Nastasescu, Van den Bergh and Van Oystaeyen, "Separable
functors applied to graded rings", J. Algebra 123, 1989); the oracle
solves that class alone, in the psi coordinates of `TensorOverA`, ring.dim
unknowns.  No ring table is built for it: that table products factor
through psi is checked only by the tests (`factoring_failures`), and
`skew-table` keeps the ring's associativity audit.
For global actions, `isotropy_transport_psi` checks the conjugation
isomorphism between the isotropy skew group rings A_i * G(e_i) and
A_j * G(e_j) on A's vectors as well, through `skew_ring.skew_product`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (AffineSolutionSet, Matrix, echelon, free_coords, solve_affine,
                     vadd)
from .partial_action import PartialAction
from .skew_ring import (TensorOverA, commutator_terms, psi_block, psi_tensor_dim,
                        ring_generators, skew_product, tensor_over)


class SeparabilityError(Exception):
    pass


class EmptyHomSet(SeparabilityError):
    pass


class NotGlobal(SeparabilityError):
    pass


class WitnessInvalid(SeparabilityError):
    pass


# -- trace maps -----------------------------------------------------------------

def _trace_sum(pa: PartialAction, arrows: tuple) -> Matrix:
    """Sum of alpha_g(a 1_{g^-1}) over `arrows`: column c is `_trace_image` of b_c.
    Kept on the action per tuple of arrows."""
    out = pa._traces.get(arrows)
    if out is None:
        alg = pa.algebra
        cols = [_trace_image(pa, arrows, alg.basis_vector(c)) for c in range(alg.dim)]
        out = pa._traces[arrows] = Matrix._trusted(alg.field, tuple(zip(*cols)), alg.dim)
    return out


def trace_between(pa: PartialAction, i, j) -> Matrix:
    """t_{i,j}: a |-> sum of alpha_g(a 1_{g^-1}) over arrows g from i to j."""
    arrows = pa.groupoid.hom_set(i, j)
    if not arrows:
        raise EmptyHomSet("no arrows from %r to %r (different components)" % (i, j))
    return _trace_sum(pa, arrows)


def trace_into(pa: PartialAction, j) -> Matrix:
    """t_j = sum over sources i of t_{i,j} (arrows with target j)."""
    pa.groupoid.check_object(j)
    return _trace_sum(pa, pa.groupoid.arrows_into(j))


def trace_total(pa: PartialAction) -> Matrix:
    """The full trace: sum of alpha_g(a 1_{g^-1}) over every morphism."""
    return _trace_sum(pa, pa.groupoid.morphisms)


def _trace_image(pa: PartialAction, arrows, v) -> tuple:
    """Sum of alpha_g(v 1_{g^-1}) over `arrows` (zero if there are none), from
    the kept alpha-images."""
    return pa.algebra.field.reduce_vec(
        sum(c) for c in zip(pa.algebra.zero(), *(pa.alpha(g, v) for g in arrows)))


def _scaled(field, c, v) -> tuple:
    """c v for a scalar c; v itself when c = 1.  Only the nonzero entries are
    multiplied: over Q a zero times a `Fraction` is a `Fraction` to reduce."""
    return tuple(v) if c == 1 else field.reduce_vec(c * x if x else x for x in v)


def _cleared(field, a) -> tuple:
    """(d, d a) for d the least common denominator of a."""
    d = field.denominator((a,))
    return d, _scaled(field, d, a)


def _is_scaled_witness(pa: PartialAction, d, a) -> bool:
    """d^-1 a is a witness: a is central and t_e(a) = d 1_e at every object e."""
    g_oid = pa.groupoid
    field = pa.algebra.field
    return pa.algebra.commutes_with_all(a) and all(
        _trace_image(pa, g_oid.arrows_into(e), a) == _scaled(field, d, pa.obj_idem(e))
        for e in g_oid.objects)


def is_witness(pa: PartialAction, a) -> bool:
    """a is central and t_e(a) = 1_e at every object e, checked on d a."""
    return _is_scaled_witness(pa, *_cleared(pa.algebra.field, a))


# -- verdicts and certificates -----------------------------------------------------

@dataclass(frozen=True)
class SeparabilityCertificate:
    """A verified separability idempotent for A inside A*G."""

    witness: tuple                       # central element a with t_i(a) = 1_i
    witness_family: AffineSolutionSet    # all witnesses, in algebra coordinates
    tensor_dim: int                      # dimension of (A*G) (x)_A (A*G)
    blocks: dict                         # (g, g^-1) -> psi-image of the idempotent there
    summands: tuple                      # canonical (g, coeffs, h, coeffs) list
    checks: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True)
class ComponentVerdict:
    objects: tuple
    separable: bool
    witness_family: AffineSolutionSet    # in the full algebra's coordinates
    solved_objects: tuple


@dataclass(frozen=True)
class SeparabilityVerdict:
    separable: bool
    per_component: tuple
    witness: tuple | None
    certificate: SeparabilityCertificate | None


@dataclass(frozen=True)
class OracleResult:
    """The oracle's verdict, its tensor square and its solution set.

    `solutions` is in the column coordinates of `tensor` (`TensorOverA.columns`)
    and is the solution set of the identity class only: A*G is graded by the
    morphisms, the system splits over the conjugacy classes of the products
    gh, and only the blocks (g, g^-1) have a nonzero right-hand side.  Its
    particular solution is that of the whole system on those blocks, which
    is zero off them; its kernel is the part of the whole kernel supported
    on them.
    """

    separable: bool
    tensor: TensorOverA
    solutions: AffineSolutionSet


def _component_family(pa: PartialAction, cls, solve_at) -> AffineSolutionSet:
    """All central a in A_[e] = A u with t_f(a) = 1_f for f in `solve_at`,
    canonical in A's coordinates; u is the sum of 1_f over the component `cls`.

    The unknowns are the coordinates c of a = sum c_i z_i over the (cached)
    center basis z_1, ..., z_r, and the rows are the coordinates in A of
    t_f(a) = 1_f for each f in `solve_at` and of a 1_f = 0 for each object f
    outside the component; a lone component adds no row of the second kind.
    Those rows cut Z(A) down to Z(A) u, the center of A u, exactly.  The
    object idempotents are central, orthogonal and sum to 1
    (`require_decomposition`), so 1 - u is the sum of the 1_f outside the
    component.  A central a with a 1_f = 0 for each such f has a (1 - u) = 0,
    so a = a u lies in Z(A) u; and each z u, z central, is central (u is)
    with (z u) 1_f = z (u 1_f) = 0.  So the solutions are exactly the central
    a in A u with the traces asked for.

    The solution set of `solve_affine`, canonical over the center basis,
    maps to a canonical one in A's coordinates: the center basis
    z_1, ..., z_r is a reduced echelon basis (a kernel's, or the standard
    basis), with pivots q_1 < ... < q_r, and c |-> sum c_i z_i sends a
    reduced echelon row with pivot p to a row zero left of q_p and 1 at q_p,
    whose entry at each q_i is c_i.  So the images of the kernel rows are a
    reduced echelon basis, with pivots q_p, and the particular solution,
    zero at the kernel's pivots p, maps to a vector zero at the q_p; the map
    is injective, so this is the solution set, in the one canonical form.
    """
    alg = pa.algebra
    field = alg.field
    center = alg.center_basis()
    rows: list = []
    rhs: list = []
    for f in solve_at:
        into = pa.groupoid.arrows_into(f)
        rows.extend(zip(*(_trace_image(pa, into, z) for z in center.rows)))
        rhs.extend(pa.obj_idem(f))
    for f in pa.groupoid.objects:
        if f not in cls:
            rows.extend(zip(*(alg.multiply(z, pa.obj_idem(f)) for z in center.rows)))
            rhs.extend(alg.zero())
    sol = solve_affine(field, rows, rhs, center.dim)
    if sol.is_empty:
        return sol
    return AffineSolutionSet(center.combine(sol.particular),
                             tuple(center.combine(k) for k in sol.kernel_basis), field)


def _canonical_family(field, dim, particular, kernel_vectors) -> AffineSolutionSet:
    """particular + span(kernel_vectors), in canonical AffineSolutionSet form."""
    ke = echelon(field, kernel_vectors, dim)
    return AffineSolutionSet(ke.reduce(particular), ke.rows, field)


def _decide(pa: PartialAction, transversal_only: bool) -> SeparabilityVerdict:
    pa.ensure_valid()
    if transversal_only and not pa.is_global():
        raise NotGlobal("action is not global")
    pa.require_decomposition()
    alg = pa.algebra
    partition = pa.groupoid.connected_components()
    per = []
    witness = alg.zero()
    kern: list = []
    separable = True
    for cls in partition.classes:
        solve_at = (cls[0],) if transversal_only else cls
        full = _component_family(pa, cls, solve_at)
        per.append(ComponentVerdict(cls, not full.is_empty, full, solve_at))
        if full.is_empty:
            separable = False
        else:
            witness = vadd(alg.field, witness, full.particular)
            kern.extend(full.kernel_basis)
    if not separable:
        return SeparabilityVerdict(False, tuple(per), None, None)
    # a single component's family is the whole one, canonical already (`_component_family`)
    family = (per[0].witness_family if len(per) == 1
              else _canonical_family(alg.field, alg.dim, witness, kern))
    # `build_certificate` checks the witness on the whole trace system
    cert = build_certificate(pa, family.particular, family=family)
    return SeparabilityVerdict(True, tuple(per), family.particular, cert)


def decide_separability(pa: PartialAction) -> SeparabilityVerdict:
    """Component-by-component trace criterion, with a verified certificate."""
    return _decide(pa, transversal_only=False)


def decide_global(pa: PartialAction) -> SeparabilityVerdict:
    """Global-action decision: solve only at each component's transversal
    object; NotGlobal for a valid action that is not global."""
    return _decide(pa, transversal_only=True)


def build_certificate(pa: PartialAction, a,
                      family: AffineSolutionSet | None = None) -> SeparabilityCertificate:
    """The separability idempotent attached to a central witness a.

    x = sum over morphisms g of  alpha_g(a 1_{g^-1}) d_g  (x)  1_{g^-1} d_{g^-1},
    held as its psi blocks (`idempotent_blocks`), verified against the
    definition (`separability_checks`) and written out as the canonical
    representative: in each block, the free pairs of `psi_block` with the
    coordinates of the block's psi-image y over their psi-images, read off
    its pivots and inverse rows by `free_coords`.  The checks run on the
    blocks those coordinates rebuild, sum_f coords[f] (psi-image of free
    pair f), so they check the summands as written.  Over Q all
    of this runs on integral vectors: the witness check on d_a a, d_a the
    least common denominator of a, and the checks and coordinates on the
    blocks y = d x of d = d_a d_b, d_b that of the blocks of d_a a; the
    coordinates and the returned blocks are scaled back by d^-1 once.
    """
    pa.require_decomposition()
    alg = pa.algebra
    field = alg.field
    a = alg.element(a)
    d, da = _cleared(field, a)
    if not _is_scaled_witness(pa, d, da):
        raise WitnessInvalid("witness is not central with t_e(a) = 1_e at every object")
    raw = idempotent_blocks(pa, da)
    db = field.denominator(raw.values())
    d *= db
    dinv = field.inv(d)
    summands = []
    rebuilt = {}
    for (g, h), y in raw.items():
        images, kinds, free, pivots, inverse = psi_block(pa, g, h)
        us, ws = pa.ideal(g).rows, pa.ideal(h).rows
        coords = free_coords(field, pivots, inverse, _scaled(field, db, y))
        z = [field.zero] * alg.dim
        for f, c, s in zip(free, coords, _scaled(field, dinv, coords)):
            if c:
                for p, t in enumerate(images[kinds[f]]):
                    if t:
                        z[p] += c * t
                i, j = divmod(f, len(ws))
                summands.append((g, _scaled(field, s, us[i]), h, ws[j]))
        rebuilt[g, h] = alg._reduced(z)
    checks = {"witness_central": True, "witness_traces": True,
              **separability_checks(pa, rebuilt, d)}
    blocks = {pair: _scaled(field, dinv, y) for pair, y in rebuilt.items()}
    if family is None:
        family = AffineSolutionSet(a, (), field)
    return SeparabilityCertificate(a, family, psi_tensor_dim(pa), blocks,
                                   tuple(summands), checks)


def idempotent_blocks(pa: PartialAction, a) -> dict:
    """The nonzero psi blocks of sum_g alpha_g(a 1_{g^-1}) d_g (x) 1_{g^-1} d_{g^-1}:
    block (g, g^-1) is alpha_g(a 1_{g^-1}), in morphism order."""
    inv = pa.groupoid.inv
    blocks = {(g, inv(g)): pa.alpha(g, a) for g in pa.groupoid.morphisms}
    return {pair: y for pair, y in blocks.items() if any(y)}


def separability_checks(pa: PartialAction, blocks, d=1) -> dict:
    """m(x) = 1 and bx = xb for every ring basis element b, for the tensor
    element x = d^-1 y given by the psi blocks (g, g^-1) of y (d a nonzero
    scalar): checked on y as m(y) = d 1 and by = yb.

    m sends block (g, g^-1) y_g to y_g d_{id_e}, e = tgt g, so m(y) = d 1
    reads sum of y_g over the arrows g into e == d 1_e at each object e, the
    rule `TensorOverA.mult_matrix` writes as rows.  by = yb is read with
    `commutator_terms`, the formula the oracle solves: each output block gets
    at most one left and one right term, so the two sides are compared block
    by block, with no sums.

    `commutes_with_basis` tests by = yb on the small generating set that
    `ring_generators` finds once per action, not on every basis element,
    and the two are equivalent; the proof is in its docstring, in three
    steps.  The elements that commute with y form a subalgebra C.  C holds
    A: on non-commutative A through the listed a d_{id_e}, and on
    commutative A for every y on the blocks (g, g^-1), since a y = y a
    there.  If 1_k d_k is in C, so is 1_{k^-1} d_{k^-1}.  And C then holds
    A_{sh} d_{sh} whenever it holds A_h d_h and 1_{sh} <= 1_s for a move s
    in S u S^-1, since alpha_s(1_{s^-1} 1_h) = 1_s 1_{sh}; every arrow with
    A_g != 0 is reached so from the identities or is in S.
    The key keeps its name, so the reports do not change.
    """
    g_oid = pa.groupoid
    field = pa.algebra.field
    sums: dict = {}
    for (g, _), y in blocks.items():
        e = g_oid.tgt[g]
        sums[e] = vadd(field, sums[e], y) if e in sums else y
    return {
        "multiplies_to_unit": all(
            sums.get(e, pa.algebra.zero()) == _scaled(field, d, pa.obj_idem(e))
            for e in g_oid.objects),
        "commutes_with_basis": all(_commutes(pa, k, v, blocks)
                                   for k, v in ring_generators(pa)),
    }


def _commutes(pa: PartialAction, k, v, blocks) -> bool:
    """b y == y b for b = v d_k and y given by its blocks (g, g^-1): the
    nonzero left and right terms of `commutator_terms`, keyed by output
    block, are equal."""
    sides: tuple = ({}, {})
    for (g, _), y in blocks.items():
        for side, term in zip(sides, commutator_terms(pa, k, v, g, y)):
            if term is not None and any(term[1]):
                side[term[0]] = term[1]
    return sides[0] == sides[1]


def oracle_separability(pa: PartialAction) -> OracleResult:
    """Directly solve m(x) = 1 and bx = xb in the tensor square of the ring.

    This is the definition of a separability element, so it is an oracle for
    the trace criterion: the two must agree on every instance.  Only the
    unknowns of the blocks (g, g^-1) are solved for (`TensorOverA.columns`,
    ring.dim of them): the system is the rows of m, one per object e and
    coordinate of A with right-hand side 1_e, and, for each b = v d_k of
    the small generating set (`ring_generators`: A's basis at the
    identities on non-commutative A only, and a multiple of 1_k d_k for
    each arrow k of a set S whose words in S u S^-1 cover A*G), the nonzero
    rows of x |-> b x - x b on those unknowns, coordinates in A of
    psi-images of the output blocks (`TensorOverA.commutator_rows`), each
    distinct row once.  An x on the blocks (g, g^-1) commutes with those
    iff with every ring basis element: the elements that commute with x
    form a subalgebra C; C holds A (on commutative A, a y = y a on each
    block); with 1_k d_k it holds 1_{k^-1} d_{k^-1}; and with A_h d_h it
    holds A_{sh} d_{sh} for each s in S u S^-1 with 1_{sh} <= 1_s, which
    reaches every arrow with A_g != 0 outside S (the proof is in
    `ring_generators`).
    It shares `psi_block`, the closed form of b x - x b
    (`skew_ring.commutator_terms`) and the generators with the certificate,
    but not the trace criterion, and builds no ring: that the ring table's
    products factor through psi is checked only by the tests
    (`factoring_failures`), and `skew-table` keeps the ring's associativity
    audit.

    This is exact because A*G is graded by the morphisms (the graded-ring
    argument of Nastasescu, Van den Bergh and Van Oystaeyen, "Separable
    functors applied to graded rings", J. Algebra 123, 1989).  A homogeneous
    b of degree k sends block (g, h) to (kg, h) on the left and to (g, hk) on
    the right, and m sends it to degree gh, so the full system [M | b] is
    block-diagonal over the conjugacy classes of the products gh: a row that
    reads a block (g, g^-1) reads only such blocks.  Only the class of
    identities, the blocks (g, g^-1), has a nonzero right-hand side; every
    other class is homogeneous and solved by 0.  psi maps each quotient block
    isomorphically onto its image, so psi-image rows and quotient rows of one
    output block span the same space, and m's rows in A and in ring
    coordinates have the same solutions.  The reduced echelon form of a
    block-diagonal system is the union of its blocks' forms, so the
    canonical particular solution is that of the full system on the blocks
    (g, g^-1), and the kernel is the part of the full kernel on them.
    """
    tensor = tensor_over(pa)
    field = pa.algebra.field
    rows = tensor.mult_matrix()
    rhs = [c for e in pa.groupoid.objects for c in pa.obj_idem(e)]
    commutators = dict.fromkeys(row for k, v in ring_generators(pa)
                                for row in tensor.commutator_rows(k, v).values())
    rows.extend(commutators)
    rhs.extend([field.zero] * len(commutators))
    sol = solve_affine(field, rows, rhs, len(tensor.columns))
    return OracleResult(not sol.is_empty, tensor, sol)


def extract_witness(pa: PartialAction, tensor: TensorOverA, x) -> tuple:
    """The central witness read off a separability element x in the column
    coordinates of `tensor`: the sum of its blocks (id_e, id_e), x_c y_c
    summed over the columns c at identities."""
    field = pa.algebra.field
    identities = set(pa.groupoid.identity.values())
    a = pa.algebra.zero()
    for c, (g, _, y) in zip(x, tensor.columns):
        if c and g in identities:
            a = vadd(field, a, field.reduce_vec(c * t for t in y))
    return a


def cross_check(pa: PartialAction, verdict: SeparabilityVerdict,
                oracle: OracleResult) -> tuple:
    """(agree, a, a_ok): whether the oracle's verdict is the decision's, and,
    when the oracle finds a separability element, the witness that
    `extract_witness` reads off it and whether `is_witness` accepts it
    (None and None otherwise)."""
    agree = oracle.separable == verdict.separable
    if not oracle.separable:
        return agree, None, None
    a = extract_witness(pa, oracle.tensor, oracle.solutions.particular)
    return agree, a, is_witness(pa, a)


# -- global actions: isotropy transport --------------------------------------------

@dataclass(frozen=True)
class TransportResult:
    obj: str
    witness: tuple            # element of C(A_i) with t_{i,i}(witness) = 1_i
    arrows: dict              # object -> chosen arrow from obj to it
    checks: dict


def isotropy_witness_transport(pa: PartialAction, class_objects, witness) -> TransportResult:
    """Push a component witness to a single-object witness at the transversal.

    For a global connected action with witness b = sum b_k, the element
    a = sum alpha_{g_k^-1}(b_k) (g_k the first arrow from the transversal to
    e_k) satisfies t_{i,i}(a) = 1_i, certifying the isotropy-group extension.
    """
    if not pa.is_global():
        raise NotGlobal("isotropy transport needs a global action")
    pa.require_decomposition()
    cls = tuple(class_objects)
    i = cls[0]
    alg = pa.algebra
    b = alg.element(witness)
    if _trace_image(pa, pa.groupoid.arrows_into(i), b) != pa.obj_idem(i):
        raise WitnessInvalid("witness fails t(b) = 1 at the transversal object")
    arrows = {}
    a = alg.zero()
    for kobj in cls:
        hom = pa.groupoid.hom_set(i, kobj)
        if not hom:
            raise EmptyHomSet("no arrow from %r to %r" % (i, kobj))
        g = hom[0]
        arrows[kobj] = g
        bk = alg.multiply(b, pa.obj_idem(kobj))
        a = vadd(alg.field, a, pa.alpha(pa.groupoid.inv(g), bk))
    checks = {
        "witness_central": alg.commutes_with_all(a),
        "single_object_trace": (_trace_image(pa, pa.groupoid.hom_set(i, i), a)
                                == pa.obj_idem(i)),
    }
    return TransportResult(i, a, arrows, checks)


@dataclass(frozen=True)
class IsotropyIso:
    arrow: str
    source_object: str
    target_object: str
    matrix: Matrix
    checks: dict


def isotropy_transport_psi(pa: PartialAction, arrow) -> IsotropyIso:
    """The isomorphism u d_g |-> alpha_l(u) d_{l g l^-1} between isotropy rings.

    For a global action and an arrow l: e_i -> e_j this conjugation maps
    A_i * G(e_i), the span in A*G of the u d_g with g in G(e_i), isomorphically
    onto A_j * G(e_j).  It is checked on A's vectors, with no isotropy ring:
    on the basis pairs (g, u), g in G(e_i) in morphism order and u in
    ideal(g).rows, it is multiplicative under `skew_product` and sends
    1_{e_i} d_{e_i} to 1_{e_j} d_{e_j}; it is bijective by the rank of
    `matrix`, whose column (g, u) holds the ideal(l g l^-1)-coordinates of
    alpha_l(u) at the offset of l g l^-1 among the ideals of G(e_j).
    """
    if not pa.is_global():
        raise NotGlobal("isotropy conjugation needs a global action")
    pa.require_decomposition()
    g_oid = pa.groupoid
    if arrow not in g_oid.src:
        raise SeparabilityError("unknown arrow %r" % (arrow,))
    e_i, e_j = g_oid.src[arrow], g_oid.tgt[arrow]
    linv = g_oid.inv(arrow)

    def phi(g, u) -> tuple:
        return g_oid.compose[(g_oid.compose[(arrow, g)], linv)], pa.alpha(arrow, u)

    basis = [(g, u) for g in g_oid.hom_set(e_i, e_i) for u in pa.ideal(g).rows]
    starts = {}
    dim = 0
    for h in g_oid.hom_set(e_j, e_j):
        starts[h] = dim
        dim += pa.ideal(h).dim
    alg = pa.algebra
    field = alg.field
    cols = []
    for g, u in basis:
        h, v = phi(g, u)
        col = [field.zero] * dim
        col[starts[h]:starts[h] + pa.ideal(h).dim] = alg.ideal_coords(pa.idem(h), v)
        cols.append(col)
    checks = {
        "bijective": echelon(field, cols, dim).dim == len(basis) == dim,
        "multiplicative": all(
            phi(*skew_product(pa, g, u, h, w)) == skew_product(pa, *phi(g, u), *phi(h, w))
            for g, u in basis for h, w in basis),
        "unit_to_unit": (phi(g_oid.identity[e_i], pa.obj_idem(e_i))
                         == (g_oid.identity[e_j], pa.obj_idem(e_j))),
    }
    return IsotropyIso(arrow, e_i, e_j, Matrix._trusted(field, tuple(zip(*cols)), len(cols)),
                       checks)

