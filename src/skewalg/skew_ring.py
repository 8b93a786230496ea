"""The partial skew groupoid ring A*G and its tensor square over A.

The ring is the direct sum over morphisms g of the ideals A_g, with
(a_g d_g)(b_h d_h) = alpha_g(alpha_{g^-1}(a_g) b_h) d_{gh} on composable
pairs and 0 otherwise; `SkewRing` holds its multiplication table.  A
product v d_g enters it as v's coordinates in A_g, read by
`Algebra.ideal_coords(1_g, v)` (v is in A_g iff v 1_g == v).  The
tensor square over A is realised concretely in the normal form
psi(u d_g (x) w d_h) = u alpha_g(w 1_{g^-1}), which maps the (g, h) block of
the quotient isomorphically onto the ideal A 1_g 1_{gh} and kills the block
unless src g = tgt h; y in that ideal stands for y d_g (x) 1_h d_h.

The square is held in this normal form only, and needs neither the ring
table nor a basis of the square there: the dimension (`psi_tensor_dim`)
and, on the blocks (g, g^-1) that a separability element lives on, the map
x |-> b x - x b of a ring basis element b = v d_k (`commutator_terms`) have
closed forms.  That one formula serves the oracle's rows and the
certificate's check alike.  A block's canonical representatives are the
basis pairs chosen greedily from the right whose psi-images are
independent (`psi_block`), the free columns of the reduced echelon form of
the balancing relations (b.a (x) b') - (b (x) a.b'), never built.  The same
elimination (`linalg.free_basis`) also writes the block's image over them,
so an element's coordinates on the representatives need no second
elimination.  `TensorOverA` holds those of the blocks (g, g^-1), the
oracle's unknowns, with their psi-images.  Nothing here reads the ring
table for the square: that every basis-pair product is its psi-image at
d_{gh} is checked by the tests against the table.
"""

from __future__ import annotations

import os
from collections import Counter

from .algebra import nonassociative_triple, table_product
from .linalg import free_basis
from .partial_action import PartialAction

DEFAULT_MAX_TENSOR_DIM = 4096


class SkewRingError(Exception):
    pass


class TensorTooLarge(SkewRingError):
    pass


class InvalidSizeCap(SkewRingError):
    pass


def skew_product(act: PartialAction, g, u, h, w) -> tuple:
    """(u d_g)(w d_h) for composable g, h (src g = tgt h), u in A_g, w in A_h,
    as (gh, alpha_g(alpha_{g^-1}(u) w))."""
    g_oid = act.groupoid
    pulled = act.alpha(g_oid.inv(g), u)
    return g_oid.compose[(g, h)], act.alpha(g, act.algebra.multiply(pulled, w))


class SkewRing:
    """Built by `build_skew_ring`; verifies associativity on basis triples.

    The basis runs over the morphisms in groupoid order: positions
    `starts[g]` to `starts[g] + dim A_g - 1` hold the ideal basis of A_g,
    times d_g.  The multiplication table is in the sparse format of `algebra`:
    `_table[i][j]` maps each ring coordinate k to the nonzero coefficient of
    b_k in b_i * b_j, the `skew_product` of the pair, and a product of basis
    elements on non-composable morphisms is the empty dict.  `mul_coords` is
    `algebra.table_product` and the associativity audit is
    `algebra.nonassociative_triple`, the same functions `Algebra` uses; the
    audit sums only the basis triples with a nonzero term, which on a skew
    ring are the composable chains.
    Elements are held as coordinate tuples: `basis_coords`, `product_coords`,
    `unit` and `multiplication_rows` return dense coordinates.  The tests
    check the table against a skew product computed straight from the action.
    """

    def __init__(self, action: PartialAction):
        self.action = action
        g_oid = action.groupoid
        basis = []
        starts = {}
        for g in g_oid.morphisms:
            starts[g] = len(basis)
            for row in action.ideal(g).rows:
                basis.append((g, row))
        self.basis = tuple(basis)
        self.starts = starts
        self.dim = len(basis)
        self.field = action.algebra.field
        self._build_table()
        self._check_associativity()
        self._unit = None

    # -- construction ------------------------------------------------------

    def _build_table(self) -> None:
        act = self.action
        g_oid = act.groupoid
        table = []
        for g, u in self.basis:
            row = []
            for h, w in self.basis:
                if g_oid.src[g] != g_oid.tgt[h]:
                    row.append({})
                    continue
                row.append(self._scatter(*skew_product(act, g, u, h, w)))
            table.append(tuple(row))
        self._table = tuple(table)

    def _scatter(self, g, v) -> dict:
        """Sparse ring coordinates of the element v*d_g (v must lie in A_g)."""
        act = self.action
        local = act.algebra.ideal_coords(act.idem(g), v)
        at = self.starts[g]
        return {at + k: c for k, c in enumerate(local) if c}

    def _check_associativity(self) -> None:
        bad = nonassociative_triple(self._table, self.field)
        if bad is not None:
            raise SkewRingError(
                "skew product not associative at basis triple (%d, %d, %d)" % bad)

    # -- coordinates ---------------------------------------------------------

    def basis_coords(self, i: int) -> tuple:
        return tuple(self.field.one if j == i else self.field.zero
                     for j in range(self.dim))

    # -- ring operations -------------------------------------------------------

    def product_coords(self, i: int, j: int) -> tuple:
        """Coordinates of the product of basis elements i and j."""
        out = [self.field.zero] * self.dim
        for k, c in self._table[i][j].items():
            out[k] = c
        return tuple(out)

    def mul_coords(self, x, y) -> tuple:
        return table_product(self._table, x, y, self.field)

    def unit(self) -> tuple:
        """Coordinates of sum_e 1_e d_e, checked on the first call to be a
        two-sided identity on the basis."""
        if self._unit is None:
            g_oid = self.action.groupoid
            u = [self.field.zero] * self.dim
            for e in g_oid.objects:
                for k, c in self._scatter(g_oid.identity[e], self.action.obj_idem(e)).items():
                    u[k] = c
            u = tuple(u)
            for i in range(self.dim):
                b = self.basis_coords(i)
                if self.mul_coords(u, b) != b or self.mul_coords(b, u) != b:
                    raise SkewRingError("unit candidate fails on basis element %d" % i)
            self._unit = u
        return self._unit

    def multiplication_rows(self) -> list:
        """All basis-pair products, for the CLI table export."""
        rows = []
        for i, (g, u) in enumerate(self.basis):
            for j, (h, w) in enumerate(self.basis):
                rows.append({
                    "left": [g, [str(c) for c in u]],
                    "right": [h, [str(c) for c in w]],
                    "product": [str(c) for c in self.product_coords(i, j)],
                })
        return rows


def build_skew_ring(action: PartialAction) -> SkewRing:
    """A*G of a valid action whose object idempotents decompose 1; the
    `ActionError` of `ensure_valid` (or `DecompositionRequired`) otherwise,
    both raised by `require_decomposition`.  Its table holds
    (sum_g dim A_g)^2 basis-pair products, the ambient dimension of the
    tensor square, so it is refused over the same cap (`TensorTooLarge`)
    before any is computed."""
    action.require_decomposition()
    _check_cap(action, "skew ring table size")
    return SkewRing(action)


# -- the tensor square in psi coordinates ------------------------------------------


def psi_block(act: PartialAction, g, h) -> tuple:
    """The psi-images of the basis pairs of block (g, h), the free pairs and
    the change of basis from the block's image to the free pairs.

    Pair j = i * dim A_h + l is (ideal(g).rows[i], ideal(h).rows[l]).
    Returns (images, kinds, free, pivots, inverse): the distinct psi-images
    u alpha_g(w 1_{g^-1}) in order of first occurrence, the index in `images`
    of each pair, and the `free_basis` of the pairs' images: the free pairs
    in increasing order (scanning from the right, a pair is free when its
    image is independent of the images of the pairs to its right), the
    pivots of the reduced echelon form of their images, and, for each pivot
    p, the row over the free pairs that writes the echelon row at p as a
    combination of their images.  Only the rightmost pair with a given
    nonzero image can be free, so `free_basis` is given the image of each
    such pair alone, in pair order, which inserts each distinct nonzero
    image once.  The result is kept on the action, as plain tuples, next to
    its alpha-images.
    """
    kept = act._psi_blocks.get((g, h))
    if kept is not None:
        return kept
    alg = act.algebra
    moved = [act.alpha(g, w) for w in act.ideal(h).rows]
    kind_of: dict = {}
    images, kinds, rightmost = [], [], []
    for u in act.ideal(g).rows:
        for m in moved:
            y = alg.multiply(u, m)
            k = kind_of.setdefault(y, len(images))
            if k == len(images):
                images.append(y)
                rightmost.append(0)
            rightmost[k] = len(kinds)
            kinds.append(k)
    tried = [j for j in sorted(rightmost) if any(images[kinds[j]])]
    free, pivots, inverse = free_basis(alg.field, [images[kinds[j]] for j in tried], alg.dim)
    kept = act._psi_blocks[g, h] = (tuple(images), tuple(kinds),
                                    tuple([tried[f] for f in free]), pivots, inverse)
    return kept


def ring_generators(act: PartialAction) -> tuple:
    """A small generating set of A*G for commutation, as pairs (k, v), each
    the element v d_k, in morphism order: an x on the blocks (g, g^-1) of
    the square commutes with every element of A*G iff it commutes with each
    of them.  Found once per action and kept on it; the action must be valid
    with object idempotents that decompose 1.

    They are a d_{id_e} for each a in ideal(id_e).rows, on non-commutative A
    only, and c_k 1_k d_k for each arrow k of S (`_covering_arrows`), c_k the
    common denominator of 1_k (`Field.denominator`), so no generator has a
    fraction; commutation is linear, so c_k changes nothing.  The elements b
    with b x = x b form a subalgebra C of A*G, and C is all of A*G:
    - C contains A = sum_e A_e d_{id_e}.  On non-commutative A it contains
      the listed a d_{id_e}.  On commutative A it does for every x on the
      blocks (g, g^-1): for b = a d_{id_e} and a block y with tgt g = e,
      b X = a y and X b = y alpha_g(alpha_{g^-1}(a)) = y a 1_g = y a, in
      the same output block (g, g^-1) (`commutator_terms`), and b leaves
      the blocks with tgt g != e alone.
    - If b = 1_k d_k is in C, so is b' = 1_{k^-1} d_{k^-1}: p = b b' = 1_k
      d_{id} and q = b' b = 1_{k^-1} d_{id} lie in A, inside C, and
      b' = q b' = b' p, so x b' = x b' b b' = (x q) b' = (q x) b' =
      b' (b x) b' = b' (x b) b' = b' x p = b' p x = b' x.
    - C contains A_g d_g for every arrow g that `_covering_arrows` covers,
      which is every arrow with A_g != 0.  It does for the identities, by
      the first step.  Let h be covered, s in S u S^-1 with src s = tgt h,
      so 1_s d_s is in C by the second step, and 1_{sh} <= 1_s.  Write
      A_f A_g = A 1_f 1_g for the intersection of two domains.  By axiom
      II on (s, h), alpha_{h^-1}(A_{s^-1} A_h) lies in A_{(sh)^-1}, and by
      axiom III, alpha_s(A_{s^-1} A_h) = alpha_{sh}(alpha_{h^-1}(A_{s^-1}
      A_h)) lies in A_s A_{sh}.  The same on (s^-1, sh), with alpha_s
      alpha_{s^-1} = id on A_s, gives the reverse inclusion.  alpha_s is a
      ring isomorphism A_{s^-1} -> A_s, so it maps the ideal of a central
      idempotent onto the ideal of its image, and alpha_s(1_{s^-1} 1_h) =
      1_s 1_{sh}.  As a runs over A_h, (1_s d_s)(a d_h) = alpha_s(1_{s^-1} a)
      d_{sh} then spans A 1_s 1_{sh} d_{sh} = A_{sh} d_{sh}.
    The full list, A's basis at the identities and every c_k 1_k d_k with
    A_k != 0, also generates, since (u d_{id_t(k)})(1_k d_k) = u d_k for u
    in A_k; the tests keep it as the reference.
    """
    kept = act._generators
    if kept is None:
        alg = act.algebra
        field = alg.field
        g_oid = act.groupoid
        arrows = set(_covering_arrows(act))
        if not alg.commutative:
            arrows.update(g_oid.identity.values())
        gens = []
        for k in g_oid.morphisms:
            if k not in arrows:
                continue
            if g_oid.is_identity(k):
                gens.extend((k, a) for a in act.ideal(k).rows)
            else:
                c = field.denominator((act.idem(k),))
                gens.append((k, field.reduce_vec(c * x for x in act.idem(k))))
        kept = act._generators = tuple(gens)
    return kept


def _covering_arrows(act: PartialAction) -> list:
    """S: the arrows k with A_k != 0 that reachability does not cover, chosen
    greedily in morphism order (`ring_generators`).

    The identities start covered.  An arrow k not yet covered, taken in
    morphism order, joins S, and k and k^-1 become moves out of their
    sources; each covered arrow into src s is pushed with each new move s.
    Popping (s, h) covers sh when 1_{sh} <= 1_s, tested as 1_{sh} == 1_s or
    1_s 1_{sh} == 1_{sh}, and pushes sh with every move out of tgt sh.  k
    itself is covered by the pair (k, id_{src k}).  On a global action
    1_{sh} = 1_{tgt s} = 1_s, so the equality answers and no product is
    looked up: the certificate's lookups stay integral where 1_g has
    denominators (rotated_swap_q.json's 1/2(1 +- x)).
    """
    g_oid = act.groupoid
    src, tgt, compose = g_oid.src, g_oid.tgt, g_oid.compose
    idem, multiply = act.idems, act.algebra.multiply
    covered = dict.fromkeys(g_oid.identity.values())
    moves: dict = {e: [] for e in g_oid.objects}
    chosen = []
    for k in g_oid.morphisms:
        if k in covered or not any(idem[k]):
            continue
        chosen.append(k)
        kinv = g_oid.inv(k)
        new = (k,) if kinv == k else (k, kinv)
        for s in new:
            moves[src[s]].append(s)
        work = [(s, h) for s in new for h in covered if tgt[h] == src[s]]
        while work:
            s, h = work.pop()
            sh = compose[s, h]
            if sh in covered:
                continue
            one_s, one_sh = idem[s], idem[sh]
            if one_sh == one_s or multiply(one_s, one_sh) == one_sh:
                covered[sh] = None
                work.extend((t, sh) for t in moves[tgt[sh]])
    return chosen


def psi_tensor_dim(act: PartialAction) -> int:
    """dim (A*G) (x)_A (A*G): the sum of dim A 1_g 1_{gh} over composable (g, h).

    h |-> gh is a bijection from the arrows h composable with g onto the
    arrows f into tgt g (its inverse is f |-> g^-1 f), so the sum runs over
    the pairs (g, f) of arrows into each object e as the sum of
    dim A 1_g 1_f.  That term depends on the two domain idempotents alone, so
    it is read once per distinct pair of them at e and counted with the
    product of their multiplicities; 1_g 1_f is 1_g itself when the two are
    equal.  Kept on the action, since the oracle's square and the
    certificate both report it.
    """
    if act._tensor_dim is None:
        alg = act.algebra
        g_oid = act.groupoid
        total = 0
        for e in g_oid.objects:
            counts = Counter(act.idem(g) for g in g_oid.arrows_into(e))
            for p, m in counts.items():
                for q, n in counts.items():
                    total += m * n * alg.ideal_basis(p if p == q else alg.multiply(p, q)).dim
        act._tensor_dim = total
    return act._tensor_dim


def commutator_terms(act: PartialAction, k, v, g, y) -> tuple:
    """b X - X b for b = v d_k (v in A_k) and X = y d_g (x) 1_{g^-1} d_{g^-1}
    (y in A_g), as its two terms (left, right), each (output block,
    psi-image) or None where the product is 0: b X is the `skew_product`
    (v d_k)(y d_g) in block (kg, g^-1) when src k = tgt g, and X b is
    y alpha_g(alpha_{g^-1}(v)) in block (g, g^-1 k) when tgt k = tgt g.

    On an element x given by its blocks (g, g^-1), the left term of block g
    and the right term of block kg land in the same output block
    (kg, g^-1), and no other term does: g |-> kg is a bijection from the
    arrows into src k onto the arrows into tgt k, and distinct g give
    distinct blocks.  So bx = xb iff the left and right terms agree block
    by block, with no sums.  The oracle (`TensorOverA.commutator_rows`) and
    the certificate (`separability.separability_checks`) both read it.
    """
    g_oid = act.groupoid
    at = g_oid.tgt[g]
    left = right = None
    if g_oid.src[k] == at:
        kg, z = skew_product(act, k, v, g, y)
        left = (kg, g_oid.inv(g)), z
    if g_oid.tgt[k] == at:
        ginv = g_oid.inv(g)
        right = ((g, g_oid.compose[(ginv, k)]),
                 act.algebra.multiply(y, act.alpha(g, act.alpha(ginv, v))))
    return left, right


# -- the oracle's square: the blocks (g, g^-1) in psi coordinates ------------------


def _check_cap(action: PartialAction, what: str) -> None:
    """Refuse a tensor square, or a ring table, with more basis pairs than
    SKEWALG_MAX_DIM: (sum_g dim A_g)^2, read off the ideal bases the algebra
    keeps.  `what` names the refused size in the message."""
    ambient_dim = sum(action.ideal(g).dim for g in action.groupoid.morphisms) ** 2
    raw = os.environ.get("SKEWALG_MAX_DIM")
    try:
        cap = DEFAULT_MAX_TENSOR_DIM if raw is None else int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise InvalidSizeCap(
            "SKEWALG_MAX_DIM must be a non-negative integer, got %r" % raw[:40])
    if ambient_dim > cap:
        raise TensorTooLarge(
            "%s %d exceeds cap %d (SKEWALG_MAX_DIM)" % (what, ambient_dim, cap))


class TensorOverA:
    """(A*G) (x)_A (A*G) in the psi normal form, on the blocks (g, g^-1).

    Built by `tensor_over`; the constructor validates nothing.  `dim` is the
    dimension of the whole square (`psi_tensor_dim`), `ring_dim` that of A*G
    and `ambient_dim` = ring_dim^2 the number of basis pairs.  The columns
    are the oracle's unknowns: for each g with A_g != 0, in morphism order,
    the free pairs j of `psi_block(g, g^-1)` as (g, j, y), y the pair's
    psi-image, which stands for y d_g (x) 1_{g^-1} d_{g^-1}.  That block's
    image is A 1_g, so there are ring_dim columns.
    """

    def __init__(self, action: PartialAction):
        self.action = action
        g_oid = action.groupoid
        self.dim = psi_tensor_dim(action)
        self.ring_dim = sum(action.ideal(g).dim for g in g_oid.morphisms)
        self.ambient_dim = self.ring_dim ** 2
        columns = []
        for g in g_oid.morphisms:
            if action.ideal(g).dim:
                images, kinds, free, _, _ = psi_block(action, g, g_oid.inv(g))
                columns.extend((g, j, images[kinds[j]]) for j in free)
        self.columns = tuple(columns)

    def mult_matrix(self) -> list:
        """The rows of m on the columns, one per object e and coordinate of A:
        m sends block (g, g^-1) y to y d_{id_e}, e = tgt g."""
        act = self.action
        zero = act.algebra.field.zero
        tgt = act.groupoid.tgt
        return [tuple(y[a] if tgt[g] == e else zero for g, _, y in self.columns)
                for e in act.groupoid.objects for a in range(act.algebra.dim)]

    def commutator_rows(self, k, v) -> dict:
        """The nonzero rows of x |-> b x - x b on the columns, keyed by
        (output block, coordinate in A), for a homogeneous b = v d_k, v in
        A_k: the oracle passes the generators of A*G (`ring_generators`).
        Column y of block (g, g^-1) enters the rows of its two output blocks
        with the two terms of `commutator_terms`, the left one with sign +1
        and the right one with sign -1.  Both terms are 0 unless tgt g is
        src k or tgt k, so only those columns are read."""
        act = self.action
        field = act.algebra.field
        tgt = act.groupoid.tgt
        ends = (act.groupoid.src[k], tgt[k])
        acc: dict = {}
        for c, (g, _, y) in enumerate(self.columns):
            if tgt[g] not in ends:
                continue
            for sign, term in zip((1, -1), commutator_terms(act, k, v, g, y)):
                if term is not None:
                    out, z = term
                    for a, t in enumerate(z):
                        if t:
                            acc[out, a, c] = acc.get((out, a, c), field.zero) + sign * t
        rows: dict = {}
        for (out, a, c), t in field.reduce_dict(acc).items():
            rows.setdefault((out, a), [field.zero] * len(self.columns))[c] = t
        return {key: tuple(row) for key, row in rows.items()}


def tensor_over(action: PartialAction) -> TensorOverA:
    """The oracle's square of A*G over A.

    The action is validated first by `require_decomposition` (`ActionError`
    of `ensure_valid`, or `DecompositionRequired`), since only a central
    idempotent has an ideal basis; then the size cap is checked against
    (sum_g dim A_g)^2, read off the ideal bases the algebra keeps, before
    any block is read.
    """
    action.require_decomposition()
    _check_cap(action, "tensor ambient dimension")
    return TensorOverA(action)
