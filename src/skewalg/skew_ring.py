"""The partial skew groupoid ring A*G and its tensor square over A.

The ring is the direct sum over morphisms g of the ideals A_g, with
(a_g d_g)(b_h d_h) = alpha_g(alpha_{g^-1}(a_g) b_h) d_{gh} on composable
pairs and 0 otherwise.  The tensor square over A is realised concretely in
the normal form psi(u d_g (x) w d_h) = u alpha_g(w 1_{g^-1}), which maps the
(g, h) block of the quotient isomorphically onto the ideal A e_{g,h},
e_{g,h} = alpha_g(1_{g^-1} 1_h), and kills the block unless src g = tgt h.
Canonical representatives are the basis pairs chosen greedily from the right
whose psi-images are independent: the free columns of the reduced echelon
form of the balancing relations (b.a (x) b') - (b (x) a.b'), which are never
built.  Construction checks that every basis-pair product is its psi-image
at d_{gh}, so multiplication factors through the quotient.
"""

from __future__ import annotations

import os
import weakref

from .algebra import nonassociative_triple, table_product
from .linalg import Echelonizer, Matrix, vadd
from .partial_action import NotUnitalAction, PartialAction

DEFAULT_MAX_TENSOR_DIM = 4096


class SkewRingError(Exception):
    pass


class TensorTooLarge(SkewRingError):
    pass


class InvalidSizeCap(SkewRingError):
    pass


class SkewRingElement:
    """A finitely supported map g -> a_g with a_g in the ideal A_g."""

    __slots__ = ("ring", "parts")

    def __init__(self, ring: "SkewRing", parts: dict, check: bool = True):
        self.ring = ring
        alg = ring.action.algebra
        clean = {}
        for g, v in parts.items():
            v = alg.element(v)
            if not any(v):
                continue
            if check and alg.multiply(v, ring.action.idem(g)) != v:
                raise SkewRingError(
                    "coefficient at %r lies outside its ideal" % (g,))
            clean[g] = v
        self.parts = clean

    def coords(self) -> tuple:
        return self.ring.coords_of(self)

    def __add__(self, other):
        self._same_ring(other)
        field = self.ring.field
        out = dict(self.parts)
        for g, v in other.parts.items():
            out[g] = vadd(field, out[g], v) if g in out else v
        return SkewRingElement(self.ring, out, check=False)

    def __mul__(self, other):
        if isinstance(other, SkewRingElement):
            self._same_ring(other)
            return self.ring.mul(self, other)
        return NotImplemented

    def __eq__(self, other):
        return (isinstance(other, SkewRingElement) and self.ring is other.ring
                and self.parts == other.parts)

    def is_zero(self) -> bool:
        return not self.parts

    def _same_ring(self, other) -> None:
        if not isinstance(other, SkewRingElement) or other.ring is not self.ring:
            raise SkewRingError("elements belong to different rings")

    def __repr__(self):
        if not self.parts:
            return "SkewRingElement(0)"
        bits = ["(%s)d_%s" % (",".join(str(x) for x in v), g)
                for g, v in sorted(self.parts.items())]
        return "SkewRingElement(%s)" % " + ".join(bits)


class SkewRing:
    """Built by `build_skew_ring`; verifies associativity on basis triples.

    The basis runs over the morphisms in groupoid order: positions
    `starts[g]` to `starts[g] + dim A_g - 1` hold the ideal basis of A_g,
    times d_g.  The multiplication table is in the sparse format of `algebra`:
    `_table[i][j]` maps each ring coordinate k to the nonzero coefficient of
    b_k in b_i * b_j, and a product of basis elements on non-composable
    morphisms is the empty dict.  `mul_coords` is `algebra.table_product`
    and the audit over all dim^3 basis triples is
    `algebra.nonassociative_triple`, the same functions `Algebra` uses.
    `mul` multiplies elements straight from the action and is the reference
    the table is tested against.  `product_coords` and
    `multiplication_rows` return dense coordinates.
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
        self._unit_checked = False

    # -- construction ------------------------------------------------------

    def _build_table(self) -> None:
        act = self.action
        alg = act.algebra
        g_oid = act.groupoid
        table = []
        for g, u in self.basis:
            ginv = g_oid.inv(g)
            pulled = act.alpha(ginv, u)  # alpha_{g^-1}(a_g)
            row = []
            for h, w in self.basis:
                if g_oid.src[g] != g_oid.tgt[h]:
                    row.append({})
                    continue
                gh = g_oid.compose[(g, h)]
                prod = act.alpha(g, alg.multiply(pulled, w))
                row.append(self._scatter(gh, prod))
            table.append(tuple(row))
        self._table = tuple(table)

    def _scatter(self, g, v) -> dict:
        """Sparse ring coordinates of the element v*d_g (v must lie in A_g)."""
        local = self.action.ideal(g).coords(v)
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

    def basis_element(self, i: int) -> SkewRingElement:
        g, u = self.basis[i]
        return SkewRingElement(self, {g: u}, check=False)

    def coords_of(self, x: SkewRingElement) -> tuple:
        out = [self.field.zero] * self.dim
        for g, v in x.parts.items():
            local = self.action.ideal(g).coords(v)
            at = self.starts[g]
            for k, c in enumerate(local):
                out[at + k] = c
        return tuple(out)

    def element(self, parts: dict) -> SkewRingElement:
        return SkewRingElement(self, parts)

    # -- ring operations -------------------------------------------------------

    def product_coords(self, i: int, j: int) -> tuple:
        """Coordinates of the product of basis elements i and j."""
        out = [self.field.zero] * self.dim
        for k, c in self._table[i][j].items():
            out[k] = c
        return tuple(out)

    def mul_coords(self, x, y) -> tuple:
        return table_product(self._table, x, y, self.field)

    def mul(self, x: SkewRingElement, y: SkewRingElement) -> SkewRingElement:
        act = self.action
        alg = act.algebra
        g_oid = act.groupoid
        acc: dict = {}
        for g, a in x.parts.items():
            pulled = act.alpha(g_oid.inv(g), a)
            for h, b in y.parts.items():
                if g_oid.src[g] != g_oid.tgt[h]:
                    continue
                gh = g_oid.compose[(g, h)]
                v = act.alpha(g, alg.multiply(pulled, b))
                acc[gh] = vadd(self.field, acc[gh], v) if gh in acc else v
        return SkewRingElement(self, acc, check=False)

    def unit(self) -> SkewRingElement:
        """sum_e 1_e d_e, checked to be a two-sided identity on the basis.

        Built on each call: a cached element would point back at its ring,
        and the cycle would keep the ring alive until a full GC pass.
        """
        g_oid = self.action.groupoid
        parts = {g_oid.identity[e]: self.action.obj_idem(e) for e in g_oid.objects}
        u = SkewRingElement(self, parts, check=False)
        if not self._unit_checked:
            for i in range(self.dim):
                b = self.basis_element(i)
                if u * b != b or b * u != b:
                    raise SkewRingError("unit candidate fails on basis element %d" % i)
            self._unit_checked = True
        return u

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
    report = action.validate()
    if "NotIdempotentDomain" in report.codes():
        raise NotUnitalAction("domain ideals are not generated by central idempotents")
    action.ensure_valid()
    action.require_decomposition()
    return SkewRing(action)


# -- the tensor square over A ----------------------------------------------------


def _check_cap(ambient_dim: int) -> None:
    """Refuse a tensor square with more basis pairs than SKEWALG_MAX_DIM."""
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
            "tensor ambient dimension %d exceeds cap %d (SKEWALG_MAX_DIM)"
            % (ambient_dim, cap))


class TensorOverA:
    """(A*G) (x)_A (A*G) in the psi normal form, with canonical lifts.

    Ambient coordinate p * n + q, n = `ring.dim`, is the basis pair
    (u d_g, w d_h) = (ring.basis[p], ring.basis[q]).  Its (g, h) block of the
    quotient is psi's image A e_{g,h}, with inverse a |-> a d_g (x) 1_h d_h,
    and only composable blocks (src g = tgt h) are nonzero.  Scanning a
    composable block from the right, each pair whose psi-image is independent
    of those to its right is free: these are the free columns of the
    leftmost-pivot echelon form of the balancing relations, so `q_coords`,
    `lift` and `summands` are the canonical ones of the quotient by
    relations.  `project` sums, per ambient coordinate, the coordinates of its
    psi-image in the basis of free psi-images (`q_psi`), stored at
    construction.
    """

    def __init__(self, ring: SkewRing):
        self.ring = ring
        self.n = ring.dim
        self.ambient_dim = self.n * self.n
        _check_cap(self.ambient_dim)
        act = ring.action
        g_oid = act.groupoid
        q_coords: list = []
        q_psi: list = []
        self._q_of: dict = {}         # ambient coordinate -> ((quotient k, value), ...)
        # a block (g, h) with A_g = 0 is empty; skipping it also skips
        # applying alpha_g to the basis of A_h
        runs = [(g, range(at, at + act.ideal(g).dim))
                for g, at in ring.starts.items() if act.ideal(g).dim]
        for g, ps in runs:
            for h, qs in runs:
                if g_oid.src[g] == g_oid.tgt[h]:
                    lifts, psi = self._read_block(g, ps, h, qs, len(q_coords))
                    q_coords.extend(lifts)
                    q_psi.extend(psi)
        self.q_coords = tuple(q_coords)   # ambient coordinate lifting each quotient one
        self.q_psi = tuple(q_psi)         # psi-image of each quotient basis vector
        self.dim = len(self.q_coords)

    # -- construction -------------------------------------------------------

    def _read_block(self, g, ps, h, qs, off: int) -> tuple:
        """(lifts, psi-images) of the free columns of block (g, h), whose
        quotient coordinates start at `off`; records each ambient coordinate's
        quotient coordinates in `_q_of`."""
        ring = self.ring
        act = ring.action
        field = ring.field
        gh = act.groupoid.compose[(g, h)]
        target = act.ideal(gh)
        moved = [act.alpha(g, ring.basis[q][1]) for q in qs]
        coords, kinds = [], []        # per basis pair (u, w), lexicographic
        kind_of: dict = {}            # psi-image -> its index in `images`
        images, products = [], []     # distinct psi-images y; ring coordinates of y d_{gh}
        for p in ps:
            u = ring.basis[p][1]
            for q, m in zip(qs, moved):
                y = act.algebra.multiply(u, m)
                k = kind_of.setdefault(y, len(images))
                if k == len(images):
                    images.append(y)
                    products.append(ring._scatter(gh, y) if target.contains(y) else None)
                if ring._table[p][q] != products[k]:
                    raise SkewRingError(
                        "multiplication does not factor through the tensor quotient")
                coords.append(p * self.n + q)
                kinds.append(k)
        # greedy from the right; only the rightmost pair with a given image can be free
        ech = Echelonizer(field, act.algebra.dim)
        free = []
        tried = set()
        for j in range(len(coords) - 1, -1, -1):
            k = kinds[j]
            if k not in tried:
                tried.add(k)
                if any(images[k]) and ech.insert(images[k]):
                    free.append(j)
        if not free:
            return (), ()
        free.reverse()
        # y = sum_i y[p_i] r_i over the echelon rows r_i (pivots p_i), and
        # psi(e_f) = sum_i C[f][i] r_i, so y's quotient coordinates are (y[p_i])_i C^-1
        pivots = ech.pivots

        def at_pivots(rows) -> Matrix:
            return Matrix._trusted(field, tuple(tuple(y[p] for p in pivots) for y in rows),
                                   len(pivots))

        q = at_pivots(images) * at_pivots([images[kinds[f]] for f in free]).inverse()
        q_of = [tuple((off + i, t) for i, t in enumerate(row) if t) for row in q.data]
        for c, k in zip(coords, kinds):
            if q_of[k]:
                self._q_of[c] = q_of[k]
        return [coords[f] for f in free], [images[kinds[f]] for f in free]

    # -- coordinates -----------------------------------------------------------

    def pure_tensor(self, x: SkewRingElement, y: SkewRingElement) -> dict:
        """Ambient (sparse) representation of x (x) y."""
        xc = self.ring.coords_of(x)
        yc = self.ring.coords_of(y)
        field = self.ring.field
        zero = field.zero
        out: dict = {}
        for p, c in enumerate(xc):
            if not c:
                continue
            for q, d in enumerate(yc):
                if not d:
                    continue
                coord = p * self.n + q
                out[coord] = out.get(coord, zero) + c * d
        return field.reduce_dict(out)

    def project(self, ambient: dict) -> tuple:
        """Quotient coordinates of a sparse ambient vector {coordinate: value}."""
        field = self.ring.field
        acc: dict = {}
        for c, v in ambient.items():
            for k, t in self._q_of.get(c, ()):
                acc[k] = acc[k] + v * t if k in acc else v * t
        out = [field.zero] * self.dim
        for k, v in field.reduce_dict(acc).items():
            out[k] = v
        return tuple(out)

    def lift(self, qcoords) -> dict:
        """Canonical ambient representative (sparse) of quotient coordinates."""
        return {self.q_coords[k]: v for k, v in enumerate(qcoords) if v}

    # -- induced maps ------------------------------------------------------------

    def multiply_ambient(self, ambient: dict) -> tuple:
        """Ring coordinates of a sparse ambient vector's image under b (x) b' -> b b'."""
        ring = self.ring
        out = [ring.field.zero] * ring.dim
        for c, v in ambient.items():
            p, q = divmod(c, self.n)
            for k, t in ring._table[p][q].items():
                out[k] += v * t
        return ring.field.reduce_vec(out)

    def left_apply_ambient(self, b_coords, ambient) -> dict:
        """Ambient action of ring multiplication by b on the left tensor leg."""
        ring = self.ring
        zero = ring.field.zero
        out: dict = {}
        support = [(i, bi) for i, bi in enumerate(b_coords) if bi]
        for c, v in ambient.items():
            p, q = divmod(c, self.n)
            for i, bi in support:
                for k, t in ring._table[i][p].items():
                    coord = k * self.n + q
                    out[coord] = out.get(coord, zero) + v * bi * t
        return ring.field.reduce_dict(out)

    def right_apply_ambient(self, b_coords, ambient) -> dict:
        """Ambient action of ring multiplication by b on the right tensor leg."""
        ring = self.ring
        zero = ring.field.zero
        out: dict = {}
        support = [(j, bj) for j, bj in enumerate(b_coords) if bj]
        for c, v in ambient.items():
            p, q = divmod(c, self.n)
            for j, bj in support:
                for k, t in ring._table[q][j].items():
                    coord = p * self.n + k
                    out[coord] = out.get(coord, zero) + v * bj * t
        return ring.field.reduce_dict(out)

    def commutator_rows(self, p: int) -> list:
        """The nonzero rows of x |-> b_p x - x b_p in quotient coordinates.

        Column k is the image of the lift b_p0 (x) b_q0 of quotient basis
        vector k: the left leg b_p b_p0 reads `_table[p][p0]`, the right leg
        b_q0 b_p reads `_table[q0][p]`, and both project through `_q_of` into
        one accumulator keyed by row * dim + column, reduced once and then
        transposed into rows.
        """
        table = self.ring._table
        field = self.ring.field
        zero = field.zero
        n, dim, q_of = self.n, self.dim, self._q_of
        left = table[p]
        acc: dict = {}
        for k, c in enumerate(self.q_coords):
            p0, q0 = divmod(c, n)
            for i, t in left[p0].items():
                for j, s in q_of.get(i * n + q0, ()):
                    key = j * dim + k
                    acc[key] = acc.get(key, zero) + t * s
            for i, t in table[q0][p].items():
                for j, s in q_of.get(p0 * n + i, ()):
                    key = j * dim + k
                    acc[key] = acc.get(key, zero) - t * s
        rows: dict = {}
        for key, v in field.reduce_dict(acc).items():
            j, k = divmod(key, dim)
            row = rows.get(j)
            if row is None:
                row = rows[j] = [zero] * dim
            row[k] = v
        return [tuple(rows[j]) for j in sorted(rows)]

    def _matrix_of(self, image) -> Matrix:
        """Matrix whose column k is `image` of the lift of quotient basis vector k."""
        field = self.ring.field
        cols = [image({c: field.one}) for c in self.q_coords]
        return Matrix._trusted(field, tuple(zip(*cols)), len(cols))

    def mult_matrix(self) -> Matrix:
        """The induced map (quotient coords) -> (ring coords)."""
        return self._matrix_of(self.multiply_ambient)

    def left_matrix(self, b_coords) -> Matrix:
        return self._matrix_of(
            lambda v: self.project(self.left_apply_ambient(b_coords, v)))

    def right_matrix(self, b_coords) -> Matrix:
        return self._matrix_of(
            lambda v: self.project(self.right_apply_ambient(b_coords, v)))

    # -- serialization ------------------------------------------------------------

    def summands(self, qcoords) -> tuple:
        """Canonical representative as a list of (g, coeffs, h, coeffs) summands."""
        ring = self.ring
        lifted = self.lift(qcoords)
        out = []
        for c in sorted(lifted):
            v = lifted[c]
            p, q = divmod(c, self.n)
            g, u = ring.basis[p]
            h, w = ring.basis[q]
            out.append((g, ring.field.reduce_vec(v * x for x in u), h, w))
        return tuple(out)


def tensor_over(ring: SkewRing) -> TensorOverA:
    """The tensor square (A*G) (x)_A (A*G) of the ring."""
    return TensorOverA(ring)


def tensor_square(action: PartialAction) -> TensorOverA:
    """(A*G) (x)_A (A*G); its `.ring` is the skew ring.

    The action keeps only a weak reference to the square (the square's ring
    points back at the action), so one square is shared for as long as a
    caller such as a certificate or an oracle result holds it.  The size cap
    is checked against (sum_g dim A_g)^2, read off the action's cached ideals,
    before the ring is built; callers validate the action first.
    """
    square = action._square() if action._square is not None else None
    if square is None:
        _check_cap(sum(action.ideal(g).dim for g in action.groupoid.morphisms) ** 2)
        ring = build_skew_ring(action)
        square = tensor_over(ring)
        action._square = weakref.ref(square)
    return square
