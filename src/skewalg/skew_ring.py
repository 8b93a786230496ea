"""The partial skew groupoid ring A*G and its tensor squares over A.

The ring is the direct sum over morphisms g of the ideals A_g, with
(a_g d_g)(b_h d_h) = alpha_g(alpha_{g^-1}(a_g) b_h) d_{gh} on composable
pairs and 0 otherwise.  Tensor squares over A are realised concretely in
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
from dataclasses import dataclass

from .algebra import nonassociative_triple, table_product
from .linalg import Echelonizer, Matrix, vadd
from .partial_action import NotUnitalAction, PartialAction

DEFAULT_MAX_TENSOR_DIM = 4096


class SkewRingError(Exception):
    pass


class TensorTooLarge(SkewRingError):
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

    def coeff(self, g) -> tuple:
        alg = self.ring.action.algebra
        return self.parts.get(g, alg.zero())

    def coords(self) -> tuple:
        return self.ring.coords_of(self)

    def __add__(self, other):
        self._same_ring(other)
        field = self.ring.field
        out = dict(self.parts)
        for g, v in other.parts.items():
            out[g] = vadd(field, out[g], v) if g in out else v
        return SkewRingElement(self.ring, out, check=False)

    def __neg__(self):
        field = self.ring.field
        return SkewRingElement(
            self.ring, {g: field.reduce_vec(-x for x in v) for g, v in self.parts.items()},
            check=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SkewRingElement):
            self._same_ring(other)
            return self.ring.mul(self, other)
        return NotImplemented

    def __rmul__(self, other):
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


@dataclass(frozen=True)
class ComponentIdeal:
    """One block B_[e] of the ring, with its identity element u_[e]."""

    objects: tuple
    positions: tuple
    unit: SkewRingElement


class SkewRing:
    """Built by `build_skew_ring`; verifies associativity on basis triples.

    The multiplication table is in the sparse format of `algebra`:
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
        self._embed_checked = False

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

    def zero_coords(self) -> tuple:
        return (self.field.zero,) * self.dim

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

    def from_coords(self, coords) -> SkewRingElement:
        parts = {}
        for g in self.action.groupoid.morphisms:
            ideal = self.action.ideal(g)
            at = self.starts[g]
            local = coords[at:at + ideal.dim]
            if any(local):
                parts[g] = ideal.combine(local)
        return SkewRingElement(self, parts, check=False)

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

    def embed(self, a) -> SkewRingElement:
        """The ring embedding a |-> sum_e (a 1_e) d_e of A into the skew ring."""
        alg = self.action.algebra
        a = alg.element(a)
        if not self._embed_checked:
            self._embed_checked = True
            for i in range(alg.dim):
                x = alg.basis_vector(i)
                for j in range(alg.dim):
                    y = alg.basis_vector(j)
                    lhs = self._embed_raw(alg.multiply(x, y))
                    if lhs != self._embed_raw(x) * self._embed_raw(y):
                        raise SkewRingError("embedding is not multiplicative")
        return self._embed_raw(a)

    def _embed_raw(self, a) -> SkewRingElement:
        g_oid = self.action.groupoid
        alg = self.action.algebra
        parts = {g_oid.identity[e]: alg.multiply(a, self.action.obj_idem(e))
                 for e in g_oid.objects}
        return SkewRingElement(self, parts, check=False)

    def left_act(self, a, x: SkewRingElement) -> SkewRingElement:
        """Bimodule action a . (a_g d_g) = (a a_g) d_g."""
        alg = self.action.algebra
        a = alg.element(a)
        return SkewRingElement(
            self, {g: alg.multiply(a, v) for g, v in x.parts.items()}, check=False)

    def right_act(self, x: SkewRingElement, a) -> SkewRingElement:
        """Bimodule action (a_g d_g) . a = a_g alpha_g(a 1_{g^-1}) d_g."""
        alg = self.action.algebra
        a = alg.element(a)
        return SkewRingElement(
            self,
            {g: alg.multiply(v, self.action.alpha(g, a)) for g, v in x.parts.items()},
            check=False)

    # -- component structure -----------------------------------------------------

    def component_ideals(self) -> tuple:
        """The blocks B_[e] with their identities; all block laws re-verified."""
        g_oid = self.action.groupoid
        partition = g_oid.connected_components()
        out = []
        units = []
        for cls in partition.classes:
            inside = set(cls)
            positions = tuple(p for p, (g, _) in enumerate(self.basis)
                              if g_oid.tgt[g] in inside)
            pos_set = set(positions)
            for p in positions:
                for q in range(self.dim):
                    for prod in (self.mul_coords(self.basis_coords(p), self.basis_coords(q)),
                                 self.mul_coords(self.basis_coords(q), self.basis_coords(p))):
                        if any(c and k not in pos_set
                               for k, c in enumerate(prod)):
                            raise SkewRingError("component block is not a two-sided ideal")
            u = SkewRingElement(
                self, {g_oid.identity[f]: self.action.obj_idem(f) for f in cls},
                check=False)
            uc = self.coords_of(u)
            for q in range(self.dim):
                b = self.basis_coords(q)
                if self.mul_coords(uc, b) != self.mul_coords(b, uc):
                    raise SkewRingError("component unit is not central")
                expected = b if q in pos_set else self.zero_coords()
                if self.mul_coords(b, uc) != expected:
                    raise SkewRingError("B*u_i does not match the component block")
            out.append(ComponentIdeal(cls, positions, u))
            units.append(u)
        total = units[0]
        for u in units[1:]:
            total = total + u
        if total != self.unit():
            raise SkewRingError("component units do not sum to the ring unit")
        for a in range(len(units)):
            for b in range(len(units)):
                if a != b and not (units[a] * units[b]).is_zero():
                    raise SkewRingError("component units are not orthogonal")
        return tuple(out)

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


# -- tensor squares over A ------------------------------------------------------


class TensorOverA:
    """B_left (x)_A B_right in the psi normal form, with canonical lifts.

    `left_positions`/`right_positions` select ring basis positions (the whole
    ring or one component block).  Ambient coordinate li * n_right + ri is the
    basis pair (u d_g, w d_h); its (g, h) block of the quotient is psi's image
    A e_{g,h}, with inverse a |-> a d_g (x) 1_h d_h.  Scanning a composable
    block from the right, each pair whose psi-image is independent of those to
    its right is free: these are the free columns of the leftmost-pivot
    echelon form of the balancing relations, so `q_coords`, `lift` and
    `summands` are the canonical ones of the quotient by relations.  `project`
    sums, per ambient coordinate, the coordinates of its psi-image in the
    basis of free psi-images (`q_psi`), stored at construction.
    """

    def __init__(self, ring: SkewRing, left_positions, right_positions):
        self.ring = ring
        self.left_positions = tuple(left_positions)
        self.right_positions = tuple(right_positions)
        self.n_left = len(self.left_positions)
        self.n_right = len(self.right_positions)
        self.ambient_dim = self.n_left * self.n_right
        cap = int(os.environ.get("SKEWALG_MAX_DIM", DEFAULT_MAX_TENSOR_DIM))
        if self.ambient_dim > cap:
            raise TensorTooLarge(
                "tensor ambient dimension %d exceeds cap %d (SKEWALG_MAX_DIM)"
                % (self.ambient_dim, cap))
        self._lpos_index = {p: i for i, p in enumerate(self.left_positions)}
        self._rpos_index = {p: i for i, p in enumerate(self.right_positions)}
        q_coords: list = []
        q_psi: list = []
        self._q_of: dict = {}         # ambient coordinate -> ((quotient k, value), ...)
        g_oid = ring.action.groupoid
        right_runs = _morphism_runs(ring, self.right_positions)
        for g, lls in _morphism_runs(ring, self.left_positions):
            for h, rls in right_runs:
                if g_oid.src[g] == g_oid.tgt[h]:
                    lifts, psi = self._read_block(g, lls, h, rls, len(q_coords))
                    q_coords.extend(lifts)
                    q_psi.extend(psi)
        self.q_coords = tuple(q_coords)   # ambient coordinate lifting each quotient one
        self.q_psi = tuple(q_psi)         # psi-image of each quotient basis vector
        self.dim = len(self.q_coords)

    # -- construction -------------------------------------------------------

    def _read_block(self, g, lls, h, rls, off: int) -> tuple:
        """(lifts, psi-images) of the free columns of block (g, h), whose
        quotient coordinates start at `off`; records each ambient coordinate's
        quotient coordinates in `_q_of`."""
        ring = self.ring
        act = ring.action
        field = ring.field
        gh = act.groupoid.compose[(g, h)]
        target = act.ideal(gh)
        moved = [act.alpha(g, ring.basis[self.right_positions[ri]][1]) for ri in rls]
        coords, kinds = [], []        # per basis pair (u, w), lexicographic
        kind_of: dict = {}            # psi-image -> its index in `images`
        images, products = [], []     # distinct psi-images y; ring coordinates of y d_{gh}
        for li in lls:
            p = self.left_positions[li]
            u = ring.basis[p][1]
            for ri, m in zip(rls, moved):
                y = act.algebra.multiply(u, m)
                k = kind_of.setdefault(y, len(images))
                if k == len(images):
                    images.append(y)
                    products.append(ring._scatter(gh, y) if target.contains(y) else None)
                if ring._table[p][self.right_positions[ri]] != products[k]:
                    raise SkewRingError(
                        "multiplication does not factor through the tensor quotient")
                coords.append(li * self.n_right + ri)
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
        for p, c in enumerate(xc):
            if c and p not in self._lpos_index:
                raise SkewRingError("left factor leaves the selected ideal")
        for p, c in enumerate(yc):
            if c and p not in self._rpos_index:
                raise SkewRingError("right factor leaves the selected ideal")
        out: dict = {}
        for p, c in enumerate(xc):
            if not c:
                continue
            li = self._lpos_index[p]
            for q, d in enumerate(yc):
                if not d:
                    continue
                coord = li * self.n_right + self._rpos_index[q]
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
            li, ri = divmod(c, self.n_right)
            prod = ring._table[self.left_positions[li]][self.right_positions[ri]]
            for k, t in prod.items():
                out[k] += v * t
        return ring.field.reduce_vec(out)

    def left_apply_ambient(self, b_coords, ambient) -> dict:
        """Ambient action of ring multiplication by b on the left tensor leg."""
        ring = self.ring
        zero = ring.field.zero
        out: dict = {}
        support = [(i, bi) for i, bi in enumerate(b_coords) if bi]
        for c, v in ambient.items():
            li, ri = divmod(c, self.n_right)
            p = self.left_positions[li]
            for i, bi in support:
                for k, t in ring._table[i][p].items():
                    li2 = self._lpos_index.get(k)
                    if li2 is None:
                        raise SkewRingError("left action leaves the selected ideal")
                    coord = li2 * self.n_right + ri
                    out[coord] = out.get(coord, zero) + v * bi * t
        return ring.field.reduce_dict(out)

    def right_apply_ambient(self, b_coords, ambient) -> dict:
        """Ambient action of ring multiplication by b on the right tensor leg."""
        ring = self.ring
        zero = ring.field.zero
        out: dict = {}
        support = [(j, bj) for j, bj in enumerate(b_coords) if bj]
        for c, v in ambient.items():
            li, ri = divmod(c, self.n_right)
            p = self.right_positions[ri]
            for j, bj in support:
                for k, t in ring._table[p][j].items():
                    ri2 = self._rpos_index.get(k)
                    if ri2 is None:
                        raise SkewRingError("right action leaves the selected ideal")
                    coord = li * self.n_right + ri2
                    out[coord] = out.get(coord, zero) + v * bj * t
        return ring.field.reduce_dict(out)

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
            li, ri = divmod(c, self.n_right)
            g, u = ring.basis[self.left_positions[li]]
            h, w = ring.basis[self.right_positions[ri]]
            out.append((g, ring.field.reduce_vec(v * x for x in u), h, w))
        return tuple(out)


def _positions_of(ring: SkewRing, part) -> tuple:
    if isinstance(part, SkewRing):
        # two builds over the same action give literally the same basis
        if part is not ring and part.action is not ring.action:
            raise SkewRingError("tensor factors must come from one ring")
        return tuple(range(ring.dim))
    if isinstance(part, ComponentIdeal):
        if part.unit.ring is not ring and part.unit.ring.action is not ring.action:
            raise SkewRingError("tensor factors must come from one ring")
        return part.positions
    raise SkewRingError("tensor factor must be a SkewRing or ComponentIdeal")


def _morphism_runs(ring: SkewRing, positions) -> list:
    """[(g, indices into positions)] for the runs of positions on one morphism."""
    runs: list = []
    for i, p in enumerate(positions):
        g = ring.basis[p][0]
        if runs and runs[-1][0] == g:
            runs[-1][1].append(i)
        else:
            runs.append((g, [i]))
    return runs


def tensor_over(left, right) -> TensorOverA:
    """Tensor product over A of the ring or component ideals of it."""
    ring = left if isinstance(left, SkewRing) else left.unit.ring
    return TensorOverA(ring, _positions_of(ring, left), _positions_of(ring, right))


def tensor_square(action: PartialAction) -> TensorOverA:
    """(A*G) (x)_A (A*G); its `.ring` is the skew ring.

    The action keeps only a weak reference to the square (the square's ring
    points back at the action), so one square is shared for as long as a
    caller such as a certificate or an oracle result holds it.
    """
    square = action._square() if action._square is not None else None
    if square is None:
        ring = build_skew_ring(action)
        square = tensor_over(ring, ring)
        action._square = weakref.ref(square)
    return square
