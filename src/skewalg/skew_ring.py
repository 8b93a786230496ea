"""The partial skew groupoid ring A*G and its tensor squares over A.

The ring is the direct sum over morphisms g of the ideals A_g, with
(a_g d_g)(b_h d_h) = alpha_g(alpha_{g^-1}(a_g) b_h) d_{gh} on composable
pairs and 0 otherwise.  Tensor squares are realised concretely: the plain
pairwise tensor space modulo the span of the balancing relations
(b.a (x) b') - (b (x) a.b'), with canonical representatives chosen by
reduced-echelon elimination.  Balancing generators never mix different
(morphism, morphism) blocks, so the relation span is stored blockwise.
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


class _Block:
    __slots__ = ("g", "h", "left_local", "right_local", "coords", "echelon", "free")

    def __init__(self, g, h, left_local, right_local, coords):
        self.g = g
        self.h = h
        self.left_local = left_local
        self.right_local = right_local
        self.coords = coords          # ambient coordinates, (u, w) lexicographic
        self.echelon = None           # local relation echelon
        self.free = None              # local free coordinate indices


class TensorOverA:
    """B_left (x)_mid B_right as an explicit quotient with canonical lifts.

    `left`/`right` select ring basis positions (the whole ring or one
    component block); `mid_rows` is a basis of the algebra being balanced
    over, as ambient algebra coefficient vectors.
    """

    def __init__(self, ring: SkewRing, left_positions, right_positions,
                 mid_rows, mid_label: str):
        self.ring = ring
        self.left_positions = tuple(left_positions)
        self.right_positions = tuple(right_positions)
        self.mid_rows = tuple(mid_rows)
        self.mid_label = mid_label
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
        self.blocks = self._make_blocks()
        self._coord_block = {}
        for bi, blk in enumerate(self.blocks):
            for li_local, c in enumerate(blk.coords):
                self._coord_block[c] = (bi, li_local)
        self._build_relations()
        self._check_mult_well_defined()
        # the ambient coordinate that lifts each quotient coordinate
        self.q_coords = tuple(blk.coords[f] for blk in self.blocks for f in blk.free)
        self.dim = len(self.q_coords)
        self._q_offset = {}
        at = 0
        for bi, blk in enumerate(self.blocks):
            self._q_offset[bi] = at
            at += len(blk.free)

    # -- construction -------------------------------------------------------

    def _make_blocks(self) -> list:
        ring = self.ring
        by_morph_left: list = []
        for i, p in enumerate(self.left_positions):
            g = ring.basis[p][0]
            if by_morph_left and by_morph_left[-1][0] == g:
                by_morph_left[-1][1].append(i)
            else:
                by_morph_left.append((g, [i]))
        by_morph_right: list = []
        for i, p in enumerate(self.right_positions):
            h = ring.basis[p][0]
            if by_morph_right and by_morph_right[-1][0] == h:
                by_morph_right[-1][1].append(i)
            else:
                by_morph_right.append((h, [i]))
        blocks = []
        for g, lls in by_morph_left:
            for h, rls in by_morph_right:
                coords = tuple(li * self.n_right + ri for li in lls for ri in rls)
                blocks.append(_Block(g, h, tuple(lls), tuple(rls), coords))
        return blocks

    def _build_relations(self) -> None:
        ring = self.ring
        act = ring.action
        alg = act.algebra
        field = ring.field
        for blk in self.blocks:
            nu, nw = len(blk.left_local), len(blk.right_local)
            width = nu * nw
            ech = Echelonizer(field, width)
            g_ideal = act.ideal(blk.g)
            h_ideal = act.ideal(blk.h)
            for a in self.mid_rows:
                # right bimodule action on the left leg: u . a
                moved = act.alpha(blk.g, a)
                ra = [g_ideal.coords(alg.multiply(u, moved)) for u in g_ideal.rows]
                # left bimodule action on the right leg: a . w
                la = [h_ideal.coords(alg.multiply(a, w)) for w in h_ideal.rows]
                for ui in range(nu):
                    for wi in range(nw):
                        row = [field.zero] * width
                        for ui2 in range(nu):
                            row[ui2 * nw + wi] = row[ui2 * nw + wi] + ra[ui][ui2]
                        for wi2 in range(nw):
                            row[ui * nw + wi2] = row[ui * nw + wi2] - la[wi][wi2]
                        ech.insert(field.reduce_vec(row))
            blk.echelon = ech.to_echelon()
            piv = set(blk.echelon.pivots)
            blk.free = tuple(j for j in range(width) if j not in piv)

    def _check_mult_well_defined(self) -> None:
        """The multiplication map must annihilate the whole relation span."""
        for blk in self.blocks:
            for row in blk.echelon.rows:
                sparse = {blk.coords[j]: c for j, c in enumerate(row) if c}
                if any(self.multiply_ambient(sparse)):
                    raise SkewRingError(
                        "multiplication does not factor through the tensor quotient")

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
        zero = self.ring.field.zero
        per_block: dict = {}
        for c, v in ambient.items():
            bi, local = self._coord_block[c]
            per_block.setdefault(bi, {})[local] = v
        out = [zero] * self.dim
        for bi, localvals in per_block.items():
            blk = self.blocks[bi]
            width = len(blk.coords)
            local = [zero] * width
            for j, v in localvals.items():
                local[j] = v
            reduced = blk.echelon.reduce(local)
            off = self._q_offset[bi]
            for k, f in enumerate(blk.free):
                out[off + k] = reduced[f]
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


def tensor_over(left, right, mid=None) -> TensorOverA:
    """Tensor product over A (mid=None) or over a component subalgebra.

    `left` and `right` are the ring itself or component ideals of it; `mid`
    is None for the full coefficient algebra, or a tuple of objects (or a
    ComponentIdeal) selecting the component subalgebra A_[e].
    """
    ring = left if isinstance(left, SkewRing) else left.unit.ring
    lpos = _positions_of(ring, left)
    rpos = _positions_of(ring, right)
    alg = ring.action.algebra
    if mid is None:
        mid_rows = tuple(alg.basis_vector(i) for i in range(alg.dim))
        label = "A"
    else:
        objs = mid.objects if isinstance(mid, ComponentIdeal) else tuple(mid)
        u = alg.zero()
        for f in objs:
            u = vadd(alg.field, u, ring.action.obj_idem(f))
        mid_rows = alg.ideal_basis(u).basis.rows
        label = "A[%s]" % ",".join(str(o) for o in objs)
    return TensorOverA(ring, lpos, rpos, mid_rows, label)


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
