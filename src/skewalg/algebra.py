"""Finite-dimensional unital associative algebras given by structure constants.

An algebra of dimension n over a Field is the data c[i][j][k] with
b_i * b_j = sum_k c[i][j][k] b_k, plus the coefficient vector of the unit.
Elements are plain coefficient tuples.  The constants are kept only as a
sparse table whose entry [i][j] maps each k to a nonzero c[i][j][k], built
once from the nonzero constants: `Algebra(...)` takes each row of constants
dense, as the n scalars c[i][j][0..n-1], and checks each one with
`Field.coerce`; the instance reader builds the sparse table of the
constants it parsed, and `Algebra.diagonal` writes its sparse table and
its unit from `field.one`, and both skip that check.  `table_product` and
`nonassociative_triple` are the one product and the one associativity
audit over such tables, for this module and the skew ring A*G alike; the
audit visits only the candidate pairs (i, j) whose triples can have a
nonzero term.  The unit law and associativity of a table given to
`Algebra(...)` are checked at construction; `Algebra.diagonal` writes a
table whose laws hold by proof (in its docstring), so it is not audited.
So `multiply` returns the other factor, reduced and kept, when one factor
is the unit, by the unit law; the check itself calls `table_product`, so
it does not rest on what it checks.  The unit is recognised by identity
alone: a vector equal to it that the package computed is that same object,
since `element`, `multiply` and `PartialAction.alpha` keep what they
return, so do the certificate's rebuilt blocks (`_reduced`), the basis
vectors are kept, and the only ideal basis with a row equal to the unit is
the standard basis of A*1; any other copy takes the general path.  `table_product` computes the product of two vectors with one
nonzero entry each, c b_i and c' b_j, as c c' times the table entry
[i][j], by bilinearity.
The centre is the kernel of the system x*b_j - b_j*x = 0 read off the
nonzero constants, one row per (j, k) that one of them reaches, kept as
the `Echelon` that `kernel` returns.  The ideal A*e of a central
idempotent e has one membership test, `ideal_coords`: y is in A*e iff
y*e == y, and then its coordinates in the canonical basis `ideal_basis(e)`
are its entries at the pivots, with no elimination.

An `Algebra` computes each product x*y and each centrality verdict once:
the checks of a partial action keep multiplying the same few canonical
vectors (basis vectors, ideal rows, domain idempotents), so `multiply`
and `is_central_idempotent` keep their results, which are immutable tuples
and bools, in dicts on the instance.  Equal products share one tuple: most
kept products of a large algebra are the zero vector.  `right_mul_matrix`
keeps nothing: it builds the default map R_e of an identity arrow, once
per object.  `element` checks each scalar of a vector given from outside,
and passes a kept vector (one it, `multiply` or `PartialAction.alpha`
returned) as it is.

Whether A is commutative is decided once, when it is built: one pass over
the sparse table comparing entry [i][j] with entry [j][i] (zero constants
are never stored, so two entries are equal iff the constants are), and by
proof for `Algebra.diagonal`.  On commutative A every x commutes with every
basis vector, so `commutes_with_all` answers at once (after its length
check), `is_central_idempotent` reduces to e*e == e, and the centre is all
of A: its system has only zero rows, and the canonical basis of the kernel
of such a system is the standard basis, kept with no elimination.
"""

from __future__ import annotations

from itertools import compress, count

from .linalg import (DimensionMismatch, Echelon, Field, LinalgError, Matrix,
                     echelon, kernel, vadd, vzero)


def table_product(table, x, y, field) -> tuple:
    """Coordinates of x*y over a sparse structure-constant table."""
    out = [field.zero] * len(table)
    if len(x) - x.count(0) == 1 and len(y) - y.count(0) == 1:
        # c b_i b_j, whose constants are reduced: as they are if c is 1
        i, j = next(compress(count(), x)), next(compress(count(), y))
        c = x[i] * y[j]
        if c == 1 and type(c) is int:
            for k, t in table[i][j].items():
                out[k] = t
            return tuple(out)
        for k, t in table[i][j].items():
            out[k] = c * t
        return field.reduce_vec(out)
    support = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = table[i]
        for j, yj in support:
            t = row[j]
            if t:
                c = xi * yj
                for k, tk in t.items():
                    out[k] += c * tk
    return field.reduce_vec(out)


def nonassociative_triple(table, field):
    """The first basis triple (i, j, k), in lexicographic order, where
    (b_i b_j) b_k != b_i (b_j b_k) over a sparse table, or None.

    Only the triples with a nonzero term are summed: (b_i b_j) b_k has one
    iff some b_m in b_i b_j has b_m b_k != 0, and b_i (b_j b_k) iff some b_m
    in b_j b_k has b_i b_m != 0.  So only the candidate pairs (i, j) are
    visited: b_i b_j != 0, or b_i b_m != 0 for some m that a product b_j b_k
    reaches, found through an index of the rows j by the coordinates m their
    products reach.  Every other triple has both sides 0, on any table, so
    the first failing triple is the one a scan of all dim^3 triples would
    find.
    """
    zero = field.zero
    # per row m, the (k, b_m b_k) with b_m b_k != 0
    nonzero = [[(k, t) for k, t in enumerate(row) if t] for row in table]
    # per coordinate m, the rows j with m in the support of some b_j b_k
    reached_by = [set() for _ in table]
    for j, row in enumerate(nonzero):
        for _, t in row:
            for m in t:
                reached_by[m].add(j)

    def add(acc: dict, c, t: dict) -> None:
        for q, tq in t.items():
            acc[q] = acc.get(q, zero) + c * tq

    for i, row_i in enumerate(table):
        pairs = set()
        for m, _ in nonzero[i]:
            pairs.add(m)
            pairs |= reached_by[m]
        for j in sorted(pairs):
            ij = row_i[j]
            left: dict = {}       # k -> unreduced (b_i b_j) b_k
            for m, c in ij.items():
                for k, t in nonzero[m]:
                    add(left.setdefault(k, {}), c, t)
            right: dict = {}      # k -> unreduced b_i (b_j b_k)
            for k, jk in nonzero[j]:
                for m, c in jk.items():
                    t = row_i[m]
                    if t:
                        add(right.setdefault(k, {}), c, t)
            for k in sorted(left.keys() | right.keys()):
                if (field.reduce_dict(left.get(k, {})) !=
                        field.reduce_dict(right.get(k, {}))):
                    return i, j, k
    return None


class AlgebraError(Exception):
    pass


class NotCentralIdempotent(AlgebraError):
    pass


class Algebra:

    def __init__(self, field: Field, structure, unit, basis_names=None, *,
                 _sparse=False, _proved=False):
        """Each constant and unit scalar is checked with `Field.coerce`, and
        the unit law and associativity are audited.  Two callers pass a
        finished sparse table and unit tuple of field scalars instead
        (`_sparse`), whose scalars are not checked again: the instance
        reader, which parsed each one with `Field.parse`, and `diagonal`,
        which writes them from `field.one` and proves their laws and
        commutativity (`_proved`), so they are not audited either."""
        self.field = field
        self.dim = dim = len(structure)
        if _sparse:
            self._table = structure
        else:
            coerce = field.coerce
            table = []
            for plane in structure:
                if len(plane) != dim:
                    raise DimensionMismatch("structure constants are not dim^3")
                rows = []
                for row in plane:
                    # a dict would be read by its keys
                    if isinstance(row, dict) or len(row) != dim:
                        raise DimensionMismatch("structure constants are not dim^3")
                    rows.append({k: c for k, x in enumerate(row) if (c := coerce(x))})
                table.append(tuple(rows))
            self._table = tuple(table)
            unit = tuple(coerce(c) for c in unit)
        table = self._table
        self.commutative = _proved or all(row[j] == table[j][i] for i, row in enumerate(table)
                                          for j in range(i))
        one, zero = field.one, field.zero
        self._values: dict = {}        # each distinct product or element, kept once
        self.unit = self._keep(unit)
        self._basis = tuple(self._keep(tuple(one if j == i else zero for j in range(dim)))
                            for i in range(dim))
        if basis_names is None:
            basis_names = tuple("b%d" % i for i in range(self.dim))
        self.basis_names = tuple(basis_names)
        if len(self.basis_names) != self.dim:
            raise DimensionMismatch("basis name count mismatch")
        self._ideals: dict = {}
        self._center: Echelon | None = None
        self._products: dict = {}      # (x, y) -> x*y
        self._central: dict = {}       # e -> is e a central idempotent
        if not _proved:
            self._check_laws()

    @classmethod
    def diagonal(cls, field: Field, n: int, basis_names=None) -> "Algebra":
        """k^n with pairwise orthogonal idempotent basis vectors summing to 1.

        The table is b_i b_j = delta_ij b_i and the unit is u = sum_i b_i, so
        the laws `_check_laws` would audit hold on every such table and are
        not checked.  Unit: u b_j = sum_i delta_ij b_i = b_j, and b_j u = b_j
        alike.  Associativity: (b_i b_j) b_k and b_i (b_j b_k) are both b_i
        if i = j = k and both 0 otherwise, and the product is bilinear, so
        (xy)z = x(yz) for all x, y, z.  For n = 0 both hold vacuously.  It
        is commutative: b_i b_j = delta_ij b_i = b_j b_i.
        """
        one = field.one
        table = tuple(tuple({i: one} if i == j else {} for j in range(n)) for i in range(n))
        return cls(field, table, (one,) * n, basis_names, _sparse=True, _proved=True)

    def _check_laws(self) -> None:
        # on the table itself: `multiply` trusts the unit law checked here
        table, unit, field = self._table, self.unit, self.field
        for b in self._basis:
            if (table_product(table, unit, b, field) != b
                    or b != unit and table_product(table, b, unit, field) != b):
                raise AlgebraError("declared unit is not a two-sided identity")
        bad = nonassociative_triple(self._table, self.field)
        if bad is not None:
            raise AlgebraError(
                "multiplication not associative at basis triple (%d, %d, %d)" % bad)

    # -- elements ---------------------------------------------------------

    def element(self, coeffs) -> tuple:
        """coeffs as a vector of this algebra.  A vector kept in `_values` (one
        `element`, `multiply` or `PartialAction.alpha` returned) passes as it
        is; any other, a float twin of a kept vector too, has each scalar
        checked with `Field.coerce`."""
        try:
            if self._values.get(coeffs) is coeffs:
                return coeffs
        except TypeError:       # a list, or a tuple holding one
            pass
        return self._keep(tuple(self.field.coerce(c) for c in coeffs))

    def _keep(self, v: tuple) -> tuple:
        """The kept copy of a vector of field scalars, after its length check."""
        if len(v) != self.dim:
            raise DimensionMismatch("element length %d != dim %d" % (len(v), self.dim))
        return self._values.setdefault(v, v)

    def _reduced(self, v) -> tuple:
        """The kept copy of v with its scalars brought into the field: a
        kept vector equal to v is v reduced."""
        try:
            kept = self._values.get(v)
        except TypeError:       # a list
            kept = None
        if kept is None:
            v = self.field.reduce_vec(v)
            kept = self._values.setdefault(v, v)
        return kept

    def basis_vector(self, i: int) -> tuple:
        return self._basis[i]

    def zero(self) -> tuple:
        return vzero(self.field, self.dim)

    # -- multiplication ----------------------------------------------------

    def multiply(self, x, y) -> tuple:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element does not match algebra dimension")
        # by the unit law
        unit = self.unit
        if x is unit:
            return self._reduced(y)
        if y is unit:
            return self._reduced(x)
        key = (tuple(x), tuple(y))
        out = self._products.get(key)
        if out is None:
            out = table_product(self._table, x, y, self.field)
            out = self._products[key] = self._values.setdefault(out, out)
        return out

    def right_mul_matrix(self, x) -> Matrix:
        """Matrix of y -> y*x on coefficient columns."""
        cols = [self.multiply(b, x) for b in self._basis]
        return Matrix._trusted(self.field, tuple(zip(*cols)), self.dim)

    def commutes_with_all(self, x) -> bool:
        if self.commutative:
            if len(x) != self.dim:
                raise DimensionMismatch("element does not match algebra dimension")
            return True
        return all(self.multiply(x, b) == self.multiply(b, x) for b in self._basis)

    # -- center, idempotents, ideals ----------------------------------------

    def center_basis(self) -> Echelon:
        """Canonical basis of {x : x*b == b*x for every basis element b}.

        x = sum_i x_i b_i commutes with b_j iff, for each k,
        sum_i x_i (c[i][j][k] - c[j][i][k]) == 0: one row per (j, k) that a
        nonzero constant reaches, read off the table.  The kernel of a system
        depends only on its row space, which has one reduced echelon form, so
        leaving out the all-zero rows changes no basis vector.  On commutative
        A every row is zero, and the kernel's canonical basis is the standard
        basis.
        """
        if self._center is None and self.commutative:
            self._center = Echelon(self.field, self.dim, self._basis, tuple(range(self.dim)))
        if self._center is None:
            field, dim = self.field, self.dim
            rows: dict = {}             # (j, k) -> unreduced row over i

            def row(j, k) -> list:
                r = rows.get((j, k))
                if r is None:
                    r = rows[(j, k)] = [field.zero] * dim
                return r

            # c[a][b][k] is the term of x_a in row (b, k), minus that of x_b in row (a, k)
            for a, row_a in enumerate(self._table):
                for b, ab in enumerate(row_a):
                    for k, c in ab.items():
                        row(b, k)[a] += c
                        row(a, k)[b] -= c
            self._center = kernel(field, [field.reduce_vec(r) for r in rows.values()], dim)
        return self._center

    def is_central_idempotent(self, e) -> bool:
        e = self.element(e)
        verdict = self._central.get(e)
        if verdict is None:
            verdict = self._central[e] = (self.multiply(e, e) == e and
                                          self.commutes_with_all(e))
        return verdict

    def ideal_basis(self, e) -> Echelon:
        """Canonical basis of A*e for a central idempotent e.

        A*1 = A has the standard basis, whose vectors are kept, so a row
        equal to the unit is the unit object; no other ideal has such a row,
        since 1 = a e gives e = 1 e = a e e = a e = 1.
        """
        e = self.element(e)
        basis = self._ideals.get(e)
        if basis is None:
            if e is self.unit:
                basis = Echelon(self.field, self.dim, self._basis, tuple(range(self.dim)))
            elif not self.is_central_idempotent(e):
                raise NotCentralIdempotent("%r is not a central idempotent" % (e,))
            else:
                images = [self.multiply(b, e) for b in self._basis]
                basis = echelon(self.field, images, self.dim)
            self._ideals[e] = basis
        return basis

    def ideal_coords(self, e, y) -> tuple:
        """The coordinates of y in `ideal_basis(e)`, e a central idempotent.

        y lies in A*e iff y*e == y: y = a*e gives y*e = a*e*e = y.  A vector
        of the span of a reduced echelon basis is the combination of its rows
        with its own entries at the pivots.  A y outside A*e raises
        LinalgError.
        """
        basis = self.ideal_basis(e)
        if self.multiply(y, e) != tuple(y):
            raise LinalgError("vector is not in the subspace")
        return tuple(y[p] for p in basis.pivots)

    def check_object_decomposition(self, idems) -> bool:
        """True iff the given central idempotents are orthogonal and sum to 1."""
        total = self.zero()
        idems = [self.element(e) for e in idems]
        for e in idems:
            if not self.is_central_idempotent(e):
                return False
        for a in range(len(idems)):
            for b in range(len(idems)):
                if a != b and any(self.multiply(idems[a], idems[b])):
                    return False
            total = vadd(self.field, total, idems[a])
        return total == self.unit
