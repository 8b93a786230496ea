"""Exact linear algebra over the rationals and over prime fields GF(p).

Everything in this module is exact.  A scalar of Q is a plain `int` when it
is integral and a `fractions.Fraction` with denominator > 1 otherwise, so
the common integral case runs on Python's int arithmetic; a scalar of GF(p)
is a plain `int` in range(p).  `Field` alone decides these representations
and owns what Python ints cannot do alone: reduction mod p, exact inversion,
and, over Q, turning an integral `Fraction` (which `Fraction op int` returns
even when the value is whole) back into its numerator.  Each kernel that
adds or multiplies scalars normalises its own output once, through
`Field.reduce_vec` or `Field.reduce_dict`, so a zero scalar is always falsy
and `str()` prints the same text whichever type holds the value.  Scalars
from outside are checked once, where they enter: by `Field.parse` for
instance files, and by `Field.coerce` in the public `Matrix(...)`, in the
right-hand side of `solve_affine` and in `Algebra(...)` (each given
structure constant, while the sparse table is built) and `Algebra.element`.
The maps the package builds itself (parsed action maps, the default
identity maps and the trace maps) wrap their
reduced rows with `Matrix._trusted` and skip that check.

Vectors are plain tuples and a linear system is a sequence of rows, each a
tuple of scalars; a subspace is an `Echelon`.  A `Matrix` is only a linear
map: it is built, applied to vectors and printed, and nothing else.  There
is no matrix arithmetic, and a product is read column by column through
`apply`.  The kernels are sparse in effect: applications, eliminations and
combinations skip zero entries by truthiness instead of computing with
them.  `Matrix.apply` runs on a column index of the nonzero entries, built
lazily on its first call and cached on the matrix, so it costs the
nonzeros in the columns of the vector's support.  Row reduction uses
deterministic leftmost-pivot elimination so that every downstream basis,
solution set and certificate is byte-reproducible.
Every elimination is built in this module, on one core, `Echelonizer`,
which keeps the reduced rows sparse, as {column: value} over their nonzero
entries, and goes through one of two functions.  `echelon` (behind
`kernel` and `solve_affine`, which take a system's rows and its number of
unknowns) returns the nonzero rows and pivots of a span.  It inserts the
rows shortest first (fewest nonzero entries), so the early pivot rows stay
short and later rows pick up little fill-in.  The order cannot change the
result, because a row space has exactly one reduced echelon form (leftmost
pivots, pivot entries 1, pivot columns cleared in every other row),
whatever order its rows are taken in; every basis, `AffineSolutionSet` and
certificate is a function of that form.  `kernel` returns the null space
as its `Echelon`.  `free_basis` (behind the psi blocks of the tensor
square and the validation's fallback preimage) scans vectors from the
last, with a tag column each, and returns the free ones with the change of
basis from their span's echelon rows to them; `free_coords` reads a
vector's coordinates over the free ones off it.  Tuples go in and come
out: only the rows of a finished echelon form are dense.
`Echelonizer.insert` turns a zero row away before it eliminates anything,
since a zero row cannot enlarge a span.
An input that already settles the answer skips the general work, chosen
from the input alone.  Vectors whose nonzero members are already a
reduced echelon basis (each starts with 1, no two at the same column, each
0 at the others' starting columns) are their own echelon form, ordered by
pivot, because a row space has exactly one; `free_basis` finds each of
them free, at its starting column, with unit change-of-basis rows, and
builds no `Echelonizer`.  `Matrix.apply` maps a zero vector to zero and a
vector with one nonzero entry x at j to x times column j, by linearity.
Every other input takes the general path, and a shortcut returns the same
scalars and raises the same `DimensionMismatch` as that path would.
Membership is not decided here: the package only reads vectors in the
ideals A*e of central idempotents, through `Algebra.ideal_coords`, which
tests y*e == y and eliminates nothing.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from operator import itemgetter
from typing import Iterable, Sequence


class LinalgError(Exception):
    pass


class DimensionMismatch(LinalgError):
    pass


# Miller-Rabin with the first 13 prime bases is exact below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < MAX_MODULUS; larger n is a ValueError."""
    if n >= MAX_MODULUS:
        raise ValueError("modulus %d is too large (must be below %d)" % (n, MAX_MODULUS))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The scalar domain: Q (p is None) or GF(p) for a prime p.

    A scalar of Q is an `int` when integral and a `Fraction` with
    denominator > 1 otherwise; a scalar of GF(p) is an `int` in range(p).
    `inv` inverts exactly; `reduce_vec` and `reduce_dict` bring a kernel's
    unreduced output into that form, one call per vector or dict.
    """

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

    def from_int(self, n: int) -> int:
        return int(n) if self.p is None else n % self.p

    def inv(self, x):
        """The inverse of a nonzero scalar; ZeroDivisionError on 0."""
        if self.p is None:
            if type(x) is int:
                return x if x == 1 or x == -1 else Fraction(1, x)
            n, d = x.numerator, x.denominator
            return d * n if n == 1 or n == -1 else Fraction(d, n)
        if not x % self.p:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return pow(x, -1, self.p)

    def reduce_vec(self, values) -> tuple:
        """The tuple of `values`, each brought into the field."""
        if self.p is None:
            return tuple([x if type(x) is int or x.denominator != 1 else x.numerator
                          for x in values])
        p = self.p
        return tuple([x % p for x in values])

    def reduce_dict(self, sparse: dict) -> dict:
        """`sparse` with each value brought into the field and zeros dropped."""
        if self.p is None:
            return {k: v if type(v) is int or v.denominator != 1 else v.numerator
                    for k, v in sparse.items() if v}
        p = self.p
        return {k: r for k, v in sparse.items() if (r := v % p)}

    def denominator(self, vectors) -> int:
        """The least common denominator of the entries of `vectors` over Q;
        1 over GF(p)."""
        if self.p is not None:
            return 1
        return math.lcm(*(x.denominator for v in vectors for x in v))

    def parse(self, text):
        """Parse "3/4", "-2", "0.5" or a plain int into a scalar of this field.

        Every field reads one grammar: a JSON integer, or a string that `int`
        or `Fraction` reads as a rational number, without an exponent.  Over
        GF(p) the scalar is the image of that rational, which exists iff p
        does not divide its reduced denominator.
        """
        if isinstance(text, int):       # a bool too, which `coerce` rejects
            return self.coerce(text)
        if not isinstance(text, str):
            raise ValueError("cannot parse scalar from %r" % (text,))
        text = text.strip()
        try:
            n = int(text)
        except ValueError:
            # "1e9999999" would name a number too large to parse or print
            if "e" in text.lower():
                raise ValueError("exponent notation is not a scalar: %r" % (text,)) from None
            q = Fraction(text)
            if self.p is None:
                return self.coerce(q)
            return q.numerator * self.inv(q.denominator) % self.p
        return n if self.p is None else n % self.p

    def coerce(self, x):
        """Accept ints and scalars of this field; reject everything else."""
        if isinstance(x, bool):
            raise ValueError("a boolean is not a scalar: %r" % (x,))
        if isinstance(x, int):
            return self.from_int(x)
        if self.p is None and isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        raise ValueError("scalar %r does not belong to %s" % (x, self))

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Field.rationals()" if self.p is None else "Field.prime(%d)" % self.p

    def __str__(self):
        return "Q" if self.p is None else "GF(%d)" % self.p


# -- vectors are plain tuples of scalars -------------------------------------

def vadd(field: Field, u: Sequence, v: Sequence) -> tuple:
    return field.reduce_vec(a + b for a, b in zip(u, v))


def vzero(field: Field, n: int) -> tuple:
    return (field.zero,) * n


class Matrix:
    """An immutable dense matrix over one Field: a linear map, applied to
    column vectors.

    The constructor coerces every entry; `_trusted` wraps rows
    the package built from field arithmetic, or parsed, as they are.  `apply`
    builds the column index `_cols` (per column j, the pairs (i, m_ij) with
    m_ij != 0) on its first call and reuses it; the matrix never changes, so
    the index cannot go stale, and equality and hashing ignore it.
    """

    __slots__ = ("field", "nrows", "ncols", "data", "_cols")

    def __init__(self, field: Field, data: Iterable[Iterable], ncols: int | None = None):
        rows = tuple(tuple(field.coerce(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatch("ragged rows")
            if ncols is not None and ncols != width:
                raise DimensionMismatch("declared ncols does not match rows")
        else:
            width = 0 if ncols is None else ncols
        self.field = field
        self.nrows = len(rows)
        self.ncols = width
        self.data = rows
        self._cols = None

    @classmethod
    def _trusted(cls, field: Field, rows: tuple, ncols: int) -> "Matrix":
        """A matrix of reduced scalar tuples of equal length `ncols`, unchecked."""
        m = cls.__new__(cls)
        m.field = field
        m.nrows = len(rows)
        m.ncols = ncols
        m.data = rows
        m._cols = None
        return m

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector, over the nonzero entries of v's columns."""
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length %d != %d columns" % (len(v), self.ncols))
        support = len(v) - v.count(0)
        if not support or not self.nrows:
            return (self.field.zero,) * self.nrows
        cols = self._cols
        if cols is None:
            cols = self._cols = tuple(tuple((i, x) for i, x in enumerate(c) if x)
                                      for c in zip(*self.data))
        out = [self.field.zero] * self.nrows
        if support == 1:
            # x times column j, whose entries are reduced: as they are if x is 1
            j = next(compress(count(), v))
            x = v[j]
            if x == 1 and type(x) is int:
                for i, m in cols[j]:
                    out[i] = m
                return tuple(out)
            for i, m in cols[j]:
                out[i] = m * x
            return self.field.reduce_vec(out)
        for x, col in zip(v, cols):
            if x:
                for i, m in col:
                    out[i] += m * x
        return self.field.reduce_vec(out)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        return "Matrix(%s, %r)" % (self.field, [[str(x) for x in r] for r in self.data])


class Echelonizer:
    """Maintains a reduced row echelon basis under row insertion.

    Rows are fully reduced against each other (pivot entries are 1 and each
    pivot column is cleared everywhere else) and kept sparse, as
    {column: nonzero value} keyed by their pivot column, so the rows in
    pivot order are always the canonical basis of the span of everything
    inserted.  A new row is reduced in one pass: full reduction leaves its
    entry at each pivot column unchanged by the other pivot rows, so every
    coefficient is read off the row as inserted.
    """

    __slots__ = ("field", "ncols", "pivots", "_rows")

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.pivots: list[int] = []
        self._rows: dict = {}           # pivot column -> sparse reduced row

    def insert(self, row: Sequence) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        if len(row) != self.ncols:
            raise DimensionMismatch("row width %d != %d" % (len(row), self.ncols))
        if not any(row):
            return False
        field = self.field
        rows = self._rows
        v = field.reduce_dict({j: x for j, x in enumerate(row) if x})
        hits = [(rows[j], c) for j, c in v.items() if j in rows]
        if hits:
            for r, c in hits:
                for j, x in r.items():
                    v[j] = v.get(j, 0) - c * x
            v = field.reduce_dict(v)
        if not v:
            return False
        piv = min(v)
        inv = field.inv(v[piv])
        if inv != 1:
            v = field.reduce_dict({j: x * inv for j, x in v.items()})
        # clear the new pivot column in the old rows
        stale = [(p, r, c) for p, r in rows.items() if (c := r.get(piv))]
        for p, r, c in stale:
            for j, x in v.items():
                r[j] = r.get(j, 0) - c * x
            rows[p] = field.reduce_dict(r)
        rows[piv] = v
        insort(self.pivots, piv)
        return True

    def entries(self, pivot: int, cols) -> tuple:
        """The entries at `cols` of the reduced row whose pivot is `pivot`."""
        row = self._rows[pivot]
        return tuple(row.get(j, self.field.zero) for j in cols)

    def to_echelon(self) -> "Echelon":
        zero = self.field.zero
        dense = []
        for p in self.pivots:
            out = [zero] * self.ncols
            for j, x in self._rows[p].items():
                out[j] = x
            dense.append(tuple(out))
        return Echelon(self.field, self.ncols, tuple(dense), tuple(self.pivots))


@dataclass(frozen=True)
class Echelon:
    """A canonical basis of a subspace: the nonzero rows of a reduced REF."""

    field: Field
    ncols: int
    rows: tuple
    pivots: tuple

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence) -> tuple:
        """Residual of v after eliminating all pivot coordinates.

        A row is zero left of its pivot, so each pass starts at the pivot
        column.  Over GF(p) the entries stay unreduced ints until the final
        `reduce_vec`; each pivot coefficient is reduced before it is tested,
        so `if c` stays an exact zero test.
        """
        p = self.field.p
        out = list(v)
        for r, piv in zip(self.rows, self.pivots):
            c = out[piv] if p is None else out[piv] % p
            if c:
                for j in range(piv, len(r)):
                    rj = r[j]
                    if rj:
                        out[j] -= c * rj
        return self.field.reduce_vec(out)

    def combine(self, coeffs: Sequence) -> tuple:
        if len(coeffs) != len(self.rows):
            raise DimensionMismatch("coefficient count mismatch")
        out = [self.field.zero] * self.ncols
        for c, r in zip(coeffs, self.rows):
            if c:
                for j, x in enumerate(r):
                    if x:
                        out[j] += c * x
        return self.field.reduce_vec(out)

    def __eq__(self, other):
        return (isinstance(other, Echelon) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)


def _reduced_leads(vectors: Sequence[Sequence], ncols: int) -> list | None:
    """The column of each vector's first nonzero entry (None for a zero
    vector) when the nonzero vectors are already a reduced echelon basis,
    else None.  The test: every vector has `ncols` entries, each nonzero
    vector's first nonzero entry is 1, no two start at the same column, and
    each is 0 at every other one's starting column.  Entries not yet
    brought into the field are read as given: a vector passes only if its
    reduced copy would."""
    leads = []
    for v in vectors:
        if len(v) != ncols:
            return None
        lead = next(compress(count(), v), None)
        if lead is not None and (v[lead] != 1 or lead in leads):
            return None
        leads.append(lead)
    starts = [p for p in leads if p is not None]
    if len(starts) > 1:
        at = itemgetter(*starts)
        if any(at(v).count(0) != len(starts) - 1 for v, p in zip(vectors, leads)
               if p is not None):
            return None
    return leads


def echelon(field: Field, vectors: Iterable[Sequence], ncols: int) -> Echelon:
    """The reduced echelon basis of the span of `vectors`, inserted shortest
    first (fewest nonzero entries), which keeps the reduced rows sparse.
    Vectors that are already a reduced echelon basis are their own form,
    ordered by pivot, with no elimination.  A zero vector spans nothing and
    is not inserted; its width is still checked."""
    vectors = list(vectors)
    leads = _reduced_leads(vectors, ncols)
    if leads is not None:
        rows = sorted((p, v) for p, v in zip(leads, vectors) if p is not None)
        return Echelon(field, ncols, tuple(field.reduce_vec(v) for _, v in rows),
                       tuple(p for p, _ in rows))
    ech = Echelonizer(field, ncols)
    for v in sorted(vectors, key=lambda v: len(v) - v.count(0)):
        if any(v):
            ech.insert(v)
        elif len(v) != ncols:
            raise DimensionMismatch("row width %d != %d" % (len(v), ncols))
    return ech.to_echelon()


def free_basis(field: Field, vectors: Sequence[tuple], ncols: int) -> tuple:
    """The free vectors among `vectors`, scanned from the last, and the
    change of basis from their span's reduced echelon form to them.

    Returns (free, pivots, inverse): the indices i, in increasing order, of
    the vectors independent of the vectors after them (so a zero vector, or
    one equal to a later vector, is never free); the pivots of the reduced
    echelon form of their span; and for each pivot p the row over the free
    vectors, in the order of `free`, that writes the echelon row at p as a
    combination of them.  A vector y of the span is then sum_p y[p] times
    its echelon row, so its coordinates over the free vectors are
    sum_p y[p] inverse[p] (`free_coords`).

    One elimination gives all of it.  Vector i goes into one `Echelonizer`,
    last first, with the unit tag column ncols + i appended, so each tag
    lies left of the tags of the rows inserted before it, and every tag
    right of the vectors' `ncols` columns.  Those columns come first, so
    they reduce exactly as the vectors alone would: the pivots among them,
    and whether a vector enlarged their span, are those of the vectors, and
    a vector is free iff its row takes a pivot there.  A vector in the span
    of the vectors after it (a zero vector too) leaves an inert row, zero
    on the vectors' columns, whose pivot is its own tag: the earlier rows
    carry only earlier tags, all right of it.  No later row is reduced
    against an inert row (it carries no tag but its own new one at
    insertion) and no inert row is changed (it is zero at every pivot among
    the vectors' columns), so the rows with a pivot there carry the tags of
    free vectors alone.  Every row is a combination of the tagged vectors,
    with the coefficients in its tag part, so the tag part of a row with a
    pivot among the vectors' columns, read at the free tags, writes it over
    the free vectors.
    """
    leads = _reduced_leads(vectors, ncols)
    if leads is not None:
        # every nonzero vector is free and is the echelon row at its lead
        free = tuple(i for i, p in enumerate(leads) if p is not None)
        pivots = tuple(sorted(leads[i] for i in free))
        at = {leads[i]: k for k, i in enumerate(free)}
        return free, pivots, tuple(tuple(field.one if k == at[p] else field.zero
                                         for k in range(len(free))) for p in pivots)
    n = len(vectors)
    ech = Echelonizer(field, ncols + n)
    zeros = (field.zero,) * n
    free = []
    for i in range(n - 1, -1, -1):
        ech.insert(vectors[i] + zeros[:i] + (field.one,) + zeros[i + 1:])
        if ech.pivots[len(free)] < ncols:
            free.append(i)
    free.reverse()
    pivots = tuple(ech.pivots[:len(free)])
    return tuple(free), pivots, tuple(ech.entries(p, [ncols + i for i in free]) for p in pivots)


def free_coords(field: Field, pivots: tuple, inverse: tuple, y: Sequence) -> tuple:
    """The coordinates over the free vectors of `free_basis` of a vector y of
    their span: sum_p y[p] inverse[p] over the pivots p."""
    out = [field.zero] * len(pivots)
    for p, row in zip(pivots, inverse):
        c = y[p]
        if c:
            for f, x in enumerate(row):
                if x:
                    out[f] += c * x
    return field.reduce_vec(out)


def _null_space(red: Echelon, ncols: int) -> Echelon:
    """Null space of the first `ncols` columns of a reduced echelon form."""
    field = red.field
    zero, one = field.zero, field.one
    piv = set(red.pivots)
    vecs = []
    for f in range(ncols):
        if f in piv:
            continue
        v = [zero] * ncols
        v[f] = one
        for r, p in zip(red.rows, red.pivots):
            v[p] = -r[f]
        vecs.append(field.reduce_vec(v))
    return echelon(field, vecs, ncols)


def kernel(field: Field, rows: Iterable[Sequence], ncols: int) -> Echelon:
    """The canonical basis of {x : sum_j r[j] x[j] == 0 for every row r}, the
    null space of the system with these rows and `ncols` unknowns."""
    return _null_space(echelon(field, rows, ncols), ncols)


@dataclass(frozen=True)
class AffineSolutionSet:
    """All solutions of a linear system, as particular + span(kernel_basis).

    Canonical form: kernel_basis is a reduced echelon basis and the particular
    solution has zero entries at every kernel pivot coordinate, so two equal
    solution sets always compare equal.  `particular` is None iff the system
    is inconsistent.  `field` is the field the scalars belong to.
    """

    particular: tuple | None
    kernel_basis: tuple
    field: Field

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def dim(self) -> int:
        return len(self.kernel_basis)

    def element(self, coeffs: Sequence) -> tuple:
        if self.particular is None:
            raise LinalgError("empty solution set")
        out = list(self.particular)
        for c, k in zip(coeffs, self.kernel_basis):
            for j in range(len(out)):
                out[j] += c * k[j]
        return self.field.reduce_vec(out)


def solve_affine(field: Field, rows: Sequence[Sequence], rhs: Sequence,
                 ncols: int) -> AffineSolutionSet:
    """Full solution set of sum_j rows[i][j] x[j] == rhs[i] for every i, in
    `ncols` unknowns."""
    if len(rhs) != len(rows):
        raise DimensionMismatch("rhs length %d != %d rows" % (len(rhs), len(rows)))
    red = echelon(field, ((*row, field.coerce(x)) for row, x in zip(rows, rhs)), ncols + 1)
    if ncols in red.pivots:
        return AffineSolutionSet(None, (), field)
    part = [field.zero] * ncols
    for r, p in zip(red.rows, red.pivots):
        part[p] = r[ncols]
    ke = _null_space(red, ncols)
    return AffineSolutionSet(ke.reduce(part), ke.rows, field)
