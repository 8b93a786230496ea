"""Exact linear algebra over the rationals and over prime fields GF(p).

Everything in this module is exact: scalars are either `fractions.Fraction`
(arbitrary precision, kept in lowest terms with positive denominator by the
stdlib) or `ModP` residues.  Vectors are plain tuples and matrices are
immutable tuples of rows, but the kernels are sparse in effect: a zero
scalar is falsy, and products, eliminations and combinations skip zero
entries by truthiness instead of computing with them.  Row reduction uses
deterministic leftmost-pivot elimination so that every downstream basis,
solution set and certificate is byte-reproducible.  Every elimination
(`kernel`, `solve_affine`, `Matrix.rank`, `Matrix.inverse`, `Matrix.rref`)
goes through `echelon`, which returns the nonzero rows and pivots; only the
public `Matrix.rref` pads them back to the original shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


class ModP:
    """A residue modulo a prime p.  Mixed-modulus arithmetic is an error."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other) -> "ModP":
        if isinstance(other, ModP):
            if other.p != self.p:
                raise ValueError("mixed moduli: %d vs %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return ModP(other, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModP(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModP(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModP(other.value - self.value, self.p)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModP(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        # p prime, so a^(p-2) inverts a
        return ModP(self.value * pow(other.value, self.p - 2, self.p), self.p)

    def __neg__(self):
        return ModP(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, ModP):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "ModP(%d, %d)" % (self.value, self.p)

    def __str__(self):
        return str(self.value)


class Field:
    """The scalar domain: the rationals (p is None) or GF(p) for a prime p."""

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

    def from_int(self, n: int):
        return Fraction(n) if self.p is None else ModP(n, self.p)

    def parse(self, text):
        """Parse "3/4", "-2" or a plain int into a scalar of this field."""
        if isinstance(text, int):
            return self.from_int(text)
        if not isinstance(text, str):
            raise ValueError("cannot parse scalar from %r" % (text,))
        text = text.strip()
        if self.p is None:
            # "1e9999999" would name a number too large to parse or print
            if "e" in text.lower():
                raise ValueError("exponent notation is not a scalar: %r" % (text,))
            return Fraction(text)
        if "/" in text:
            num, den = text.split("/", 1)
            return ModP(int(num), self.p) / ModP(int(den), self.p)
        return ModP(int(text), self.p)

    def show(self, x) -> str:
        return str(x)

    def coerce(self, x):
        """Accept ints and same-field scalars; reject everything else."""
        if isinstance(x, int):
            return self.from_int(x)
        if self.p is None:
            if isinstance(x, Fraction):
                return x
        elif isinstance(x, ModP) and x.p == self.p:
            return x
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

def vadd(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vzero(field: Field, n: int) -> tuple:
    return (field.zero,) * n


class Matrix:
    """An immutable dense matrix over one Field."""

    __slots__ = ("field", "nrows", "ncols", "data")

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

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero
        return cls(field, [[zero] * ncols for _ in range(nrows)])

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence[Sequence]) -> "Matrix":
        if not cols:
            return cls(field, [])
        n = len(cols[0])
        return cls(field, [[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length %d != %d columns" % (len(v), self.ncols))
        support = [(j, x) for j, x in enumerate(v) if x]
        zero = self.field.zero
        return tuple(sum((r[j] * x for j, x in support if r[j]), zero)
                     for r in self.data)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch("%dx%d times %dx%d" %
                                    (self.nrows, self.ncols, other.nrows, other.ncols))
        zero = self.field.zero
        out = []
        for r in self.data:
            acc = [zero] * other.ncols
            for x, row in zip(r, other.data):
                if x:
                    for j, y in enumerate(row):
                        if y:
                            acc[j] = acc[j] + x * y
            out.append(acc)
        return Matrix(self.field, out)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch in addition")
        return Matrix(self.field, [vadd(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch in subtraction")
        return Matrix(self.field, [tuple(x - y for x, y in zip(a, b))
                                   for a, b in zip(self.data, other.data)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.data))

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.data)

    def rref(self) -> "Matrix":
        """Reduced row echelon form, same shape, row space preserved."""
        red = echelon(self.field, self.data, self.ncols)
        pad = [vzero(self.field, self.ncols)] * (self.nrows - red.dim)
        return Matrix(self.field, list(red.rows) + pad, ncols=self.ncols)

    def rank(self) -> int:
        return echelon(self.field, self.data, self.ncols).dim

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise DimensionMismatch("only square matrices invert")
        n = self.nrows
        one, zero = self.field.one, self.field.zero
        # [M | I] has rank n; M is invertible iff the pivots are the first n columns
        red = echelon(self.field,
                      (r + tuple(one if i == j else zero for j in range(n))
                       for i, r in enumerate(self.data)), 2 * n)
        if red.pivots != tuple(range(n)):
            raise LinalgError("matrix is singular")
        return Matrix(self.field, [r[n:] for r in red.rows])

    def __repr__(self):
        return "Matrix(%s, %r)" % (self.field, [[str(x) for x in r] for r in self.data])


def _eliminate(rows, pivots, v) -> list:
    """Clear each pivot coordinate of v with its reduced echelon row.

    A row is zero left of its pivot, so each pass starts at the pivot column.
    """
    out = list(v)
    for r, p in zip(rows, pivots):
        c = out[p]
        if c:
            for j in range(p, len(r)):
                rj = r[j]
                if rj:
                    out[j] = out[j] - c * rj
    return out


class Echelonizer:
    """Maintains a reduced row echelon basis under row insertion.

    Rows are fully reduced against each other (pivot entries are 1 and each
    pivot column is cleared everywhere else), and kept sorted by pivot column,
    so `rows` is always a canonical basis of the span of everything inserted.
    """

    __slots__ = ("field", "ncols", "rows", "pivots")

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list[tuple] = []
        self.pivots: list[int] = []

    def insert(self, row: Sequence) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        if len(row) != self.ncols:
            raise DimensionMismatch("row width %d != %d" % (len(row), self.ncols))
        out = _eliminate(self.rows, self.pivots, row)
        zero = self.field.zero
        piv = next((j for j, x in enumerate(out) if x), None)
        if piv is None:
            return False
        inv = self.field.one / out[piv]
        new = tuple(x * inv if x else zero for x in out)
        # clear the new pivot column in the old rows
        for k, r in enumerate(self.rows):
            c = r[piv]
            if c:
                self.rows[k] = tuple(a - c * b if b else a for a, b in zip(r, new))
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, new)
        self.pivots.insert(at, piv)
        return True

    def to_echelon(self) -> "Echelon":
        return Echelon(self.field, self.ncols, tuple(self.rows), tuple(self.pivots))


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
        """Residual of v after eliminating all pivot coordinates."""
        return tuple(_eliminate(self.rows, self.pivots, v))

    def contains(self, v: Sequence) -> bool:
        return not any(self.reduce(v))

    def coords(self, v: Sequence) -> tuple:
        """Coordinates of v in this basis (pivot entries); v must lie in the span."""
        c = tuple(v[p] for p in self.pivots)
        if not self.contains(v):
            raise LinalgError("vector is not in the subspace")
        return c

    def combine(self, coeffs: Sequence) -> tuple:
        if len(coeffs) != len(self.rows):
            raise DimensionMismatch("coefficient count mismatch")
        out = [self.field.zero] * self.ncols
        for c, r in zip(coeffs, self.rows):
            if c:
                for j, x in enumerate(r):
                    if x:
                        out[j] = out[j] + c * x
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, Echelon) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)


def echelon(field: Field, vectors: Iterable[Sequence], ncols: int) -> Echelon:
    ech = Echelonizer(field, ncols)
    for v in vectors:
        ech.insert(v)
    return ech.to_echelon()


def intersect(a: Echelon, b: Echelon) -> Echelon:
    """Canonical basis of the intersection of two row spaces."""
    if a.ncols != b.ncols or a.field != b.field:
        raise DimensionMismatch("incompatible subspaces")
    if a.dim == 0 or b.dim == 0:
        return echelon(a.field, [], a.ncols)
    # v = x*A = y*B  <=>  (x, y) in ker [A^T | -B^T]
    cols = [list(r) for r in a.rows] + [[-x for x in r] for r in b.rows]
    m = Matrix.from_cols(a.field, cols)
    vecs = [a.combine(k[: a.dim]) for k in kernel(m)]
    return echelon(a.field, vecs, a.ncols)


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form of m (same shape)."""
    return m.rref()


def _null_space(field: Field, red_rows, pivots, ncols: int) -> Echelon:
    """Null space of the first `ncols` columns of a matrix in RREF (rows, pivots)."""
    zero, one = field.zero, field.one
    piv = set(pivots)
    vecs = []
    for f in range(ncols):
        if f in piv:
            continue
        v = [zero] * ncols
        v[f] = one
        for r, p in zip(red_rows, pivots):
            v[p] = -r[f]
        vecs.append(v)
    return echelon(field, vecs, ncols)


def kernel(m: Matrix) -> tuple:
    """Canonical basis of the null space {x : m.apply(x) == 0}."""
    red = echelon(m.field, m.data, m.ncols)
    return _null_space(m.field, red.rows, red.pivots, m.ncols).rows


@dataclass(frozen=True)
class AffineSolutionSet:
    """All solutions of a linear system, as particular + span(kernel_basis).

    Canonical form: kernel_basis is a reduced echelon basis and the particular
    solution has zero entries at every kernel pivot coordinate, so two equal
    solution sets always compare equal.  `particular` is None iff the system
    is inconsistent.
    """

    particular: tuple | None
    kernel_basis: tuple

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
                out[j] = out[j] + c * k[j]
        return tuple(out)


def solve_affine(a: Matrix, b: Sequence) -> AffineSolutionSet:
    """Full solution set of a.apply(x) == b."""
    if len(b) != a.nrows:
        raise DimensionMismatch("rhs length %d != %d rows" % (len(b), a.nrows))
    field = a.field
    red = echelon(field, (row + (field.coerce(x),) for row, x in zip(a.data, b)),
                  a.ncols + 1)
    if a.ncols in red.pivots:
        return AffineSolutionSet(None, ())
    part = [field.zero] * a.ncols
    for r, p in zip(red.rows, red.pivots):
        part[p] = r[a.ncols]
    ke = _null_space(field, red.rows, red.pivots, a.ncols)
    return AffineSolutionSet(ke.reduce(part), ke.rows)
