import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewalg.algebra import Algebra
from skewalg.cli import main
from skewalg.linalg import (MAX_MODULUS, AffineSolutionSet, DimensionMismatch,
                            Echelonizer, Field, LinalgError, Matrix, echelon,
                            free_basis, free_coords, kernel, solve_affine)

from conftest import (DenseEchelonizer, dense_echelon, dense_solve_affine, from_cols,
                      gauss_jordan_inverse, greedy_free, identity_matrix, in_span,
                      instance_data, intersect, is_reduced_basis, matmul, span_coords,
                      zero_matrix)

Q = Field.rationals()
GF2 = Field.prime(2)


def mat(field, rows):
    return Matrix(field, rows)


# -- fields and scalars -------------------------------------------------------

def test_prime_field_requires_prime_modulus():
    with pytest.raises(ValueError):
        Field.prime(6)
    with pytest.raises(ValueError):
        Field.prime(1)
    Field.prime(101)


def test_large_prime_moduli_are_decided_quickly():
    started = time.perf_counter()
    assert Field.prime(10**18 + 3).p == 10**18 + 3
    assert Field.prime(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - started < 1.0


def test_composite_moduli_are_rejected():
    # 561 is a Carmichael number; 10**18 + 1 = 101 * 9901 * ...
    for n in (561, 10**18 + 1, 41 * 41, 3215031751):
        with pytest.raises(ValueError, match="not prime"):
            Field.prime(n)


def test_modulus_beyond_the_primality_bound_is_rejected():
    with pytest.raises(ValueError, match="too large"):
        Field.prime(MAX_MODULUS)
    with pytest.raises(ValueError, match="too large"):
        Field.prime(10**30 + 57)


def test_oversized_prime_field_instance_exits_two(tmp_path, capsys):
    data = instance_data("z2_flip_gf2.json")
    data["field"] = {"prime": 10**25 + 13}
    path = tmp_path / "huge_modulus.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["type"] == "InstanceFormatError"


def test_modp_arithmetic():
    f7 = Field.prime(7)
    a, b = f7.from_int(5), f7.from_int(4)
    assert f7.reduce_vec((a + b, a - b, a * b, a * f7.inv(b), -a)) == (2, 1, 6, 3, 2)
    with pytest.raises(ZeroDivisionError):
        f7.inv(f7.zero)


def test_scalar_parsing_round_trip():
    assert Q.parse("3/4") == Fraction(3, 4)
    assert Q.parse("-2") == Fraction(-2)
    assert Q.parse(5) == Fraction(5)
    f5 = Field.prime(5)
    assert f5.parse("7") == 2
    assert f5.parse("1/2") == 3
    with pytest.raises(ZeroDivisionError, match=r"division by zero in GF\(5\)"):
        f5.parse("1/5")


_SCALAR_SPELLINGS = ("3", " -3 ", "+3", "1_0", "3/4", "-3/4", "+3/4", "3/4 ", "0/7",
                     "6/4", "1.5", ".5", "2.", "-0.25")
_NOT_SCALARS = ("1 / 2", "1/ 2", "1 /2", "1/+2", "-1/-2", "1/-2", "+-1", "1//2",
                "1/2/3", "1e3", "2E-1", "", "/2", "1/", "0x10", "1 2", "abc")


@pytest.mark.parametrize("p", [None, 2, 5], ids=["Q", "GF2", "GF5"])
def test_every_field_reads_one_scalar_grammar(p):
    # GF(p) reads exactly the spellings Q reads, as the image of the rational
    f = Field(p)
    for text in _SCALAR_SPELLINGS:
        q = Fraction(Q.parse(text))
        if p is not None and q.denominator % p == 0:
            with pytest.raises(ZeroDivisionError):
                f.parse(text)
        else:
            want = q if p is None else q.numerator * pow(q.denominator, -1, p) % p
            assert f.parse(text) == want, text
    for text in _NOT_SCALARS:
        with pytest.raises(ValueError):
            f.parse(text)


def test_rational_scalars_are_ints_when_integral():
    assert all(type(x) is int for x in (Q.zero, Q.one, Q.from_int(True), Q.parse("-2"),
                                        Q.parse(5), Q.parse("4/2"), Q.parse("1.0"),
                                        Q.coerce(Fraction(6, 3))))
    assert type(Q.parse("3/4")) is Fraction and type(Q.coerce(Fraction(1, 2))) is Fraction
    assert Q.reduce_vec((Fraction(1, 2) * 2, Fraction(1, 3))) == (1, Fraction(1, 3))
    assert type(Q.reduce_vec((Fraction(1, 2) * 2,))[0]) is int
    assert type(Q.reduce_dict({0: Fraction(3, 2) * 2, 1: 0})[0]) is int


def test_rational_inverse_is_exact():
    half = Q.inv(2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert Q.inv(-1) == -1 and type(Q.inv(-1)) is int
    assert Q.inv(Fraction(-1, 3)) == -3 and type(Q.inv(Fraction(-1, 3))) is int
    assert Q.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)


def test_coerce_rejects_foreign_scalars():
    with pytest.raises(ValueError):
        Q.coerce(0.5)
    with pytest.raises(ValueError):
        Field.prime(3).coerce(Fraction(1, 2))
    with pytest.raises(ValueError):
        Matrix(Field.prime(3), [[0.5]])
    with pytest.raises(ValueError):
        Matrix(Field.prime(3), [[Fraction(1, 2)]])
    # a JSON true or false is not the integer 1 or 0
    with pytest.raises(ValueError, match="boolean"):
        Q.parse(True)
    with pytest.raises(ValueError, match="boolean"):
        Field.prime(3).parse(False)


@pytest.mark.parametrize("raw", [0.5, [1], None], ids=["float", "list", "null"])
def test_parse_rejects_json_values_that_are_not_scalars(raw):
    for field in (Q, Field.prime(5)):
        with pytest.raises(ValueError) as exc:
            field.parse(raw)
        assert str(exc.value) == "cannot parse scalar from %r" % (raw,)


def test_coerce_rejects_booleans_as_parse_does():
    for field in (Q, Field.prime(3)):
        with pytest.raises(ValueError, match="a boolean is not a scalar"):
            field.coerce(True)
        with pytest.raises(ValueError, match="a boolean is not a scalar"):
            Matrix(field, [[True]])
        alg = Algebra.diagonal(field, 2)
        with pytest.raises(ValueError, match="a boolean is not a scalar"):
            alg.element([True, False])
        with pytest.raises(ValueError, match="a boolean is not a scalar"):
            Algebra(field, [[[True]]], [1])
        assert alg.element([1, 0]) == (1, 0)


# -- rref: the nonzero rows of `echelon` ------------------------------------------

def test_rref_identity_is_fixed():
    rows = identity_matrix(Q, 3).data
    assert echelon(Q, rows, 3).rows == rows


def test_rref_rank_one_reduction():
    assert echelon(Q, [(2, 4), (1, 2)], 2).rows == ((1, 2),)


def test_rref_gf2_hand_reduction():
    # row-reduce [[1,1],[1,1]] over GF(2) by hand: subtract row 1 from row 2
    assert echelon(GF2, [(1, 1), (1, 1)], 2).rows == ((1, 1),)


def test_rref_is_idempotent():
    red = echelon(Q, [(1, 2, 3), (4, 5, 6), (7, 8, 10)], 3)
    assert echelon(Q, red.rows, 3) == red


# -- kernel ----------------------------------------------------------------------

def test_kernel_of_identity_is_empty():
    assert kernel(Q, identity_matrix(Q, 3).data, 3).rows == ()


def test_kernel_of_zero_matrix_is_standard_basis():
    ks = kernel(Q, zero_matrix(Q, 2, 2).data, 2)
    assert ks.rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert ks.pivots == (0, 1)
    # a system with no rows has the same kernel
    assert kernel(Q, [], 2) == ks


def test_kernel_gf2_matches_exhaustive_search():
    m = mat(GF2, [[1, 1]])
    ks = kernel(GF2, m.data, 2).rows
    # brute force: all four vectors of GF(2)^2
    zero, one = GF2.zero, GF2.one
    annihilated = [v for v in product((zero, one), repeat=2)
                   if m.apply(v) == (zero,)]
    assert ks == ((one, one),)
    span = {(zero, zero), ks[0]}
    assert set(annihilated) == span


def test_rank_nullity():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    assert echelon(Q, rows, 3).dim + kernel(Q, rows, 3).dim == 3


# -- solve_affine -----------------------------------------------------------------

def test_solve_identity_system():
    v = (Fraction(3), Fraction(-1), Fraction(7))
    sol = solve_affine(Q, identity_matrix(Q, 3).data, v, 3)
    assert sol.particular == v
    assert sol.kernel_basis == ()


def test_solve_inconsistent_system_is_empty():
    sol = solve_affine(Q, [(0, 0)], [1], 2)
    assert sol.is_empty
    with pytest.raises(LinalgError):
        sol.element(())


def test_solve_bridge_trace_system():
    # the two-object bridge instance: t(a) = 1 stacks to this system over
    # coefficients (a1, a2, a3, a4); canonical family is (1,0,1,1) + span{(0,1,-1,0)}
    rows = [(1, 0, 0, 0), (0, 1, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1)]
    sol = solve_affine(Q, rows, [1, 1, 1, 1], 4)
    assert sol.particular == (1, 0, 1, 1)
    assert sol.kernel_basis == ((0, 1, -1, 0),)
    lam = Fraction(5, 3)
    a = sol.element((lam,))
    assert a == (1, lam, 1 - lam, 1)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_affine(Q, identity_matrix(Q, 2).data, [1, 2, 3], 2)
    with pytest.raises(DimensionMismatch):
        solve_affine(Q, [(1, 0, 0)], [1], 2)


# -- canonical subspaces ------------------------------------------------------------

def test_echelon_coords_and_combine_round_trip():
    e = echelon(Q, [(1, 2, 0), (0, 0, 1), (2, 4, 3)], 3)
    assert e.dim == 2
    v = e.combine((Fraction(5), Fraction(-2)))
    assert in_span(e, v) and not in_span(e, (0, 1, 0))
    assert span_coords(e, v) == (Fraction(5), Fraction(-2))
    with pytest.raises(LinalgError):
        span_coords(e, (0, 1, 0))


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatch, match="^ragged rows$"):
        Matrix(Q, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch, match="^declared ncols does not match rows$"):
        Matrix(Q, [[1, 2]], ncols=3)
    with pytest.raises(DimensionMismatch, match="^coefficient count mismatch$"):
        echelon(Q, [(1, 0)], 2).combine((1, 2))


def test_intersect_subspaces():
    a = echelon(Q, [(1, 0, 0), (0, 1, 0)], 3)
    b = echelon(Q, [(0, 1, 0), (0, 0, 1)], 3)
    assert intersect(a, b).rows == ((0, 1, 0),)
    c = echelon(Q, [(0, 0, 1)], 3)
    assert intersect(a, c).rows == ()


# -- property tests -------------------------------------------------------------------

small_fraction = st.integers(-6, 6).map(Fraction)


@st.composite
def q_matrix_and_rhs(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    rows = [[draw(small_fraction) for _ in range(ncols)] for _ in range(nrows)]
    b = [draw(small_fraction) for _ in range(nrows)]
    return Matrix(Q, rows), tuple(b)


@given(q_matrix_and_rhs())
@settings(max_examples=60, deadline=None)
def test_solutions_substitute_exactly(mb):
    m, b = mb
    sol = solve_affine(Q, m.data, b, m.ncols)
    if sol.is_empty:
        return
    assert sol.kernel_basis == kernel(Q, m.data, m.ncols).rows
    assert m.apply(sol.particular) == b
    for k in sol.kernel_basis:
        shifted = tuple(p + x for p, x in zip(sol.particular, k))
        assert m.apply(shifted) == b


@given(q_matrix_and_rhs())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_rank_nullity(mb):
    m, _ = mb
    r = echelon(Q, m.data, m.ncols)
    assert echelon(Q, r.rows, m.ncols) == r
    assert r.dim + kernel(Q, m.data, m.ncols).dim == m.ncols


@given(q_matrix_and_rhs(), st.integers(2, 7).filter(lambda p: p in (2, 3, 5, 7)))
@settings(max_examples=40, deadline=None)
def test_gf_p_rank_nullity(mb, p):
    m, _ = mb
    f = Field.prime(p)
    rows = [tuple(f.from_int(x.numerator) for x in row) for row in m.data]
    assert echelon(f, rows, m.ncols).dim + kernel(f, rows, m.ncols).dim == m.ncols


def _residues(p, *vectors) -> bool:
    return all(type(x) is int and 0 <= x < p for v in vectors for x in v)


@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 4), st.integers(1, 4),
       st.lists(st.integers(-20, 20), min_size=56, max_size=56))
@settings(max_examples=80, deadline=None)
def test_gf_p_kernels_return_residues(p, n, k, pool):
    # every scalar a GF(p) kernel returns is a plain int in range(p)
    f = Field.prime(p)
    it = iter(pool)
    a = Matrix(f, [[next(it) for _ in range(k)] for _ in range(n)])
    v = tuple(f.from_int(next(it)) for _ in range(k))
    rhs = [next(it) for _ in range(n)]
    assert _residues(p, *a.data, v)
    assert _residues(p, *echelon(f, a.data, k).rows, a.apply(v), *kernel(f, a.data, k).rows)
    assert _residues(p, *free_basis(f, a.data, k)[2])
    sol = solve_affine(f, a.data, rhs, k)
    if not sol.is_empty:
        assert _residues(p, sol.particular, *sol.kernel_basis)
        assert _residues(p, sol.element([f.from_int(x) for x in pool[: sol.dim]]))


def _rational(*vectors) -> bool:
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for v in vectors for x in v)


@given(st.integers(1, 4), st.integers(1, 4),
       st.lists(st.tuples(st.integers(-20, 20), st.sampled_from((1, 1, 2, 3))),
                min_size=56, max_size=56))
@settings(max_examples=80, deadline=None)
def test_q_kernels_return_ints_when_integral(n, k, pool):
    # every scalar a Q kernel returns is an int, or a Fraction that is not one
    it = (Fraction(num, den) for num, den in pool)
    a = Matrix(Q, [[next(it) for _ in range(k)] for _ in range(n)])
    v = tuple(Q.coerce(next(it)) for _ in range(k))
    rhs = [next(it) for _ in range(n)]
    assert _rational(*a.data, v)
    assert _rational(*echelon(Q, a.data, k).rows, a.apply(v), *kernel(Q, a.data, k).rows)
    assert _rational(*free_basis(Q, a.data, k)[2])
    sol = solve_affine(Q, a.data, rhs, k)
    if not sol.is_empty:
        assert _rational(sol.particular, *sol.kernel_basis)
        coeffs = [Q.coerce(Fraction(num, den)) for num, den in pool[: sol.dim]]
        assert _rational(sol.element(coeffs))


def _dense_apply(field, rows, v) -> list:
    """Sum_j m_ij v_j, row by row, brought into the field."""
    return [field.coerce(sum((m * x for m, x in zip(r, v)), 0)) if field.p is None
            else sum(m * x for m, x in zip(r, v)) % field.p for r in rows]


sparse_int = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))
sparse_fraction = st.one_of(sparse_int,
                            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))


@given(st.sampled_from((None, 2, 3, 5)), st.integers(0, 5), st.integers(0, 5),
       st.data())
@settings(max_examples=150, deadline=None)
def test_apply_matches_the_dense_row_sum(p, nrows, ncols, data):
    # the column-index apply computes sum_j m_ij v_j on sparse matrices,
    # over Q with non-integral entries and over GF(p) on residues
    f = Field(p)
    entry = sparse_fraction if p is None else sparse_int

    def draw_vec(n):
        return tuple(f.coerce(data.draw(entry)) for _ in range(n))

    def draw_input(n):
        # zero and one-entry vectors (the entry often 1) skip the sweep
        kind = data.draw(st.sampled_from(("drawn", "zero", "one")))
        if kind == "drawn" or not n:
            return draw_vec(n)
        v = [f.zero] * n
        if kind == "one":
            x = data.draw(st.one_of(st.just(1), entry.filter(bool)))
            v[data.draw(st.integers(0, n - 1))] = f.coerce(x)
        return tuple(v)

    m = Matrix(f, [draw_vec(ncols) for _ in range(nrows)], ncols=ncols)
    # from_cols cannot carry the row count of a matrix without columns
    cols = [tuple(r[j] for r in m.data) for j in range(ncols)]
    ms = [m, from_cols(f, cols)] if ncols else [m]
    for _ in range(3):
        v = draw_input(ncols)
        want = _dense_apply(f, m.data, v)
        for mm in ms:
            got = mm.apply(v)
            assert list(got) == want
            if p is None:
                assert _rational(got)
            else:
                assert _residues(p, got)


def test_apply_on_empty_shapes():
    for f in (Q, GF2):
        assert Matrix(f, [], ncols=3).apply((1, 0, 1)) == ()
        assert Matrix(f, [[], []], ncols=0).apply(()) == (f.zero, f.zero)
        assert from_cols(f, []).apply(()) == ()
        assert from_cols(f, [(), (), ()]).apply((1, 1, 1)) == ()
    m = from_cols(Q, [(0, 0), (Fraction(1, 2), 0), (0, 0)])
    assert m.apply((5, 4, 3)) == (2, 0)
    assert type(m.apply((5, 4, 3))[0]) is int


def test_apply_rejects_a_wrong_length_vector():
    m = mat(Q, [[1, 0], [0, 1]])
    m.apply((1, 1))
    for v in ((), (1,), (1, 2, 3)):
        with pytest.raises(DimensionMismatch):
            m.apply(v)
    with pytest.raises(DimensionMismatch):
        from_cols(GF2, [(), ()]).apply((1,))


def test_apply_cache_leaves_equality_and_hash_alone():
    rows = [[0, Fraction(3, 2)], [1, 0]]
    a, b = mat(Q, rows), mat(Q, rows)
    assert a.apply((2, 2)) == (3, 2)
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    c, d = identity_matrix(GF2, 3), identity_matrix(GF2, 3)
    d.apply((1, 0, 1))
    assert c == d and hash(c) == hash(d)


@given(st.sampled_from((None, 2, 3, 5)), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_product_matches_the_dense_row_sum(p, nrows, inner, ncols, data):
    # a product read column by column: column j of a b is a applied to
    # column j of b, which is the dense row sum sum_k a_ik b_kj, on sparse
    # matrices over Q with non-integral entries and over GF(p) on residues,
    # for every shape with a zero dimension too, with a's column index reused
    f = Field(p)
    entry = sparse_fraction if p is None else sparse_int

    def draw(nr, nc) -> Matrix:
        return Matrix(f, [[f.coerce(data.draw(entry)) for _ in range(nc)]
                          for _ in range(nr)], ncols=nc)

    a = draw(nrows, inner)
    for _ in range(3):
        b = draw(inner, ncols)
        bcols = [tuple(r[j] for r in b.data) for j in range(ncols)]
        got = [a.apply(c) for c in bcols]
        want = matmul(a, b).data
        assert got == [tuple(r[j] for r in want) for j in range(ncols)]
        assert [list(r) for r in want] == [_dense_apply(f, bcols, r) for r in a.data]
        assert _rational(*got) if p is None else _residues(p, *got)


def test_insert_turns_a_zero_row_away_after_its_length_check():
    for f in (Q, GF2, Field.prime(3)):
        ech = Echelonizer(f, 3)
        assert ech.insert((f.zero,) * 3) is False
        assert ech.insert((f.one, f.zero, f.one)) is True
        assert ech.insert((f.zero,) * 3) is False
        assert ech.to_echelon() == echelon(f, [(1, 0, 1)], 3)
        with pytest.raises(DimensionMismatch):
            ech.insert((f.zero,) * 2)


def test_prime_field_solver_matches_exhaustive_enumeration():
    # ground truth by brute force: check every vector of GF(p)^n
    rng = __import__("random").Random(8)
    for p in (2, 3):
        f = Field.prime(p)
        for _ in range(25):
            nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
            m = Matrix(f, [[rng.randrange(p) for _ in range(ncols)]
                           for _ in range(nrows)])
            b = tuple(f.from_int(rng.randrange(p)) for _ in range(nrows))
            all_vectors = list(product(*[[f.from_int(i) for i in range(p)]] * ncols))
            truth = {v for v in all_vectors if m.apply(v) == b}
            sol = solve_affine(f, m.data, b, ncols)
            if sol.is_empty:
                assert truth == set()
                continue
            # the canonical family enumerates exactly the brute-force solutions
            coeff_space = product(*[[f.from_int(i) for i in range(p)]] * sol.dim)
            family = {sol.element(c) for c in coeff_space}
            assert family == truth
            # kernel dimension pins the solution count
            assert len(truth) == p ** len(sol.kernel_basis)


def test_affine_solution_set_canonical_form():
    # the same solution set must compare equal whatever presentation it came from
    one = solve_affine(Q, [(1, 1)], [1], 2)
    assert one == solve_affine(Q, [(2, 2), (1, 1)], [2, 1], 2)
    assert one == AffineSolutionSet((0, 1), ((1, -1),), Q)


# -- the sparse elimination against the dense one it replaced ---------------------------

@st.composite
def row_system(draw):
    """A field, a width, and rows with zero rows, repeated rows and
    combinations of a few base rows (so often rank-deficient), each entry
    as drawn: over GF(p) an int that may lie outside range(p), over Q an
    int or a Fraction, integral ones included."""
    p = draw(st.sampled_from((None, 2, 3, 5)))
    f = Field(p)
    ncols = draw(st.integers(1, 6))
    integral_fraction = st.builds(Fraction, st.integers(-3, 3).map(lambda n: 2 * n),
                                  st.just(2))
    entry = (st.one_of(sparse_fraction, integral_fraction) if p is None
             else st.integers(-9, 9))

    def vec():
        return tuple(draw(entry) for _ in range(ncols))

    base = [vec() for _ in range(draw(st.integers(1, 3)))]
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("zero", "repeat", "combination", "free")))
        if kind == "zero":
            rows.append((0,) * ncols)
        elif kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "combination":
            cs = [draw(st.integers(-2, 2)) for _ in base]
            rows.append(tuple(sum(c * b[j] for c, b in zip(cs, base))
                              for j in range(ncols)))
        else:
            rows.append(vec())
    return f, ncols, rows


def _in_field(f, rows) -> list:
    return [f.reduce_vec(f.coerce(x) if f.p is None else x for x in r) for r in rows]


@given(row_system())
@settings(max_examples=200, deadline=None)
def test_sparse_insert_matches_the_dense_insert(system):
    # row by row, in the order given: the same answer from insert, the same
    # pivots after it, and the same reduced rows at the end, densified or
    # read entry by entry
    f, ncols, rows = system
    sparse, dense = Echelonizer(f, ncols), DenseEchelonizer(f, ncols)
    for r in rows:
        assert sparse.insert(r) is dense.insert(r)
        assert sparse.pivots == dense.pivots
    ech = sparse.to_echelon()
    assert ech.rows == tuple(dense.rows)
    assert ech.pivots == tuple(dense.pivots)
    assert tuple(sparse.entries(p, range(ncols)) for p in sparse.pivots) == ech.rows
    if f.p:
        assert _residues(f.p, *ech.rows)
    else:
        assert _rational(*ech.rows)


@given(row_system(), st.data())
@settings(max_examples=200, deadline=None)
def test_shortest_first_elimination_matches_the_dense_one(system, data):
    # echelon inserts shortest first; the reduced echelon form of the span,
    # and with it every kernel and solution set, is that of the dense
    # elimination in the order given
    f, ncols, rows = system
    rows = _in_field(f, rows)
    ref = dense_echelon(f, rows, ncols)
    assert echelon(f, rows, ncols) == ref
    if not rows:
        return
    m = Matrix(f, rows)
    free = dense_solve_affine(f, rows, [f.zero] * len(rows), ncols)
    assert kernel(f, rows, ncols).rows == free.kernel_basis

    def scalars(n) -> tuple:
        return tuple(f.coerce(c) for c in data.draw(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n)))

    # a consistent right-hand side, then one that often is not
    for rhs in (m.apply(scalars(ncols)), scalars(len(rows))):
        assert solve_affine(f, rows, rhs, ncols) == dense_solve_affine(f, rows, rhs, ncols)


# -- the tagged elimination of free vectors ---------------------------------------------

@given(row_system(), st.data())
@settings(max_examples=200, deadline=None)
def test_free_basis_matches_the_dense_references(system, data):
    # zero and repeated vectors and combinations of earlier ones: the free
    # vectors and pivots of a greedy dense scan from the last, and inverse
    # rows that are the Gauss-Jordan inverse of the free vectors read at the
    # pivots and write the span's echelon rows; coordinates of y in the span
    # rebuild y; the rows of a square M are all free iff [M | I] reduces to
    # [I | M^-1], and then the inverse rows are those of M^-1
    f, ncols, rows = system
    vectors = _in_field(f, rows)
    free, pivots, inverse = free_basis(f, vectors, ncols)
    assert (free, pivots) == greedy_free(f, vectors, ncols)
    basis = [vectors[i] for i in free]
    assert inverse == gauss_jordan_inverse(f, [tuple(v[p] for p in pivots) for v in basis])
    span = dense_echelon(f, vectors, ncols)
    assert span.pivots == pivots
    assert tuple(_combine(f, row, basis, ncols) for row in inverse) == span.rows
    if f.p:
        assert _residues(f.p, *inverse)
    else:
        assert _rational(*inverse)
    cs = [f.coerce(c) for c in data.draw(st.lists(st.integers(-3, 3), min_size=len(vectors),
                                                   max_size=len(vectors)))]
    y = _combine(f, cs, vectors, ncols)
    assert _combine(f, free_coords(f, pivots, inverse, y), basis, ncols) == y
    if len(vectors) >= ncols:
        # when every row of a square M is free, the pivots are 0..n-1, echelon
        # row p is e_p, and the inverse rows write each e_p over M's rows
        square = vectors[:ncols]
        expected = gauss_jordan_inverse(f, square)
        free, pivots, inverse = free_basis(f, square, ncols)
        assert (len(free) == ncols) is (expected is not None)
        if expected is not None:
            assert (pivots, inverse) == (tuple(range(ncols)), expected)


def _combine(f, coeffs, vectors, ncols) -> tuple:
    return f.reduce_vec(sum((c * v[j] for c, v in zip(coeffs, vectors)), f.zero)
                        for j in range(ncols))


def test_free_basis_of_nothing_and_of_zeros():
    for f in (Q, GF2, Field.prime(3)):
        assert free_basis(f, [], 3) == ((), (), ())
        assert free_basis(f, [(0, 0), (0, 0)], 2) == ((), (), ())
        assert free_coords(f, (), (), (0, 0)) == ()
        # a repeated vector is free only at its last occurrence
        assert free_basis(f, [(0, 1), (1, 0), (0, 1)], 2) == ((1, 2), (0, 1),
                                                               ((1, 0), (0, 1)))
        for singular in ([(0, 0), (0, 1)], [(1, 1), (1, 1)]):
            assert len(free_basis(f, singular, 2)[0]) < 2
    half = Fraction(1, 2)
    assert free_basis(Q, [(2, 0), (1, 1)], 2) == ((0, 1), (0, 1), ((half, 0), (-half, 1)))


# -- inputs that are already a reduced echelon basis -----------------------------------

@st.composite
def near_reduced_system(draw):
    """A field, a width and vectors built on a reduced echelon basis: its
    rows in shuffled order, with zero vectors, repeats and near misses (a
    leading entry other than 1, a nonzero at another row's pivot) added, and
    each vector either in the field or written with entries that are not
    brought into it (over GF(p) an int outside range(p), over Q an integral
    Fraction)."""
    p = draw(st.sampled_from((None, 2, 3, 5)))
    f = Field(p)
    ncols = draw(st.integers(1, 6))
    pivots = sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)))
    entry = sparse_fraction if p is None else st.integers(0, p - 1)
    nonzero = entry.map(f.coerce).filter(bool)
    rows = []
    for q in pivots:
        row = [f.zero] * ncols
        row[q] = f.one
        for j in range(q + 1, ncols):
            if j not in pivots:
                row[j] = f.coerce(draw(entry))
        rows.append(row)
    for change in draw(st.lists(st.sampled_from(("zero", "repeat", "lead", "pivot")),
                                max_size=3)):
        if change == "zero":
            rows.append([f.zero] * ncols)
        elif change == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif change == "lead" and pivots:
            k = draw(st.integers(0, len(pivots) - 1))
            rows[k][pivots[k]] = draw(nonzero)
        elif change == "pivot" and len(pivots) > 1:
            k, other = draw(st.lists(st.integers(0, len(pivots) - 1), min_size=2,
                                     max_size=2, unique=True))
            rows[k][pivots[other]] = draw(nonzero)
    order = draw(st.permutations(range(len(rows))))
    vectors = [tuple(rows[i]) for i in order]
    raw = []
    for v in vectors:
        if draw(st.booleans()):
            raw.append(v)
        elif p is None:
            raw.append(tuple(Fraction(x) if type(x) is int else x for x in v))
        else:
            raw.append(tuple(x + p * draw(st.integers(-1, 1)) for x in v))
    return f, ncols, vectors, raw


@contextmanager
def eliminations():
    """The argument tuples of the `Echelonizer`s built while it is open."""
    built = []
    init = Echelonizer.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    Echelonizer.__init__ = counted
    try:
        yield built
    finally:
        Echelonizer.__init__ = init


@given(near_reduced_system())
@settings(max_examples=300, deadline=None)
def test_reduced_inputs_match_the_dense_references(system):
    # a reduced echelon basis is its own echelon form and all of it is free,
    # with no elimination; every near miss is eliminated; either way the
    # echelon form, free vectors, pivots and inverse rows are the dense
    # references', with the same scalar types
    f, ncols, vectors, raw = system
    reduced = is_reduced_basis(f, vectors, ncols)
    with eliminations() as built:
        ech = echelon(f, raw, ncols)
        free, pivots, inverse = free_basis(f, raw, ncols)
    if raw == vectors:
        assert len(built) == (0 if reduced else 2)
    else:
        assert reduced or len(built) == 2
    ref = dense_echelon(f, vectors, ncols)
    assert (repr(ech.rows), ech.pivots) == (repr(ref.rows), ref.pivots)
    assert (free, pivots) == greedy_free(f, vectors, ncols)
    expected = gauss_jordan_inverse(f, [tuple(vectors[i][q] for q in pivots) for i in free])
    assert repr(inverse) == repr(expected)


def test_settled_inputs_keep_the_general_paths_errors():
    # a vector of the wrong width, a zero one too, raises what the general
    # path raises, whatever the other vectors are
    for f in (Q, GF2):
        for vectors in ([(1, 0), (0, 0, 0)], [(0, 0, 0)], [(0, 1), (1,)]):
            width = len(next(v for v in vectors if len(v) != 2))
            with pytest.raises(DimensionMismatch, match="row width %d != 2" % width):
                echelon(f, vectors, 2)
            with pytest.raises(DimensionMismatch, match="row width %d != %d" % (
                    width + len(vectors), 2 + len(vectors))):
                free_basis(f, vectors, 2)


def test_only_linalg_builds_an_echelonizer():
    # every elimination of the package is built in linalg, by `echelon` or
    # `free_basis`; no other module names the class at all
    import ast
    from pathlib import Path

    import skewalg

    package = Path(skewalg.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        assert ("Echelonizer" in names) is (path.name == "linalg.py"), path.name


def test_a_matrix_is_only_a_linear_map():
    # a Matrix is built, applied, compared and printed; elimination takes
    # rows (`echelon`, `kernel`, `solve_affine`) and never a Matrix
    methods = {name for name, v in vars(Matrix).items()
               if callable(v) or isinstance(v, (classmethod, staticmethod, property))}
    assert methods == {"__init__", "_trusted", "apply", "__eq__", "__hash__", "__repr__"}
