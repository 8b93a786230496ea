import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from skewalg import algebra as algebra_module
from skewalg.algebra import (Algebra, AlgebraError, NotCentralIdempotent,
                             nonassociative_triple, table_product)
from skewalg.instances import load_instance
from skewalg.linalg import DimensionMismatch, Field, LinalgError
from skewalg.skew_ring import build_skew_ring

from conftest import (INSTANCE_DIR, changed_basis, dense_center_basis,
                      dense_nonassociative_triple, dense_table_product, law_failures,
                      product_central_idempotent, product_commutes_with_all, span_coords,
                      subspace_invariant_suite)

Q = Field.rationals()


def diag4():
    return Algebra.diagonal(Q, 4, ["v1", "v2", "v3", "v4"])


def m2_structure(field=Q) -> list:
    """Dense constants of M_2 on E11, E12, E21, E22: E_ab * E_cd = delta_bc E_ad."""
    idx = {(a, b): 2 * a + b for a in range(2) for b in range(2)}
    zero, one = field.zero, field.one
    structure = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                structure[i][j][idx[(a, d)]] = one
    return structure


def matrix_algebra_2x2(field=Q):
    return Algebra(field, m2_structure(field), [1, 0, 0, 1], ["E11", "E12", "E21", "E22"])


# -- multiplication ---------------------------------------------------------------

def test_unit_is_identity():
    a = diag4()
    x = a.element([3, Fraction(1, 2), -1, 7])
    assert a.multiply(a.unit, x) == x
    assert a.multiply(x, a.unit) == x


def test_orthogonal_idempotents_multiply_to_zero():
    a = diag4()
    v2, v3 = a.basis_vector(1), a.basis_vector(2)
    assert a.multiply(v2, v3) == a.zero()
    assert a.multiply(v2, v2) == v2


def test_multiply_checks_dimensions():
    a = diag4()
    for _ in range(2):  # a refused product is never kept
        with pytest.raises(Exception):
            a.multiply((1, 2), a.unit)
        with pytest.raises(Exception):
            a.multiply(list(a.unit), [1, 2, 3])


def test_construction_errors_name_what_is_wrong():
    with pytest.raises(DimensionMismatch, match=r"^structure constants are not dim\^3$"):
        Algebra(Q, [[[1, 0], [0, 0]]], [1])
    # a row is its n constants, not a dict of the nonzero ones, even of length n
    full = {0: 1, 1: 0}
    with pytest.raises(DimensionMismatch, match=r"^structure constants are not dim\^3$"):
        Algebra(Q, [[full, [0, 0]], [[0, 0], [0, 1]]], [1, 1])
    with pytest.raises(DimensionMismatch, match="^basis name count mismatch$"):
        Algebra.diagonal(Q, 2, ["a"])
    with pytest.raises(DimensionMismatch, match="^element length 3 != dim 2$"):
        Algebra.diagonal(Q, 2).element([1, 0, 0])


def test_a_decomposition_needs_central_idempotents():
    alg = Algebra.diagonal(Q, 2)
    assert alg.check_object_decomposition([[1, 0], [0, 1]])
    assert not alg.check_object_decomposition([[2, 0], [-1, 1]])


def test_matrix_algebra_multiplication():
    m = matrix_algebra_2x2()
    e12, e21 = m.basis_vector(1), m.basis_vector(2)
    assert m.multiply(e12, e21) == m.basis_vector(0)   # E12 E21 = E11
    assert m.multiply(e21, e12) == m.basis_vector(3)   # E21 E12 = E22
    assert m.multiply(e12, e12) == m.zero()


@pytest.mark.parametrize("field", [Q, Field.prime(3)], ids=str)
def test_multiply_matches_the_structure_constants(field):
    # the sparse table product against sum_ij x_i y_j structure[i][j][k]
    m = matrix_algebra_2x2(field)
    structure = m2_structure(field)
    rng = random.Random(7)
    for _ in range(40):
        x = m.element([rng.randint(-3, 3) for _ in range(4)])
        y = m.element([rng.randint(-3, 3) for _ in range(4)])
        dense = field.reduce_vec(sum((x[i] * y[j] * structure[i][j][k]
                                      for i in range(4) for j in range(4)), field.zero)
                                 for k in range(4))
        assert m.multiply(x, y) == dense
        # a kept product is the table product, for tuples and lists alike
        reference = table_product(m._table, x, y, field)
        for _ in range(2):
            assert m.multiply(x, y) == reference
            assert m.multiply(list(x), list(y)) == reference


def _unreduced(field, v) -> tuple:
    """v with its entries not brought into the field: over GF(p) shifted by
    p, over Q the integral ones as Fractions."""
    if field.p is None:
        return tuple(Fraction(x) if type(x) is int else x for x in v)
    return tuple(x + field.p for x in v)


@pytest.mark.parametrize("p", [None, 2, 3, 5])
def test_one_entry_factors_match_the_dense_product(p):
    # c b_i times c' b_j is c c' times one table entry: on random tables,
    # associative or not, and on every shipped algebra and skew ring, the
    # product and its scalar types are the dense sum's, for c c' = 1 too
    field = Field(p)
    rng = random.Random(23)
    tables = [_random_table(rng, field, rng.randint(1, 6), density)
              for density in (0.15, 0.3, 0.6, 1.0) for _ in range(10)]
    tables += [table for f, table in _valid_tables() if f == field]
    units = 0
    for table in tables:
        n = len(table)
        for _ in range(20):
            x, y = [field.zero] * n, [field.zero] * n
            x[rng.randrange(n)] = field.one if rng.random() < 0.5 else _random_scalar(rng, field)
            y[rng.randrange(n)] = field.one if rng.random() < 0.5 else _random_scalar(rng, field)
            x, y = tuple(x), tuple(y)
            for a, b in ((x, y), (_unreduced(field, x), y), (list(x), list(y))):
                assert repr(table_product(table, a, b, field)) == repr(
                    dense_table_product(table, a, b, field))
            units += sum(x) * sum(y) == 1
    assert len(tables) > 40 and units > 100


def test_a_unit_factor_gives_the_table_product():
    # multiply returns the other factor, reduced and kept, where the table
    # product with the unit gives it: on diagonal, matrix, changed-basis and
    # shipped algebras, for a unit equal to the kept one and not it, and for
    # reduced, unreduced and list factors
    rng = random.Random(5)
    algebras = [Algebra.diagonal(Q, 3), Algebra.diagonal(Field.prime(5), 4),
                matrix_algebra_2x2(), matrix_algebra_2x2(Field.prime(3))]
    algebras += [changed_basis(alg, rng)[0] for alg in algebras]
    algebras += [load_instance(path).action.algebra
                 for path in sorted(INSTANCE_DIR.glob("*.json"))]
    for alg in algebras:
        field, table = alg.field, alg._table
        for _ in range(10):
            y = alg.element([_random_scalar(rng, field) if rng.random() < 0.5 else 0
                             for _ in range(alg.dim)])
            for unit in (alg.unit, tuple(list(alg.unit))):
                for v in (y, _unreduced(field, y), list(y)):
                    for got, want in ((alg.multiply(unit, v), table_product(table, unit, v, field)),
                                      (alg.multiply(v, unit), table_product(table, v, unit, field))):
                        assert repr(got) == repr(want)
                        assert alg._values[got] is got


# -- construction-time checks --------------------------------------------------------

def test_non_associative_structure_is_rejected():
    # unit law holds (u two-sided identity) but (a*a)*a = b*a = 0 != u = a*(a*a)
    structure = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    with pytest.raises(AlgebraError, match=r"at basis triple \(1, 1, 1\)"):
        Algebra(Q, structure, [1, 0, 0])


def test_wrong_unit_is_rejected():
    structure = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]   # k x k
    with pytest.raises(AlgebraError, match="identity"):
        Algebra(Q, structure, [1, 0])


@pytest.mark.parametrize("field", [Q, Field.prime(5)], ids=str)
@pytest.mark.parametrize("n", [0, 1, 5])
def test_diagonal_table_equals_the_dense_built_table(field, n):
    one, zero = field.one, field.zero
    dense = [[[one if i == j == k else zero for k in range(n)] for j in range(n)]
             for i in range(n)]
    assert Algebra.diagonal(field, n)._table == Algebra(field, dense, [one] * n)._table


@pytest.mark.parametrize("field", [Q, Field.prime(2), Field.prime(5)], ids=str)
def test_diagonal_tables_pass_the_reference_law_audit(field):
    # `Algebra.diagonal` skips the audit on the strength of its docstring proof
    for n in range(13):
        assert law_failures(Algebra.diagonal(field, n)) == []


def test_the_reference_law_audit_finds_a_bad_unit_and_a_bad_triple():
    good = Algebra.diagonal(Q, 3)
    assert law_failures(SimpleNamespace(field=Q, _table=good._table, dim=3,
                                        unit=(1, 1, 0))) == [("unit", 2)]
    table = [list(plane) for plane in good._table]
    table[0][0] = {1: 1}
    assert law_failures(SimpleNamespace(field=Q, _table=table, dim=3, unit=good.unit)) \
        == [("unit", 0), ("associativity", 0, 0, 1)]


def test_diagonal_skips_the_audit_and_a_given_table_does_not(monkeypatch):
    audited = []

    def audit(table, field):
        audited.append(len(table))
        return None

    monkeypatch.setattr(algebra_module, "nonassociative_triple", audit)
    Algebra.diagonal(Q, 4)
    assert audited == []
    Algebra(Q, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
    assert audited == [2]


# -- the associativity audit against the dense reference ------------------------------

def _with_entry(table, i, j, entry) -> tuple:
    rows = [list(row) for row in table]
    rows[i][j] = entry
    return tuple(tuple(row) for row in rows)


def _random_scalar(rng, field):
    if field.p is None:
        return field.coerce(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3))))
    return rng.randrange(1, field.p)


def _random_table(rng, field, n, density) -> tuple:
    """Each product b_i b_j is nonzero with probability `density`, on 1-2 random b_k."""
    return tuple(tuple({k: _random_scalar(rng, field)
                        for k in rng.sample(range(n), rng.randint(1, min(2, n)))}
                       if rng.random() < density else {} for _ in range(n))
                 for _ in range(n))


def _valid_tables() -> list:
    """Associative tables: small algebras and every shipped algebra and ring."""
    tables = [(Q, Algebra.diagonal(Q, 3)._table), (Q, matrix_algebra_2x2()._table),
              (Field.prime(3), matrix_algebra_2x2(Field.prime(3))._table)]
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        pa = load_instance(path).action
        tables.append((pa.algebra.field, pa.algebra._table))
        tables.append((pa.algebra.field, build_skew_ring(pa)._table))
    return tables


@pytest.mark.parametrize("field", [Q, Field.prime(3)], ids=str)
def test_audit_matches_the_dense_reference_on_random_tables(field):
    rng = random.Random(11)
    failing = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        table = _random_table(rng, field, n, rng.choice((0.05, 0.15, 0.3, 0.6)))
        expected = dense_nonassociative_triple(table, field)
        assert nonassociative_triple(table, field) == expected, table
        failing += expected is not None
    assert 0 < failing < 300


def test_audit_matches_the_dense_reference_on_shipped_and_corrupted_tables():
    rng = random.Random(5)
    for field, table in _valid_tables():
        assert nonassociative_triple(table, field) is None
        assert dense_nonassociative_triple(table, field) is None
        n = len(table)
        for _ in range(6):
            # an entry anywhere, also where no composable pair of the ring has one
            i, j = rng.randrange(n), rng.randrange(n)
            entry = {rng.randrange(n): _random_scalar(rng, field)}
            bad = _with_entry(table, i, j, entry)
            assert nonassociative_triple(bad, field) == \
                dense_nonassociative_triple(bad, field)
        # b_i b_j = 0 but b_i (b_j b_k) = b_i b_m != 0: only the right side has terms
        zeros = [(i, j, m) for i in range(n) for j in range(n) if not table[i][j]
                 for m in range(n) if table[i][m]]
        for i, j, m in rng.sample(zeros, min(4, len(zeros))):
            k = rng.choice([k for k in range(n) if (j, k) != (i, j)] or [None])
            if k is None:
                continue
            bad = _with_entry(table, j, k, {m: field.one})
            found = nonassociative_triple(bad, field)
            assert found is not None
            assert found == dense_nonassociative_triple(bad, field)


def _incidence_table(rng, field, n) -> tuple:
    """The incidence algebra of a random partial order on n points: basis
    E_ab for a <= b with E_ab E_cd = [b == c] E_ad, sparse and associative."""
    below = [[a == b or (a < b and rng.random() < 0.4) for b in range(n)] for a in range(n)]
    for m in range(n):
        for a in range(n):
            for b in range(n):
                below[a][b] = below[a][b] or (below[a][m] and below[m][b])
    pairs = [(a, b) for a in range(n) for b in range(n) if below[a][b]]
    index = {ab: i for i, ab in enumerate(pairs)}
    return tuple(tuple({index[(a, d)]: field.one} if b == c else {} for c, d in pairs)
                 for a, b in pairs)


@pytest.mark.parametrize("field", [Q, Field.prime(3)], ids=str)
def test_candidate_pairs_find_a_planted_entry_like_the_dense_scan(field):
    # one entry planted in an associative sparse table, also in a product
    # that was zero, or one product cleared
    rng = random.Random(41)
    failing = 0
    for _ in range(200):
        table = _incidence_table(rng, field, rng.randint(1, 5))
        assert nonassociative_triple(table, field) is None
        n = len(table)
        entry = ({rng.randrange(n): _random_scalar(rng, field)} if rng.random() < 0.85
                 else {})
        bad = _with_entry(table, rng.randrange(n), rng.randrange(n), entry)
        expected = dense_nonassociative_triple(bad, field)
        assert nonassociative_triple(bad, field) == expected, bad
        failing += expected is not None
    assert failing > 100


def test_candidate_pairs_match_the_dense_scan_on_every_skew_ring_of_the_corpus():
    from test_skewring import closed_form_corpus

    rng = random.Random(43)
    count = 0
    for pa in closed_form_corpus():
        field, table = pa.algebra.field, build_skew_ring(pa)._table
        assert nonassociative_triple(table, field) is None
        assert dense_nonassociative_triple(table, field) is None
        n = len(table)
        for _ in range(2):
            bad = _with_entry(table, rng.randrange(n), rng.randrange(n),
                              {rng.randrange(n): _random_scalar(rng, field)})
            assert nonassociative_triple(bad, field) == \
                dense_nonassociative_triple(bad, field)
        count += 1
    assert count > 80


# -- center -----------------------------------------------------------------------------

def test_center_of_commutative_algebra_is_everything():
    assert diag4().center_basis().dim == 4


def test_center_of_matrix_algebra_is_scalars():
    # solving the commutation system by hand leaves only multiples of E11+E22
    m = matrix_algebra_2x2()
    assert m.center_basis().rows == ((Q.one, Q.zero, Q.zero, Q.one),)


def test_center_of_two_fields_has_dimension_two():
    assert Algebra.diagonal(Q, 2).center_basis().dim == 2


def test_center_elements_commute_with_basis():
    m = matrix_algebra_2x2()
    for z in m.center_basis().rows:
        assert m.commutes_with_all(z)


def _direct_product(a: Algebra, b: Algebra) -> Algebra:
    """a x b on the basis of a followed by the basis of b."""
    n = a.dim + b.dim
    structure = [[[a.field.zero] * n for _ in range(n)] for _ in range(n)]
    for at, alg in ((0, a), (a.dim, b)):
        for i, row in enumerate(alg._table):
            for j, t in enumerate(row):
                for k, c in t.items():
                    structure[at + i][at + j][at + k] = c
    return Algebra(a.field, structure, a.unit + b.unit)


def _center_corpus():
    from test_skewring import closed_form_corpus

    for pa in closed_form_corpus():
        yield pa.algebra
    yield load_instance(INSTANCE_DIR / "conj_swap_m2_q.json").action.algebra
    rng = random.Random(29)
    for field in (Q, Field.prime(3)):
        m2 = matrix_algebra_2x2(field)
        yield m2
        for base in (_direct_product(m2, Algebra.diagonal(field, 1)),
                     Algebra.diagonal(field, 3)):
            for _ in range(4):
                yield changed_basis(base, rng)[0]


def test_center_read_off_the_table_matches_the_dense_reference():
    dims = set()
    count = 0
    for alg in _center_corpus():
        center = alg.center_basis()
        assert center == dense_center_basis(alg)
        assert all(alg.commutes_with_all(z) for z in center.rows)
        dims.add((alg.dim, center.dim))
        count += 1
    assert count > 90
    # M_2(k) x k has a 2-dimensional centre in any basis, k^3 all of it
    assert {(4, 1), (5, 2), (3, 3)} <= dims


# -- commutativity, decided once --------------------------------------------------------------

def dual_numbers(field=Q) -> Algebra:
    """k[x]/(x^2) on 1, x: commutative, and not diagonal."""
    return Algebra(field, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0], ["1", "x"])


def _commutativity_cases():
    """(algebra, commutative): k^n for n = 0..8, k[x]/(x^2), M_2(Q) and the
    M_2 x M_2 of conj_swap_m2_q."""
    for n in range(9):
        yield Algebra.diagonal(Q, n), True
    yield dual_numbers(), True
    yield matrix_algebra_2x2(), False
    yield load_instance(INSTANCE_DIR / "conj_swap_m2_q.json").action.algebra, False


def _probes(alg: Algebra) -> list:
    """Basis vectors, 0, the unit, 2 * unit and sums of two basis vectors."""
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    sums = [alg.element([x + y for x, y in zip(u, v)]) for u, v in zip(basis, basis[1:])]
    return basis + [alg.zero(), alg.unit, alg.element([2 * x for x in alg.unit])] + sums


def test_commutativity_is_decided_when_the_algebra_is_built():
    for alg, commutative in _commutativity_cases():
        assert alg.commutative is commutative


def test_the_commutativity_fact_keeps_the_product_answers():
    for alg, _ in _commutativity_cases():
        assert alg.center_basis() == dense_center_basis(alg)
        for x in _probes(alg) + list(alg.center_basis().rows):
            assert alg.commutes_with_all(x) == product_commutes_with_all(alg, x)
            assert alg.is_central_idempotent(x) == product_central_idempotent(alg, x)
        with pytest.raises(DimensionMismatch):
            alg.commutes_with_all((Q.one,) * (alg.dim + 1))


def test_a_commutative_centre_is_the_standard_basis_with_no_elimination(monkeypatch):
    calls = []
    monkeypatch.setattr(algebra_module, "kernel", lambda *system: calls.append(system))
    for alg in (Algebra.diagonal(Q, 5), dual_numbers()):
        center = alg.center_basis()
        assert center.rows == tuple(alg.basis_vector(i) for i in range(alg.dim))
        assert center.pivots == tuple(range(alg.dim))
    assert calls == []


# -- idempotents and ideals -----------------------------------------------------------------

def test_unit_is_central_idempotent():
    a = diag4()
    assert a.is_central_idempotent(a.unit)


def test_basis_vector_is_central_idempotent_in_diagonal_algebra():
    a = diag4()
    assert a.is_central_idempotent(a.basis_vector(1))


def test_scaled_idempotent_is_not_idempotent():
    a = diag4()
    e = a.element([2, 2, 0, 0])
    assert not a.is_central_idempotent(e)


def test_non_central_idempotent_detected():
    m = matrix_algebra_2x2()
    e11 = m.basis_vector(0)
    assert m.multiply(e11, e11) == e11
    for _ in range(2):  # the kept verdict, for tuples and lists alike
        assert not m.is_central_idempotent(e11)
        assert not m.is_central_idempotent(list(e11))
    with pytest.raises(NotCentralIdempotent):
        m.ideal_basis(e11)


def test_float_or_string_twin_of_a_kept_vector_is_rejected():
    # the int vector's verdict, ideal and decomposition are kept; a twin that
    # compares and hashes equal but holds floats or strings is still checked
    a = diag4()
    e, co = a.element([1, 1, 0, 0]), a.element([0, 0, 1, 1])
    assert a.is_central_idempotent(e)
    assert a.ideal_basis(e).dim == 2
    assert a.check_object_decomposition([e, co])
    checks = (a.is_central_idempotent, a.ideal_basis,
              lambda v: a.check_object_decomposition([v, co]))
    for twin in ((1.0, 1.0, 0.0, 0.0), [1.0, 1, 0, 0], ("1", "1", "0", "0")):
        for check in checks:
            with pytest.raises(ValueError):
                check(twin)
    assert a.is_central_idempotent([1, 1, 0, 0])


def test_validation_checks_no_scalar_the_package_computed(monkeypatch):
    # every scalar is checked where it enters: once an instance is parsed,
    # validating it and its object decomposition coerce none; the identities
    # a valid action obeys, which the tests' own references compute, hold
    calls = []
    coerce = Field.coerce

    def counted(self, x):
        calls.append(x)
        return coerce(self, x)

    for path in sorted(INSTANCE_DIR.glob("*.json")):
        pa = load_instance(path).action
        monkeypatch.setattr(Field, "coerce", counted)
        assert pa.validate().ok
        assert pa.has_object_decomposition()
        monkeypatch.setattr(Field, "coerce", coerce)
        assert calls == [], path.name
        assert all(subspace_invariant_suite(pa).values())


def test_ideal_of_unit_is_everything():
    a = diag4()
    assert a.ideal_basis(a.unit).dim == 4


def test_a_unit_row_of_an_ideal_basis_is_the_unit(monkeypatch):
    # on A = k the one row of A*1 equals the unit, and `multiply` knows the
    # unit by identity: the row is the unit object and takes no product
    for field in (Q, Field.prime(2)):
        alg = Algebra.diagonal(field, 1)
        row = alg.ideal_basis(alg.unit).rows[0]
        assert row is alg.unit
        x = alg.element([3])
        products = []
        monkeypatch.setattr(algebra_module, "table_product",
                            lambda *args: products.append(args))
        assert alg.multiply(row, x) is x and products == []
        monkeypatch.undo()


def test_ideal_of_zero_is_zero():
    a = diag4()
    assert a.ideal_basis(a.zero()).dim == 0


def test_ideal_of_single_idempotent():
    a = diag4()
    ideal = a.ideal_basis(a.basis_vector(1))
    assert ideal.rows == (a.basis_vector(1),)


def test_ideal_dimensions_are_complementary():
    a = diag4()
    for e in ([1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 0, 0, 0]):
        e = a.element(e)
        co = tuple(x - y for x, y in zip(a.unit, e))
        assert a.ideal_basis(e).dim + a.ideal_basis(co).dim == a.dim


def _ideal_corpus():
    """(algebra, central idempotents): the domain idempotents of every action
    of `closed_form_corpus()` (the shipped instances, conj_swap_m2_q.json
    among them, and the trivial action on M_2(k) over Q and GF(3)), and M_2(k)
    over GF(2) and GF(5), each with its unit and 0."""
    from test_skewring import closed_form_corpus

    for pa in closed_form_corpus():
        alg = pa.algebra
        yield alg, {alg.unit, alg.zero()} | set(pa.idems.values())
    yield load_instance(INSTANCE_DIR / "conj_swap_m2_q.json").action.algebra, ()
    for p in (2, 5):
        m2 = matrix_algebra_2x2(Field.prime(p))
        yield m2, (m2.unit, m2.zero())


def _read_by_elimination(basis, y):
    try:
        return span_coords(basis, y)
    except LinalgError as exc:
        return str(exc)


def test_ideal_coords_matches_the_echelon_coordinates():
    rng = random.Random(47)
    members = outside = 0
    for alg, idems in _ideal_corpus():
        for e in idems:
            basis = alg.ideal_basis(e)
            ys = [alg.basis_vector(i) for i in range(alg.dim)]
            ys += [alg.multiply(b, e) for b in ys]
            for _ in range(4):
                ys.append(basis.combine([alg.field.from_int(rng.randint(-3, 3))
                                         for _ in basis.rows]))
                ys.append(alg.element([rng.randint(-3, 3) for _ in range(alg.dim)]))
            for y in ys:
                expected = _read_by_elimination(basis, y)
                if isinstance(expected, str):
                    with pytest.raises(LinalgError) as exc:
                        alg.ideal_coords(e, y)
                    assert str(exc.value) == expected == "vector is not in the subspace"
                    outside += 1
                else:
                    assert alg.ideal_coords(e, y) == expected
                    members += 1
    assert members > 2000 and outside > 1000


# -- object decompositions ---------------------------------------------------------------------

def test_decomposition_of_bridge_idempotents():
    a = diag4()
    assert a.check_object_decomposition([a.element([1, 1, 0, 0]),
                                         a.element([0, 0, 1, 1])])


def test_unit_alone_is_a_decomposition():
    a = diag4()
    assert a.check_object_decomposition([a.unit])


def test_repeated_idempotent_is_not_a_decomposition():
    a = diag4()
    v1 = a.basis_vector(0)
    assert not a.check_object_decomposition([v1, v1])


def test_incomplete_sum_is_not_a_decomposition():
    a = diag4()
    assert not a.check_object_decomposition([a.basis_vector(0), a.basis_vector(1)])
