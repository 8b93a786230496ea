import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewalg import (ActionError, Algebra, Field, Matrix, PartialAction,
                     build_groupoid, linalg, skew_ring)
from skewalg.fuzz import random_skeleton, skeleton_to_instance
from skewalg.instances import parse_instance
from skewalg.algebra import nonassociative_triple
from skewalg.linalg import echelon, vadd
from skewalg.separability import (build_certificate, decide_separability,
                                  oracle_separability, trace_between, trace_into,
                                  trace_total)
from skewalg.skew_ring import (InvalidSizeCap, SkewRing, SkewRingError,
                               TensorTooLarge, build_skew_ring, psi_block,
                               psi_tensor_dim, tensor_over)

from conftest import (INSTANCE_DIR, component_blocks,
                      component_decomposition_failures, embedded,
                      factoring_failures, from_coords, greedy_psi_block,
                      instance_data, is_reduced_basis, load_action, matmul, matrix_inverse,
                      non_central_domain,
                      pair_sum_tensor_dim, psi_coords, reference_square,
                      reference_trace_sum, relation_quotient, ring_coords, skew_mul,
                      zero_matrix)
from test_algebra import matrix_algebra_2x2

Q = Field.rationals()


def random_element(ring, rng) -> tuple:
    """Ring coordinates with random entries in -4..4."""
    return tuple(Q.from_int(rng.randint(-4, 4)) for _ in range(ring.dim))


def basis_parts(ring, p) -> dict:
    g, u = ring.basis[p]
    return {g: u}


def dense_tensor_quotient_dim(ring) -> int:
    """Independent oracle: raw balancing generators, one dense rref, no blocks.

    The bimodule actions b . a and a . b' are the skew products (`skew_mul`,
    not the ring table) with the embedded element sum_e (a 1_e) d_e.
    """
    pa = ring.action
    alg = pa.algebra
    n = ring.dim * ring.dim
    zero = ring.field.zero
    rows = []
    for p in range(ring.dim):
        b = basis_parts(ring, p)
        for q in range(ring.dim):
            bp = basis_parts(ring, q)
            for t in range(alg.dim):
                a = embedded(pa, alg.basis_vector(t))
                left = ring_coords(ring, skew_mul(pa, b, a))     # b . a
                right = ring_coords(ring, skew_mul(pa, a, bp))   # a . b'
                row = [zero] * n
                for i, c in enumerate(left):
                    row[i * ring.dim + q] = row[i * ring.dim + q] + c
                for j, c in enumerate(right):
                    row[p * ring.dim + j] = row[p * ring.dim + j] - c
                rows.append(row)
    return n - echelon(ring.field, rows, n).dim


# -- construction ------------------------------------------------------------------

def test_bridge_ring_has_dimension_six(bridge):
    ring = build_skew_ring(bridge)
    assert ring.dim == 6  # 2 + 1 + 1 + 2 over the four morphisms


def test_a_non_central_domain_is_refused_by_the_validation_error():
    # the one gate is `ensure_valid`, which names the failing arrow
    pa = parse_instance(non_central_domain()).action
    with pytest.raises(ActionError) as exc:
        build_skew_ring(pa)
    assert type(exc.value) is ActionError
    assert str(exc.value) == "invalid partial action: 1_s is not a central idempotent"


@pytest.mark.parametrize("build", [tensor_over, oracle_separability])
def test_the_tensor_square_validates_before_reading_the_ideals(build):
    # the size cap reads ideal bases, which only a central idempotent has
    pa = parse_instance(non_central_domain()).action
    with pytest.raises(ActionError) as exc:
        build(pa)
    assert type(exc.value) is ActionError
    assert str(exc.value) == "invalid partial action: 1_s is not a central idempotent"


def test_the_unit_check_fails_on_an_unvalidated_zero_identity_map():
    # SkewRing itself does not validate: alpha_id = 0 makes every product 0
    g = build_groupoid(["e"], [], [], [])
    pa = PartialAction(g, Algebra.diagonal(Q, 1), {"id:e": [1]}, {"id:e": [[0]]})
    ring = SkewRing(pa)
    with pytest.raises(SkewRingError, match="^unit candidate fails on basis element 0$"):
        ring.unit()


@pytest.mark.parametrize("idems,map_s", [
    # the psi-image b0 alpha_s(b1) = b0 of block (s, s) lies outside A_id = 0
    ({"id:e": [0, 0], "s": [1, 1]}, [[0, 1], [0, 0]]),
    # alpha_s(b0) = b0 + b1 although b0 is outside A_s: the table product
    # (b1 d_s)(b0 d_id) is 0, its psi-image b1 alpha_s(b0) = b1 is not
    ({"id:e": [1, 1], "s": [0, 1]}, [[1, 0], [1, 1]]),
], ids=["psi-image-outside-the-ideal", "product-is-not-the-psi-image"])
def test_the_square_checks_the_table_against_psi_on_unvalidated_actions(idems, map_s):
    # SkewRing itself does not validate, so its table can be read against psi
    g = build_groupoid(["e"], [("s", "e", "e")], [("s", "s", "id:e")], [("s", "s")])
    pa = PartialAction(g, Algebra.diagonal(Q, 2), idems, {"s": Matrix(Q, map_s)})
    assert not pa.validate().ok
    assert factoring_failures(SkewRing(pa))


def test_table_products_factor_through_psi():
    # every basis-pair product of the ring table is its psi-image at d_{gh}
    for pa in closed_form_corpus():
        assert factoring_failures(build_skew_ring(pa)) == []


def test_trivial_action_gives_the_field_back(trivial_q):
    ring = build_skew_ring(trivial_q)
    assert ring.dim == 1
    u = ring.unit()
    assert ring.mul_coords(u, u) == u == (1,)


def test_bridge_product_of_bridge_arrows(bridge):
    # (v3 d_g)(v2 d_ginv): pull v3 back to v2, multiply by v2, push to v3 at id:e2
    ring = build_skew_ring(bridge)
    x = ring_coords(ring, {"g": (0, 0, 1, 0)})
    y = ring_coords(ring, {"ginv": (0, 1, 0, 0)})
    assert ring.mul_coords(x, y) == ring_coords(ring, {"id:e2": (0, 0, 1, 0)})


def test_non_composable_product_vanishes(bridge):
    ring = build_skew_ring(bridge)
    x = ring_coords(ring, {"g": (0, 0, 1, 0)})
    assert not any(ring.mul_coords(x, x))


def test_sparse_table_matches_the_element_product(bridge, flip_q, flip_gf3, pair_swap):
    # the table path (sparse, zero-skipping) against skew_mul (alpha maps)
    rng = random.Random(3)
    for pa in (bridge, flip_q, flip_gf3, pair_swap):
        ring = build_skew_ring(pa)
        for i in range(ring.dim):
            for j in range(ring.dim):
                prod = skew_mul(pa, basis_parts(ring, i), basis_parts(ring, j))
                assert ring.product_coords(i, j) == ring_coords(ring, prod)
        field = ring.field
        for _ in range(20):
            xc = tuple(field.from_int(rng.randint(-2, 2)) for _ in range(ring.dim))
            yc = tuple(field.from_int(rng.randint(-2, 2)) for _ in range(ring.dim))
            x, y = from_coords(ring, xc), from_coords(ring, yc)
            assert ring.mul_coords(xc, yc) == ring_coords(ring, skew_mul(pa, x, y))


def test_coords_round_trip(bridge):
    # the ring's own scatter of v d_g against the reference coordinates
    ring = build_skew_ring(bridge)
    rng = random.Random(3)
    for _ in range(20):
        x = from_coords(ring, random_element(ring, rng))
        scattered = [Q.zero] * ring.dim
        for g, v in x.items():
            for k, c in ring._scatter(g, v).items():
                scattered[k] = c
        assert from_coords(ring, scattered) == x
        assert tuple(scattered) == ring_coords(ring, x)


# -- unit and embedding -----------------------------------------------------------------

def test_bridge_unit(bridge):
    ring = build_skew_ring(bridge)
    assert ring.unit() == ring_coords(ring, {"id:e1": (1, 1, 0, 0),
                                             "id:e2": (0, 0, 1, 1)})


def test_unit_fixes_100_random_elements(bridge):
    ring = build_skew_ring(bridge)
    u = ring.unit()
    rng = random.Random(11)
    for _ in range(100):
        x = random_element(ring, rng)
        assert ring.mul_coords(u, x) == x
        assert ring.mul_coords(x, u) == x


def test_embedding_of_unit_is_ring_unit(bridge):
    ring = build_skew_ring(bridge)
    assert ring_coords(ring, embedded(bridge, bridge.algebra.unit)) == ring.unit()


def test_embedding_of_diagonal_idempotent(bridge):
    assert embedded(bridge, [0, 1, 0, 0]) == {"id:e1": (0, 1, 0, 0)}


def embedded_coords(ring, a) -> tuple:
    return ring_coords(ring, embedded(ring.action, a))


def test_embedding_is_multiplicative_on_random_pairs(bridge):
    ring = build_skew_ring(bridge)
    alg = bridge.algebra
    rng = random.Random(5)
    for _ in range(30):
        x = alg.element([rng.randint(-4, 4) for _ in range(alg.dim)])
        y = alg.element([rng.randint(-4, 4) for _ in range(alg.dim)])
        assert embedded_coords(ring, alg.multiply(x, y)) == \
            ring.mul_coords(embedded_coords(ring, x), embedded_coords(ring, y))


# -- bimodule actions: multiplication by embedded elements -------------------------------

def test_right_action_through_the_arrow(bridge):
    # (v3 d_g) . v2 = v3 alpha_g(v2) d_g = v3 d_g
    ring = build_skew_ring(bridge)
    x = ring_coords(ring, {"g": (0, 0, 1, 0)})
    assert ring.mul_coords(x, embedded_coords(ring, [0, 1, 0, 0])) == x
    # and through a coefficient it does not see: (v3 d_g) . v3 = 0
    assert not any(ring.mul_coords(x, embedded_coords(ring, [0, 0, 1, 0])))


def test_left_action_by_unit_is_identity(bridge):
    ring = build_skew_ring(bridge)
    one = embedded_coords(ring, bridge.algebra.unit)
    rng = random.Random(13)
    for _ in range(20):
        x = random_element(ring, rng)
        assert ring.mul_coords(one, x) == x


def test_module_laws_randomized(bridge):
    ring = build_skew_ring(bridge)
    mul = ring.mul_coords
    alg = bridge.algebra
    rng = random.Random(17)
    for _ in range(25):
        a = alg.element([rng.randint(-3, 3) for _ in range(alg.dim)])
        b = alg.element([rng.randint(-3, 3) for _ in range(alg.dim)])
        x = random_element(ring, rng)
        ea, eb, eab = embedded_coords(ring, a), embedded_coords(ring, b), \
            embedded_coords(ring, alg.multiply(a, b))
        assert mul(ea, mul(eb, x)) == mul(eab, x)
        assert mul(mul(x, ea), eb) == mul(x, eab)
        assert mul(mul(ea, x), eb) == mul(ea, mul(x, eb))


def test_bimodule_action_matches_embedding(bridge):
    # the (aabim) actions a . (a_g d_g) = (a a_g) d_g and
    # (a_g d_g) . a = a_g alpha_g(a 1_{g^-1}) d_g are exactly ring
    # multiplication by the embedded element
    ring = build_skew_ring(bridge)
    alg = bridge.algebra
    rng = random.Random(19)
    for _ in range(20):
        a = alg.element([rng.randint(-3, 3) for _ in range(alg.dim)])
        xc = random_element(ring, rng)
        x = from_coords(ring, xc)
        left = {g: alg.multiply(a, v) for g, v in x.items()}
        right = {g: alg.multiply(v, bridge.alpha(g, a)) for g, v in x.items()}
        assert ring_coords(ring, left) == ring.mul_coords(embedded_coords(ring, a), xc)
        assert ring_coords(ring, right) == ring.mul_coords(xc, embedded_coords(ring, a))


# -- component blocks B_[e] ------------------------------------------------------------------

def test_connected_instance_has_one_component_ideal(bridge):
    ring = build_skew_ring(bridge)
    blocks = component_blocks(ring)
    assert len(blocks) == 1
    _, positions, unit = blocks[0]
    assert positions == tuple(range(ring.dim))
    assert unit == ring.unit()
    assert component_decomposition_failures(bridge) == []


def test_glued_double_has_two_orthogonal_blocks(glued_double):
    ring = build_skew_ring(glued_double)
    mul = ring.mul_coords
    blocks = component_blocks(ring)
    assert len(blocks) == 2
    (_, pos1, u1), (_, pos2, u2) = blocks
    assert len(pos1) == 6
    assert len(pos2) == 6
    assert not any(mul(u1, u2))
    assert not any(mul(u2, u1))
    assert mul(u1, u1) == u1
    assert mul(u2, u2) == u2
    assert tuple(a + b for a, b in zip(u1, u2)) == ring.unit()
    assert sorted(pos1 + pos2) == list(range(ring.dim))
    for p in range(ring.dim):
        b = ring.basis_coords(p)
        assert mul(u1, b) == mul(b, u1)
        assert mul(u2, b) == mul(b, u2)


# -- tensor squares --------------------------------------------------------------------------

def test_cross_component_tensor_vanishes(glued_double):
    ring = build_skew_ring(glued_double)
    alg = glued_double.algebra
    a_rows = [alg.basis_vector(i) for i in range(alg.dim)]
    (_, pos1, _), (_, pos2, _) = component_blocks(ring)
    assert relation_quotient(ring, pos1, pos2, a_rows).dim == 0
    assert relation_quotient(ring, pos2, pos1, a_rows).dim == 0


def test_field_tensor_field_is_one_dimensional(trivial_q):
    t = tensor_over(trivial_q)
    assert t.ambient_dim == 1
    assert t.dim == 1


def test_bridge_tensor_dimension_matches_dense_oracle(bridge):
    ring = build_skew_ring(bridge)
    t = tensor_over(bridge)
    assert t.ambient_dim == 36
    assert dense_tensor_quotient_dim(ring) == t.dim
    assert t.dim == 10


def test_component_tensor_dimensions(glued_double, flip_q, pair_swap):
    # per block: B_[e] (x)_A B_[e], B_[e] (x)_{A_[e]} B_[e] and the square of
    # the component's own ring agree; cross blocks vanish; the blocks add up
    # to the whole square; the units are central orthogonal idempotents
    for pa in (glued_double, flip_q, pair_swap):
        assert component_decomposition_failures(pa) == []
    assert tensor_over(glued_double).dim == 2 * 10


def _trivial_action_on(alg) -> PartialAction:
    """One object, only its identity, acting on alg."""
    return PartialAction(build_groupoid(["e"], [], [], []), alg,
                         {"id:e": list(alg.unit)}, {})


def closed_form_corpus():
    """The shipped instances, 25 seed-1 fuzz skeletons over Q, GF(2) and GF(3),
    and the trivial action on M_2(k) over Q and GF(3)."""
    yield from (load_action(p.name) for p in sorted(INSTANCE_DIR.glob("*.json")))
    rng = random.Random(1)
    for _ in range(25):
        skel = random_skeleton(rng)
        for field in ("Q", "GF(2)", "GF(3)"):
            yield parse_instance(skeleton_to_instance(skel, field)).action
    for field in (Q, Field.prime(3)):
        yield _trivial_action_on(matrix_algebra_2x2(field))


def test_trace_matrices_match_the_sum_of_the_maps():
    # the trace matrices are built from alpha-images column by column; the
    # reference adds the stored maps; repr compares the report's strings too
    for pa in closed_form_corpus():
        g_oid = pa.groupoid
        for cls in g_oid.connected_components().classes:
            for i in cls:
                for j in cls:
                    assert repr(trace_between(pa, i, j)) == repr(
                        reference_trace_sum(pa, g_oid.hom_set(i, j)))
        for j in g_oid.objects:
            assert repr(trace_into(pa, j)) == repr(
                reference_trace_sum(pa, g_oid.arrows_into(j)))
        assert repr(trace_total(pa)) == repr(reference_trace_sum(pa, g_oid.morphisms))


def test_total_trace_without_morphisms_is_zero():
    pa = PartialAction(build_groupoid([], [], [], []), matrix_algebra_2x2(Q), {}, {})
    assert trace_total(pa) == zero_matrix(Q, 4, 4) == reference_trace_sum(pa, ())


def psi_free_pairs(ring) -> tuple:
    """`psi_block`'s free pairs of every composable block (g, h) with A_g and
    A_h nonzero, blockwise in morphism order, as ambient coordinates
    p * ring.dim + q of the basis pairs (b_p, b_q)."""
    pa = ring.action
    g_oid = pa.groupoid
    out = []
    for g in g_oid.morphisms:
        for h in g_oid.morphisms:
            nh = pa.ideal(h).dim
            if g_oid.src[g] == g_oid.tgt[h] and pa.ideal(g).dim and nh:
                for j in psi_block(pa, g, h)[2]:
                    p, q = ring.starts[g] + j // nh, ring.starts[h] + j % nh
                    out.append(p * ring.dim + q)
    return tuple(out)


def test_psi_blocks_are_kept_on_the_action_and_shared(monkeypatch):
    # the oracle's square computes each block (g, g^-1) once and keeps it on
    # the action as plain tuples; the decision then computes no block, and
    # the certificate builds no Echelonizer at all
    built = []
    init = linalg.Echelonizer.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(linalg.Echelonizer, "__init__", counted)
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        pa = load_action(path.name)
        g_oid = pa.groupoid
        tensor_over(pa)
        kept = dict(pa._psi_blocks)
        assert set(kept) == {(g, g_oid.inv(g)) for g in g_oid.morphisms if pa.ideal(g).dim}
        for images, kinds, free, pivots, inverse in kept.values():
            assert all(type(part) is tuple
                       for part in (images, kinds, free, pivots, inverse))
            assert all(type(y) is tuple for y in images + inverse)
        verdict = decide_separability(pa)
        assert pa._psi_blocks == kept
        assert all(pa._psi_blocks[pair] is block for pair, block in kept.items())
        if verdict.separable:
            assert set(verdict.certificate.blocks) <= set(kept)
            built.clear()
            cert = build_certificate(pa, verdict.witness, verdict.certificate.witness_family)
            assert built == []
            assert cert == verdict.certificate


def test_psi_coords_solve_against_the_inverse():
    # one elimination of [B^T | Y^T] gives Y at the pivots times the inverse
    # of B at the pivots, as the coordinates were computed before
    rng = random.Random(4)
    for pa in closed_form_corpus():
        field = pa.algebra.field
        g_oid = pa.groupoid
        for g in g_oid.morphisms:
            if not pa.ideal(g).dim:
                continue
            images, kinds, free, pivots, _ = psi_block(pa, g, g_oid.inv(g))
            basis = [images[kinds[f]] for f in free]
            ys = []
            for _ in range(3):
                cs = [field.from_int(rng.randint(-3, 3)) for _ in basis]
                ys.append(field.reduce_vec(sum(c * b[a] for c, b in zip(cs, basis))
                                           for a in range(pa.algebra.dim)))

            def at_pivots(rows):
                return Matrix(field, [[y[p] for p in pivots] for y in rows],
                              ncols=len(pivots))

            assert (psi_coords(field, pivots, basis, ys) ==
                    matmul(at_pivots(ys), matrix_inverse(at_pivots(basis))))


def m2_corpus():
    """M_2(k) under the trivial action, and M_2(k) x M_2(k) under the
    conjugated swap of conj_swap_m2_q, over Q, GF(2) and GF(3)."""
    data = instance_data("conj_swap_m2_q.json")
    for field in (Q, Field.prime(2), Field.prime(3)):
        yield _trivial_action_on(matrix_algebra_2x2(field))
        yield parse_instance({**data, "field": str(field)}).action


def psi_corpus():
    """The closed-form corpus (which holds the actions of
    `fuzz --seed 1 --count 25`) and the M_2 corpus."""
    yield from closed_form_corpus()
    yield from m2_corpus()


def composable_blocks(pa):
    """The blocks (g, h), src g = tgt h, with A_g and A_h nonzero."""
    g_oid = pa.groupoid
    return [(g, h) for g, h in g_oid.composable_pairs()
            if pa.ideal(g).dim and pa.ideal(h).dim]


def test_psi_block_eliminates_once_and_matches_the_second_elimination(monkeypatch):
    # the tagged elimination finds the free pairs and pivots of the images
    # alone (`greedy_psi_block`), and its `inverse` is what psi_coords, a
    # second elimination, gives for the echelon rows of the free images;
    # some blocks have distinct nonzero images that are dependent, which
    # leave inert rows; a block whose distinct nonzero images are already a
    # reduced echelon basis builds no elimination, any other block one
    built = []
    init = linalg.Echelonizer.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    count = inert = settled = 0
    for pa in psi_corpus():
        field, n = pa.algebra.field, pa.algebra.dim
        for g, h in composable_blocks(pa):
            reference = greedy_psi_block(pa, g, h)
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(linalg.Echelonizer, "__init__", counted)
                images, kinds, free, pivots, inverse = psi_block(pa, g, h)
            reduced = is_reduced_basis(field, images, n)
            assert len(built) == (0 if reduced else 1)
            assert (images, kinds, free, pivots) == reference
            basis = [images[kinds[f]] for f in free]
            red = echelon(field, basis, n)
            assert red.pivots == pivots
            coords = psi_coords(field, pivots, basis, red.rows)
            assert repr(Matrix._trusted(field, inverse, len(free))) == repr(coords)
            count += 1
            inert += sum(1 for y in images if any(y)) > len(free)
            settled += reduced
    assert count > 1000 and inert > 5 and settled > 1000 and count - settled > 20


def test_psi_tensor_dim_matches_the_pair_sum():
    # one term per distinct pair of domain idempotents into an object, times
    # its multiplicity, against one term per composable pair
    for pa in psi_corpus():
        assert psi_tensor_dim(pa) == pair_sum_tensor_dim(pa)


@pytest.fixture(scope="module")
def corpus_blocks() -> list:
    """(pa, g, h) for every block of the psi corpus."""
    return [(pa, g, h) for pa in psi_corpus() for g, h in composable_blocks(pa)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vectors_of_a_block_image_have_the_second_eliminations_coordinates(
        corpus_blocks, data):
    # y = sum c_f y_f over the free images: sum_p y[p] inverse[p] gives back
    # c, as psi_coords does
    pa, g, h = corpus_blocks[data.draw(st.integers(0, len(corpus_blocks) - 1))]
    field = pa.algebra.field
    images, kinds, free, pivots, inverse = psi_block(pa, g, h)
    basis = [images[kinds[f]] for f in free]
    c = [field.from_int(x) for x in data.draw(
        st.lists(st.integers(-5, 5), min_size=len(free), max_size=len(free)))]
    y = field.reduce_vec(sum(ci * b[a] for ci, b in zip(c, basis))
                         for a in range(pa.algebra.dim))
    got = field.reduce_vec(sum(y[p] * row[f] for p, row in zip(pivots, inverse))
                           for f in range(len(free)))
    assert got == tuple(c) == psi_coords(field, pivots, basis, [y]).data[0]


def test_the_summands_of_a_certificate_rebuild_its_blocks():
    # the psi-image u alpha_g(w 1_{g^-1}) of each summand (g, u, h, w), summed
    # per block, is the certificate's block (g, h)
    count = 0
    for pa in psi_corpus():
        verdict = decide_separability(pa)
        if not verdict.separable:
            continue
        cert = verdict.certificate
        alg = pa.algebra
        rebuilt: dict = {}
        for g, u, h, w in cert.summands:
            y = alg.multiply(u, pa.alpha(g, w))
            rebuilt[g, h] = vadd(alg.field, rebuilt[g, h], y) if (g, h) in rebuilt else y
        assert rebuilt == cert.blocks
        count += 1
    assert count > 60


def test_closed_form_matches_relation_quotient():
    # the psi normal form against the quotient by the balancing relations:
    # same dimension and free columns
    count = 0
    for pa in closed_form_corpus():
        ring = build_skew_ring(pa)
        ref = reference_square(ring)
        assert (psi_tensor_dim(pa), psi_free_pairs(ring)) == (ref.dim, ref.q_coords)
        count += 1
    assert count == len(sorted(INSTANCE_DIR.glob("*.json"))) + 75 + 2


def test_tensor_dimension_equals_composable_intersection_sum(bridge, flip_q,
                                                             pair_swap,
                                                             glued_double):
    # each (g, h) block of the quotient collapses onto A_g /\ A_{gh}, so the
    # dimension is computable from ideal intersections alone; psi_tensor_dim
    # (which is TensorOverA.dim) against the relation quotient
    for pa in (bridge, flip_q, pair_swap, glued_double):
        alg = pa.algebra
        g_oid = pa.groupoid
        predicted = 0
        for g, h in g_oid.composable_pairs():
            gh = g_oid.compose[(g, h)]
            meet = alg.multiply(pa.idem(g), pa.idem(gh))
            predicted += alg.ideal_basis(meet).dim
        assert psi_tensor_dim(pa) == predicted == \
            reference_square(build_skew_ring(pa)).dim


def test_tensor_accepts_two_builds_of_the_same_action(bridge):
    # two builds of one action give the same square, column for column
    a, b = tensor_over(bridge), tensor_over(bridge)
    assert a.dim == b.dim == 10
    assert a.columns == b.columns


def test_tensor_dimension_cap(monkeypatch, bridge):
    monkeypatch.setenv("SKEWALG_MAX_DIM", "10")
    with pytest.raises(TensorTooLarge):
        tensor_over(bridge)


def test_tensor_over_refuses_before_any_psi_block_runs(monkeypatch):
    # (sum_g dim A_g)^2 = 36 > 35 is known from the ideals alone
    monkeypatch.setenv("SKEWALG_MAX_DIM", "35")
    pa = load_action("partial_bridge_q.json")
    pa.ensure_valid()

    def no_block(*args):
        raise AssertionError("a psi block was read")

    monkeypatch.setattr(skew_ring, "psi_block", no_block)
    with pytest.raises(TensorTooLarge, match="36 exceeds cap 35"):
        tensor_over(pa)


@pytest.mark.parametrize("raw", ["abc", "-1", "1e3", ""])
def test_malformed_cap_is_a_typed_error(monkeypatch, bridge, raw):
    monkeypatch.setenv("SKEWALG_MAX_DIM", raw)
    with pytest.raises(InvalidSizeCap, match="SKEWALG_MAX_DIM"):
        tensor_over(bridge)


def test_ring_table_is_refused_over_the_cap_before_any_product(monkeypatch):
    # the table holds (sum_g dim A_g)^2 = 36 basis-pair products, the
    # ambient dimension of the tensor square, and obeys the same cap
    pa = load_action("partial_bridge_q.json")
    pa.ensure_valid()
    monkeypatch.setenv("SKEWALG_MAX_DIM", "36")
    assert build_skew_ring(pa).dim == 6

    def no_product(*args):
        raise AssertionError("a basis-pair product was computed")

    monkeypatch.setattr(skew_ring, "skew_product", no_product)
    monkeypatch.setenv("SKEWALG_MAX_DIM", "35")
    with pytest.raises(TensorTooLarge, match="36 exceeds cap 35"):
        build_skew_ring(pa)
    monkeypatch.setenv("SKEWALG_MAX_DIM", "abc")
    with pytest.raises(InvalidSizeCap, match="SKEWALG_MAX_DIM"):
        build_skew_ring(pa)


def test_skew_table_identity_rows(bridge):
    ring = build_skew_ring(bridge)
    rows = ring.multiplication_rows()
    assert len(rows) == ring.dim * ring.dim
    # multiplying by the unit part at the right identity reproduces the basis
    unit_coords = ring.unit()
    for p in range(ring.dim):
        assert ring.mul_coords(unit_coords, ring.basis_coords(p)) == \
            ring.basis_coords(p)


class _SwappedTable(SkewRing):
    """A ring whose table has the products b0*b0 and b1*b1 exchanged."""

    def _build_table(self):
        super()._build_table()
        table = [list(row) for row in self._table]
        table[0][0], table[1][1] = table[1][1], table[0][0]
        self._table = tuple(tuple(row) for row in table)


def test_associativity_audit_rejects_a_corrupted_table(bridge):
    # the ring is not audited when it is built; the audit, called here,
    # finds the planted swap
    ring = _SwappedTable(bridge)
    assert nonassociative_triple(ring._table, ring.field) == (0, 0, 1)
    assert nonassociative_triple(build_skew_ring(bridge)._table, ring.field) is None


def test_every_corpus_ring_passes_the_associativity_audit():
    # the skew ring of a valid action is associative (the proof is in the
    # `skew_ring` module docstring), so `build_skew_ring` does not audit its
    # table: the audit runs here, on the rings of the shipped instances, the
    # actions of `fuzz --seed 1 --count 25` and the M_2 corpus
    rings = 0
    for pa in psi_corpus():
        ring = build_skew_ring(pa)
        assert nonassociative_triple(ring._table, ring.field) is None
        rings += 1
    assert rings == 10 + 75 + 2 + 6
