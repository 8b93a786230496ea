"""Unital partial actions of a finite groupoid on a finite-dimensional algebra.

Per morphism g the data is a central idempotent 1_g (generating the ideal
A_g = A*1_g) and a full dim x dim matrix which must restrict to a ring
isomorphism A_{g^-1} -> A_g and annihilate the complement A*(1 - 1_{g^-1}).
With that convention the stored matrix computes a |-> alpha_g(a * 1_{g^-1})
on the whole algebra, which is exactly the summand appearing in trace maps.
The basis of A_g is `Algebra.ideal_basis(1_g)`, kept per arrow by
`PartialAction.ideal`, and a vector is read in its coordinates through
`Algebra.ideal_coords(1_g, y)` (y in A_g iff y 1_g == y).

`validate_partial_action` runs the ring-isomorphism checks on an arrow only
where they can fail: an arrow with 1_{g^-1} == 1_g that fixes its ideal,
and the second arrow of an inverse pair that inverts the first, already
checked one, are ring isomorphisms by the checks they passed (proofs in its
docstring).  For the same reason it skips work that cannot flag anything:
the complement check where 1_{g^-1} is the unit; on commutative A the
multiplicativity of alpha_g on reversed pairs of basis rows; and once the
identity axiom holds at every object, axioms II and III on the composable
pairs with an identity, which the earlier checks prove, and on the pairs
(g^-1, g) where the ring-isomorphism check accepted g or g^-1 as the
inverse of the other.  A global action is first checked on the groupoid's
generating set only: the ring-isomorphism checks on its arrows s, and III
on the pairs (s, h), which by induction on the words in s prove the rest;
if that attempt flags anything, the full scan runs, so every violation
list is the full scan's.  An identity arrow given no map is stored as R,
right multiplication by 1_e; such a map passes every arrow check and the
identity axiom once 1_e is a central idempotent, so validation counts it
as a ring isomorphism and computes none of its alpha-images (proof in the
docstring of `validate_partial_action`).  A map given explicitly, even one
equal to R, runs every check.
"""

from __future__ import annotations

from itertools import chain

from .algebra import Algebra
from .groupoid import (Groupoid, ValidationReport, Violation,
                       validate_groupoid)
from .linalg import Echelon, Matrix, echelon, free_basis, free_coords


class ActionError(Exception):
    pass


class DecompositionRequired(ActionError):
    pass


class PartialAction:
    """Per morphism g, the domain idempotent 1_g and the map alpha_g.

    alpha_g is stored as a dense dim x dim `Matrix` (the convention of the
    module docstring) and applied through its sparse columns: `alpha` goes
    through `Matrix.apply`, which caches the nonzero entries of each column,
    so a mostly permutation-like alpha_g costs about the support of its
    argument.  `alpha` keeps each image alpha_g(v) it computes, since the
    axiom checks, the traces and the certificate move the same ideal rows
    and idempotents again and again, and keeps it through the algebra
    (`Algebra._keep`), so an image equal to the unit or to a domain
    idempotent is that same object.
    """

    def __init__(self, groupoid: Groupoid, algebra: Algebra, idems: dict, maps: dict):
        self.groupoid = groupoid
        self.algebra = algebra
        self.idems = {}
        self.maps = {}
        self.defaulted = set()       # the identity arrows given no map, stored as R
        for g in groupoid.morphisms:
            if g not in idems:
                raise ActionError("no domain idempotent for morphism %r" % (g,))
            self.idems[g] = algebra.element(idems[g])
        for g in groupoid.morphisms:
            m = maps.get(g)
            if m is None:
                if not groupoid.is_identity(g):
                    raise ActionError("no map given for non-identity morphism %r" % (g,))
                m = algebra.right_mul_matrix(self.idems[g])
                self.defaulted.add(g)
            elif not isinstance(m, Matrix):
                m = Matrix(algebra.field, m)
            if m.nrows != algebra.dim or m.ncols != algebra.dim:
                raise ActionError("map for %r is not %d x %d" % (g, algebra.dim, algebra.dim))
            self.maps[g] = m
        self._images: dict = {}        # (g, v) -> alpha_g(v)
        self._ideals: dict = {}        # g -> ideal(g)
        self._psi_blocks: dict = {}    # (g, h) -> skew_ring.psi_block(self, g, h)
        self._generators: tuple | None = None     # skew_ring.ring_generators(self)
        self._tensor_dim: int | None = None       # skew_ring.psi_tensor_dim(self)
        self._traces: dict = {}        # arrows -> separability._trace_sum(self, arrows)
        self._report: ValidationReport | None = None
        self._decomposes: bool | None = None

    # -- accessors ---------------------------------------------------------

    def idem(self, g) -> tuple:
        return self.idems[g]

    def obj_idem(self, e) -> tuple:
        return self.idems[self.groupoid.identity[e]]

    def matrix(self, g) -> Matrix:
        return self.maps[g]

    def alpha(self, g, v) -> tuple:
        """alpha_g(v * 1_{g^-1}), i.e. the stored full matrix applied to v."""
        key = (g, tuple(v))
        out = self._images.get(key)
        if out is None:
            out = self._images[key] = self.algebra._keep(self.maps[g].apply(v))
        return out

    def ideal(self, g) -> Echelon:
        """Canonical basis of A_g = A * 1_g, `Algebra.ideal_basis(1_g)`, kept
        per arrow."""
        out = self._ideals.get(g)
        if out is None:
            out = self._ideals[g] = self.algebra.ideal_basis(self.idems[g])
        return out

    # -- spec operations -----------------------------------------------------

    def is_global(self) -> bool:
        """True iff every domain ideal is the full object ideal A_{t(g)}."""
        return all(self.idem(g) == self.obj_idem(self.groupoid.tgt[g])
                   for g in self.groupoid.morphisms)

    def has_object_decomposition(self) -> bool:
        if self._decomposes is None:
            self._decomposes = self.algebra.check_object_decomposition(
                [self.obj_idem(e) for e in self.groupoid.objects])
        return self._decomposes

    def require_decomposition(self) -> None:
        """`ensure_valid`, then `DecompositionRequired` unless the object
        idempotents are orthogonal with sum 1."""
        self.ensure_valid()
        if not self.has_object_decomposition():
            raise DecompositionRequired(
                "object idempotents are not orthogonal with sum 1")

    def validate(self) -> ValidationReport:
        """The violated groupoid laws, or if there are none, the violated
        action axioms (which presuppose a groupoid)."""
        if self._report is None:
            laws = validate_groupoid(self.groupoid)
            self._report = laws if not laws.ok else validate_partial_action(self)
        return self._report

    def ensure_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise ActionError("invalid partial action: %s" %
                              "; ".join(v.message for v in report.violations))


def validate_partial_action(pa: PartialAction) -> ValidationReport:
    """Check the partial-action axioms on alpha-images of A's vectors.

    alpha_g must be a ring isomorphism A_{g^-1} -> A_g with
    alpha_g(b) == alpha_g(b 1_{g^-1}) on the basis: it annihilates
    A(1 - 1_{g^-1}).  Where 1_{g^-1} is the unit object that complement is
    A(1 - 1) = 0 and b 1 = b, so the check is skipped.  alpha_g then sends
    1_{g^-1} to 1_g with no check: once
    alpha_g maps A_{g^-1} bijectively onto A_g and is multiplicative there,
    each y in A_g is alpha_g(x) for an x in A_{g^-1}, so
    alpha_g(1_{g^-1}) y = alpha_g(1_{g^-1} x) = y = y alpha_g(1_{g^-1}):
    alpha_g(1_{g^-1}) is a two-sided identity of A_g, and so equals 1_g.
    After the complement check, two cases are accepted as ring
    isomorphisms without the image echelon and the multiplicativity loop,
    because those two checks would pass:
    - (a) 1_{g^-1} == 1_g and alpha_g(u) == u on ideal(g).rows.  Then
      alpha_g is the identity on A_g = A_{g^-1}, a linear map fixing a
      basis: a bijection onto A_g, and multiplicative.  Every identity
      arrow has 1_{g^-1} == 1_g, and so has every loop of a global action
      (1_{g^-1} = 1_{s(g)} = 1_{t(g)} = 1_g).
    - (b) g^-1 already passed every check with (g^-1)^-1 = g, and
      alpha_g(alpha_{g^-1}(v)) == v on ideal(g).rows.  Then
      phi = alpha_{g^-1} restricted to A_g is a ring isomorphism
      A_g -> A_{g^-1}, and alpha_g phi is linear and fixes a basis of A_g,
      so it is the identity there.  Each w in A_{g^-1} is phi(v) for one v in
      A_g, so alpha_g(w) = v = phi^-1(w): alpha_g on A_{g^-1} is phi^-1,
      again a ring isomorphism, onto A_g.
    Every other arrow runs the two checks, in that order and with their
    messages.  On commutative A the multiplicativity loop tests the pairs
    (u_i, u_j) of basis rows with i <= j only: uv = vu and
    alpha_g(u) alpha_g(v) = alpha_g(v) alpha_g(u), so (v, u) states the
    equation of (u, v).  Then axioms II and III are checked per composable pair
    (g, h) on the central idempotent p = alpha_h^-1(1_{g^-1} 1_h) of A:
    - a ring isomorphism sends the ideal of a central idempotent to the ideal
      of its image, so alpha_h^-1(A_{g^-1} /\\ A_h) = A p, which lies in
      A_{(gh)^-1} (II) iff p 1_{(gh)^-1} == p;
    - for u in A_{h^-1}, alpha_g(alpha_h(u)) = alpha_g(alpha_h(u) 1_{g^-1}) =
      alpha_g(alpha_h(u p)), and u p spans A p as u runs over a basis of
      A_{h^-1}, so III (alpha_g alpha_h = alpha_gh on A p) holds iff
      alpha_g(alpha_h(u)) == alpha_gh(u p) on ideal(h^-1).rows.

    p is pulled back through alpha_{h^-1} instead of an inverse of alpha_h:
    the candidate c = alpha_{h^-1}(1_{g^-1} 1_h) is accepted iff
    alpha_h(c) == 1_{g^-1} 1_h.  This is exact.  Every arrow has passed the
    checks above and (h^-1)^-1 = h in a groupoid, so the stored map of h^-1
    annihilates A(1 - 1_h) and maps A_h onto A_{h^-1}: c lies in A_{h^-1}.
    alpha_h is injective on A_{h^-1}, so an accepted c is the one preimage p
    there.  On a valid action alpha_{h^-1} inverts alpha_h and c is always
    accepted; only when it is rejected is p computed, as the combination of
    ideal(h^-1).rows whose alpha_h-images sum to 1_{g^-1} 1_h.  Those images
    are independent (alpha_h is a bijection onto A_h), so every one is free
    in their `free_basis`, built once per such h, and `free_coords` gives
    the coefficients.

    Each h's ideal(h^-1) and the images alpha_h(u) of its rows are read
    once, for all the pairs (g, h).  The pairs (g, h) with g or h an
    identity, and the pairs (h^-1, h) of an inverse pair case (b) accepted,
    are skipped when nothing has been flagged before them, that is when
    every arrow passed the checks above and the identity axiom holds at
    every object; II and III then hold on them.  The groupoid's laws are
    presupposed, as `PartialAction.validate` checks them first: id^-1 = id,
    id h = h, g id = g and h^-1 h = id_{s(h)}.  Every arrow k passed
    containment (1_k 1_{t(k)} = 1_k) and the complement check, and sends
    1_{k^-1} to 1_k.
    - g = id_e, e = t(h): gh = h and 1_e 1_h = 1_h by containment, so
      c = alpha_{h^-1}(1_h) = 1_{h^-1} is accepted as p, since
      alpha_h(1_{h^-1}) = 1_h.  II: p 1_{h^-1} = p.  III: u p = u for u in
      A_{h^-1}, and alpha_h(u) lies in A_h, inside A_e, where alpha_e is the
      identity by the identity axiom, so alpha_e(alpha_h(u)) = alpha_h(u p).
    - h = id_e, e = s(g): gh = g and 1_{g^-1} 1_e = 1_{g^-1} by containment
      (t(g^-1) = e), so c = alpha_e(1_{g^-1}) = 1_{g^-1} by the identity
      axiom, accepted as p.  II: p 1_{g^-1} = p.  III: for u in A_e,
      alpha_e(u) = u, and alpha_g(u) = alpha_g(u 1_{g^-1}) = alpha_g(u p) by
      the complement check.
    - g = h^-1 != h, where case (b) accepted h or h^-1: gh = id_e, e = s(h).
      If it accepted h^-1, alpha_{h^-1} alpha_h = id on A_{h^-1} is its
      test; if it accepted h, alpha_h on A_{h^-1} inverts alpha_{h^-1} on
      A_h, which gives the same.  1_{g^-1} 1_h = 1_h, and
      c = alpha_{h^-1}(1_h) = 1_{h^-1} is accepted as p.  II:
      p 1_e = p by containment (t(h^-1) = e).  III: alpha_{h^-1}(alpha_h(u))
      = u = alpha_e(u p) for u in A_{h^-1}, inside A_e, by the identity
      axiom.  A self-inverse non-identity arrow never passes case (b), whose
      g^-1 must pass before g, so its pair (g, g) is tested.

    A global action (1_g = 1_{t(g)} for every g, `PartialAction.is_global`)
    is first checked on the generating set S = `Groupoid.generators()`
    only, by the same loops over fewer arrows: III on the pairs (s, h) with
    s in S and h a non-identity arrow into s(s), taking p = 1_{h^-1}; the
    complement check on every arrow; the ring-isomorphism checks on S
    alone; and the identity axiom.  If none of them flags anything, every
    check of the full scan passes, as follows, and the report is empty;
    otherwise the full scan runs, so the violations and their order are
    the full scan's.  Write x*y for the composite (y first) and beta_g for
    the stored map of g on A_{s(g)} = A_{g^-1}.
    - Every beta_g is a ring isomorphism A_{s(g)} -> A_{t(g)}.  Identities
      are, by the identity axiom.  `generators()` reaches each non-identity
      arrow as an s in S, checked, or as a word s*y with s in S and y a
      non-identity arrow reached before it.  By induction beta_y is a ring
      isomorphism onto A_{t(y)} = A_{s(s)}, and the tested pair (s, y)
      reads beta_s(beta_y(u)) = beta_{s*y}(u 1_{s(y)}) = beta_{s*y}(u) on
      a basis of A_{s(y)}: beta_{s*y} = beta_s beta_y, a composite of ring
      isomorphisms, onto A_{t(s)} = A_{t(s*y)}.
    - So every arrow passes the ring-isomorphism checks and the complement
      check, and sends 1_{s(g)} to 1_{t(g)}; cases (a) and (b) accept only
      ring isomorphisms, so no check flags an arrow.  In every pair (g, h),
      1_{g^-1} 1_h = 1_{s(g)} 1_{t(h)} = 1_h, so p = 1_{h^-1} (the
      pull-back is accepted), and II holds: 1_{h^-1} 1_{(g*h)^-1} =
      1_{s(h)} 1_{s(g*h)} = 1_{s(h)}.
    - III holds on every pair (g, h): beta_g beta_h = beta_{g*h} on
      A_{s(h)}.  With g or h an identity it holds as above.  Call g good
      when it holds for every h into s(g).  Each s in S is good, by the
      tested pairs and the pairs with h an identity.  If y is good, so is
      s*y for s in S: for h into s(y), beta_h maps into A_{s(y)}, so
      beta_{s*y} beta_h = beta_s beta_y beta_h (pair (s, y))
      = beta_s beta_{y*h} (y good) = beta_{s*(y*h)} (pair (s, y*h), tested,
      or with y*h an identity) = beta_{(s*y)*h} (associativity).  By
      induction on the words every arrow is good.
    No pull-back is computed on this path: p = 1_{h^-1} is exact once every
    arrow is a ring isomorphism, which the passing checks prove, and a
    non-generator arrow that is not one makes some check flag, so the full
    scan reports it.  III runs first, so an action that breaks it falls
    back before any image echelon is built.

    The identity arrows in `pa.defaulted`, which were given no map, enter
    `iso_ok` before any check, on both paths, and run neither the arrow
    checks nor the identity axiom; none of them could flag such an arrow.
    Its stored map is R(b) = b 1_e, and once the domain checks pass, 1_e is
    a central idempotent.  id_e^-1 = id_e by the groupoid's laws, so
    1_{g^-1} = 1_g = 1_e, and the inverse is usable.  Complement check:
    R(b 1_e) = b 1_e 1_e = b 1_e = R(b) for every basis vector b.  Case (a)
    accepts it: for u in A_e, u = a 1_e, so R(u) = a 1_e 1_e = u.  The
    identity axiom is the same test, alpha_e(u) = u on A_e.  So the full
    scan would add id_e to `iso_ok` with no violation, as it is added here.
    """
    g_oid = pa.groupoid
    bad = _domain_violations(pa)
    if bad:
        return ValidationReport(tuple(bad))
    identities = set(g_oid.identity.values())
    if pa.is_global():
        gens = g_oid.generators()
        attempt = chain(_pair_violations(pa, gens, identities, (), pull_back=False),
                        _arrow_violations(pa, set(gens), set(pa.defaulted), set()),
                        _identity_violations(pa))
        if next(attempt, None) is None:
            return ValidationReport(())
    iso_ok, paired = set(pa.defaulted), set()
    bad = list(_arrow_violations(pa, set(g_oid.morphisms), iso_ok, paired))
    bad += _identity_violations(pa)
    if iso_ok != set(g_oid.morphisms):
        return ValidationReport(tuple(bad))
    # with the identity axiom passed, pairs with an identity hold II and III,
    # and so do the pairs (x^-1, x) of an inverse pair case (b) accepted
    if bad:
        identities, paired = set(), set()
    bad += _pair_violations(pa, g_oid.morphisms, identities, paired, pull_back=True)
    return ValidationReport(tuple(bad))


def _domain_violations(pa: PartialAction) -> list:
    """The arrows g whose 1_g is not a central idempotent inside the ideal
    of t(g), in morphism order."""
    g_oid = pa.groupoid
    alg = pa.algebra
    bad = []
    for g in g_oid.morphisms:
        if not alg.is_central_idempotent(pa.idem(g)):
            bad.append(Violation("NotIdempotentDomain",
                                 "1_%s is not a central idempotent" % (g,)))
            continue
        # A_g must sit inside the object ideal A_{t(g)}
        e_t = pa.obj_idem(g_oid.tgt[g])
        if alg.is_central_idempotent(e_t) and alg.multiply(pa.idem(g), e_t) != pa.idem(g):
            bad.append(Violation(
                "NotIdempotentDomain",
                "A_%s is not contained in the ideal of its target object" % (g,)))
    return bad


def _arrow_violations(pa: PartialAction, checked, iso_ok: set, paired: set):
    """The complement check on every arrow not in `iso_ok`, then the
    ring-isomorphism checks on those in `checked`, adding those that pass
    to `iso_ok` and the inverse pairs case (b) accepts to `paired`."""
    g_oid = pa.groupoid
    alg = pa.algebra
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    for g in g_oid.morphisms:
        if g in iso_ok:
            continue
        ginv = g_oid.inverse.get(g)
        if ginv is None or ginv not in pa.idems:
            yield Violation("NotRingIso", "morphism %r has no usable inverse" % (g,))
            continue
        ginv_idem = pa.idem(ginv)
        if ginv_idem is not alg.unit and any(
                pa.alpha(g, b) != pa.alpha(g, alg.multiply(b, ginv_idem)) for b in basis):
            yield Violation(
                "NotRingIso",
                "map of %s does not annihilate the complement of its domain ideal" % (g,))
            continue
        if g not in checked:
            continue
        if ginv_idem == pa.idem(g) and all(pa.alpha(g, u) == u for u in pa.ideal(g).rows):
            iso_ok.add(g)
            continue
        if (ginv in iso_ok and g_oid.inverse.get(ginv) == g and
                all(pa.alpha(g, pa.alpha(ginv, v)) == v for v in pa.ideal(g).rows)):
            iso_ok.add(g)
            paired |= {g, ginv}
            continue
        src, dst = pa.ideal(ginv), pa.ideal(g)
        images = [pa.alpha(g, u) for u in src.rows]
        img_span = echelon(alg.field, images, alg.dim)
        if img_span.dim != src.dim or img_span != dst:
            yield Violation("NotRingIso", "map of %s is not a bijection onto its ideal" % (g,))
            continue
        pairs = tuple(zip(src.rows, images))
        if not all(pa.alpha(g, alg.multiply(u, v)) == alg.multiply(au, av)
                   for i, (u, au) in enumerate(pairs)
                   for v, av in (pairs[i:] if alg.commutative else pairs)):
            yield Violation("NotRingIso", "map of %s is not multiplicative on its ideal" % (g,))
            continue
        iso_ok.add(g)


def _identity_violations(pa: PartialAction):
    """The identity axiom: alpha_e fixes A_e, at every object e whose map
    was given."""
    g_oid = pa.groupoid
    for e in g_oid.objects:
        i = g_oid.identity[e]
        if i not in pa.defaulted and any(pa.alpha(i, u) != u for u in pa.ideal(i).rows):
            yield Violation("IdentityAxiom",
                            "identity map at %r is not the identity on A_%r" % (e, e))


def _pair_violations(pa: PartialAction, firsts, skipped, paired, pull_back: bool):
    """II and III on the composable pairs (g, h) with g in `firsts`, neither
    in `skipped`, other than the pairs (g^-1, g) with g in `paired`.  With
    `pull_back` p is pulled back as above; without it (a global action)
    p = 1_{h^-1} and II is not tested."""
    g_oid = pa.groupoid
    alg = pa.algebra
    compose, inverse = g_oid.compose, g_oid.inverse
    idems, alpha, multiply = pa.idems, pa.alpha, alg.multiply
    moved = {}          # h -> (ideal(h^-1), the pairs (u, alpha_h(u)) over its rows)
    inverses = {}
    for g in firsts:
        if g in skipped:
            continue
        ginv = inverse[g]
        ginv_idem = idems[ginv]
        for h in g_oid.arrows_into(g_oid.src[g]):
            if h in skipped or (h == ginv and g in paired):
                continue
            if h not in moved:
                hinv_ideal = pa.ideal(inverse[h])
                moved[h] = hinv_ideal, [(u, alpha(h, u)) for u in hinv_ideal.rows]
            hinv_ideal, images = moved[h]
            gh = compose[g, h]
            if not pull_back:
                p = idems[inverse[h]]
            else:
                meet = multiply(ginv_idem, idems[h])
                p = alpha(inverse[h], meet)
                if alpha(h, p) != meet:
                    if h not in inverses:
                        inverses[h] = free_basis(alg.field, [au for _, au in images], alg.dim)
                    _, pivots, coeffs = inverses[h]
                    p = hinv_ideal.combine(free_coords(alg.field, pivots, coeffs, meet))
                if multiply(p, idems[g_oid.inv(gh)]) != p:
                    yield Violation(
                        "AxiomII", "preimage of A_%s^-1 /\\ A_%s under alpha_%s leaves A_(%s)^-1"
                        % (g, h, h, gh))
                    continue
            if any(alpha(g, au) != alpha(gh, multiply(u, p)) for u, au in images):
                yield Violation("AxiomIII",
                                "alpha_%s alpha_%s != alpha_%s on the overlap" % (g, h, gh))
