"""Finite groupoids given by explicit composition tables.

A groupoid is stored as ordered object and morphism lists together with
source/target/identity/inverse maps and a composition table defined exactly
on the composable pairs (src(g) == tgt(h) for the product g*h, meaning
"h first, then g").  Identity morphisms are explicit in memory and named
"id:<object>" when synthesised from an instance file.  Connected components
are found by one search per class over the undirected src/tgt neighbours.
Once the identity laws hold, `validate_groupoid` leaves the associativity
triples with an identity untested, since they associate by those laws, and
first tests only the triples whose middle arrow is in a generating set,
which decide associativity by Light's test (proofs in its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass


class GroupoidError(Exception):
    pass


class UnknownObject(GroupoidError):
    pass


class UnknownMorphism(GroupoidError):
    pass


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """The violated groupoid laws or partial-action axioms, in check order."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ComponentPartition:
    """Partition of the objects under "some morphism connects them"."""

    classes: tuple
    transversal: tuple


class Groupoid:
    """A finite groupoid.  Immutable after construction; validate separately."""

    def __init__(self, objects, morphisms, src, tgt, identity, compose, inverse):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.identity = dict(identity)
        self.compose = dict(compose)
        self.inverse = dict(inverse)
        self._into: dict | None = None
        self._generators: tuple | None = None
        if len(set(self.objects)) != len(self.objects):
            raise GroupoidError("duplicate object names")
        if len(set(self.morphisms)) != len(self.morphisms):
            raise GroupoidError("duplicate morphism names")

    # -- basic queries --------------------------------------------------

    def check_object(self, e) -> None:
        if e not in self.identity:
            raise UnknownObject("unknown object %r" % (e,))

    def is_identity(self, g) -> bool:
        return self.identity.get(self.src.get(g)) == g and self.src[g] == self.tgt[g]

    def inv(self, g):
        try:
            return self.inverse[g]
        except KeyError:
            raise UnknownMorphism("no inverse recorded for %r" % (g,)) from None

    def arrows_into(self, e) -> tuple:
        """The morphisms with target e, in morphism order; every morphism
        must have a target."""
        if self._into is None:
            into: dict = {}
            for m in self.morphisms:
                into.setdefault(self.tgt[m], []).append(m)
            self._into = {f: tuple(ms) for f, ms in into.items()}
        return self._into.get(e, ())

    def generators(self) -> tuple:
        """S: the non-identity arrows, chosen greedily in morphism order, where
        an arrow joins S unless a word s_1(s_2(...s_k)) of arrows already in S
        composes to it.  Every non-identity arrow is then such a word, read
        through the table.  The table must hold every composable pair."""
        if self._generators is None:
            compose, src, tgt = self.compose, self.src, self.tgt
            reached = set(self.identity.values())
            into: dict = {}       # e -> reached non-identity arrows with target e
            out_of: dict = {}     # e -> arrows of S with source e
            gens = []
            for m in self.morphisms:
                if m in reached:
                    continue
                gens.append(m)
                out_of.setdefault(src[m], []).append(m)
                # the words that end in m, or pass through it
                stack = [m] + [compose[m, x] for x in into.get(src[m], ())]
                while stack:
                    y = stack.pop()
                    if y not in reached:
                        reached.add(y)
                        into.setdefault(tgt[y], []).append(y)
                        stack.extend(compose[s, y] for s in out_of.get(tgt[y], ()))
            self._generators = tuple(gens)
        return self._generators

    def composable_pairs(self):
        """The pairs (g, h) with src(g) == tgt(h), g then h in morphism order."""
        for g in self.morphisms:
            for h in self.arrows_into(self.src[g]):
                yield g, h

    # -- spec operations -------------------------------------------------

    def hom_set(self, e, f) -> tuple:
        """All morphisms from e to f, in morphism input order."""
        self.check_object(e)
        self.check_object(f)
        return tuple(g for g in self.morphisms if self.src[g] == e and self.tgt[g] == f)

    def connected_components(self) -> ComponentPartition:
        """Classes in order of their first object, objects in object order."""
        near = {e: set() for e in self.objects}
        for g in self.morphisms:
            near[self.src[g]].add(self.tgt[g])
            near[self.tgt[g]].add(self.src[g])
        seen = set()
        classes = []
        for e in self.objects:
            if e in seen:
                continue
            reach, stack = {e}, [e]
            while stack:
                new = near[stack.pop()] - reach
                reach |= new
                stack.extend(new)
            seen |= reach
            classes.append(tuple(f for f in self.objects if f in reach))
        return ComponentPartition(tuple(classes), tuple(c[0] for c in classes))


def build_groupoid(objects, arrows, compose_triples, inverse_pairs) -> Groupoid:
    """Assemble a Groupoid from instance-file style tables.

    `arrows` lists the non-identity morphisms as (name, src, tgt); identity
    morphisms are synthesised as "id:<object>" and ordered before the listed
    arrows (object order first, then input order).  Composition entries whose
    result is forced by an identity law are filled in automatically.
    """
    objects = tuple(objects)
    idname = {e: "id:%s" % e for e in objects}
    names = [idname[e] for e in objects]
    src = {idname[e]: e for e in objects}
    tgt = {idname[e]: e for e in objects}
    for name, s, t in arrows:
        if name in src:
            raise GroupoidError("duplicate morphism name %r" % (name,))
        if s not in idname or t not in idname:
            raise UnknownObject("arrow %r has unknown endpoint" % (name,))
        names.append(name)
        src[name] = s
        tgt[name] = t
    compose = {}
    for g in names:
        compose[(idname[tgt[g]], g)] = g
        compose[(g, idname[src[g]])] = g
    for g, h, gh in compose_triples:
        for m in (g, h, gh):
            if m not in src:
                raise UnknownMorphism("composition table mentions unknown %r" % (m,))
        compose[(g, h)] = gh
    inverse = {idname[e]: idname[e] for e in objects}
    for g, h in inverse_pairs:
        if g not in src or h not in src:
            raise UnknownMorphism("inverse table mentions unknown morphism")
        inverse[g] = h
        inverse[h] = g
    return Groupoid(objects, names, src, tgt, {e: idname[e] for e in objects},
                    compose, inverse)


def validate_groupoid(g: Groupoid) -> ValidationReport:
    """Check every groupoid law; returns a report instead of raising.

    Associativity is not tested on the triples (a, b, c) that hold an
    identity when no identity law failed: by then every table entry has the
    right endpoints and id x = x = x id for every morphism x, so with
    a = id_e, (ab)c = bc = a(bc); with b = id_e, (ab)c = ac = a(bc); and with
    c = id_e, (ab)c = ab = a(bc).  Those triples cannot be flagged, and the
    other triples keep their order.

    With the identity laws in force, the table is first tested on the
    triples (a, s, c) with s in `Groupoid.generators()` and a, c
    non-identities, which decide associativity (Light's test; A. H.
    Clifford and G. B. Preston, The Algebraic Theory of Semigroups, Vol. I,
    1961).  Let T be the set of arrows b with (ab)c = a(bc) for all
    composable a, c.  The tested triples and the identity laws put S in T,
    and the identities are in T by those laws.  T is closed under
    composition: for b1, b2 in T,
    (a(b1 b2))c = ((a b1)b2)c = (a b1)(b2 c) = a(b1(b2 c)) = a((b1 b2)c).
    Every arrow is an identity or a word in S read through the table, so T
    holds every arrow and no triple can be flagged.  If a tested triple
    fails, every triple is scanned as above, so the violations and their
    order are those of the full scan.  The test runs only when S is smaller
    than the set of non-identity arrows, where it tests fewer triples.
    """
    bad = []

    def flag(code, msg):
        bad.append(Violation(code, msg))

    for e in g.objects:
        i = g.identity.get(e)
        if i is None or i not in g.src:
            flag("BadIdentity", "object %r has no identity morphism" % (e,))
        elif g.src[i] != e or g.tgt[i] != e:
            flag("BadIdentity", "identity of %r has wrong endpoints" % (e,))
    for m in g.morphisms:
        if m not in g.src or m not in g.tgt:
            flag("BadComposition", "morphism %r lacks endpoints" % (m,))
            continue
        if g.src[m] not in g.identity or g.tgt[m] not in g.identity:
            flag("BadComposition", "morphism %r touches unknown object" % (m,))
    if bad:
        return ValidationReport(tuple(bad))

    morph = set(g.morphisms)
    for (a, b), c in g.compose.items():
        if a not in morph or b not in morph or c not in morph:
            flag("BadComposition", "table entry (%r,%r)->%r uses unknown morphism" % (a, b, c))
            continue
        if g.src[a] != g.tgt[b]:
            flag("BadComposition", "product %r*%r defined but not composable" % (a, b))
        elif g.tgt[c] != g.tgt[a] or g.src[c] != g.src[b]:
            flag("BadComposition", "product %r*%r has wrong endpoints" % (a, b))
    # every morphism has known endpoints from here on, so `arrows_into` is defined
    for a, b in g.composable_pairs():
        if (a, b) not in g.compose:
            flag("BadComposition", "composable pair (%r,%r) missing from table" % (a, b))
    if any(v.code == "BadComposition" for v in bad):
        return ValidationReport(tuple(bad))

    for m in g.morphisms:
        i_t, i_s = g.identity[g.tgt[m]], g.identity[g.src[m]]
        if g.compose.get((i_t, m)) != m or g.compose.get((m, i_s)) != m:
            flag("BadIdentity", "identity law fails at %r" % (m,))
    # with the identity laws in force, triples with an identity associate
    identities = set() if bad else set(g.identity.values())
    for m in g.morphisms:
        n = g.inverse.get(m)
        if n is None:
            flag("MissingInverse", "morphism %r has no inverse" % (m,))
            continue
        if g.src[n] != g.tgt[m] or g.tgt[n] != g.src[m]:
            flag("MissingInverse", "inverse of %r has wrong endpoints" % (m,))
            continue
        if (g.compose.get((m, n)) != g.identity[g.tgt[m]]
                or g.compose.get((n, m)) != g.identity[g.src[m]]):
            flag("MissingInverse", "%r and %r do not compose to identities" % (m, n))
    if (identities and len(g.generators()) < len(g.morphisms) - len(identities)
            and _associates_at(g, g.generators(), identities)):
        return ValidationReport(tuple(bad))
    for a, b in g.composable_pairs():
        if a in identities or b in identities:
            continue
        ab = g.compose[(a, b)]
        for c in g.arrows_into(g.src[b]):
            if c not in identities and g.compose[(ab, c)] != g.compose[(a, g.compose[(b, c)])]:
                flag("NonAssociative",
                     "(%r*%r)*%r != %r*(%r*%r)" % (a, b, c, a, b, c))
    return ValidationReport(tuple(bad))


def _associates_at(g: Groupoid, middles, identities) -> bool:
    """(ab)c == a(bc) for every b in `middles` and composable
    non-identities a, c."""
    compose, src, tgt = g.compose, g.src, g.tgt
    out_of: dict = {}       # e -> non-identity arrows with source e
    for a in g.morphisms:
        if a not in identities:
            out_of.setdefault(src[a], []).append(a)
    for b in middles:
        right = [(c, compose[b, c]) for c in g.arrows_into(src[b]) if c not in identities]
        for a in out_of.get(tgt[b], ()):
            ab = compose[a, b]
            if any(compose[ab, c] != compose[a, bc] for c, bc in right):
                return False
    return True
