"""Skeleton instances and their closed-form separability verdict.

A skeleton component is the pair groupoid on k objects times Z/m, acting
globally on a diagonal algebra by letter permutations and then restricted to
a domain subset T_j of the d letters at each object j:

    sigma     a permutation of range(d) whose order divides m
    tau[j]    the relabeling of object j's letters
    T[j]      the letters object j keeps

Arrow (i, j, t) goes from object j to object i and moves letter x of j to
letter pi(x) = tau[i] sigma^t tau[j]^-1 (x) of i; it is defined on the x in
T[j] with pi(x) in T[i].  This mirrors the fuzzer's construction, but this
module does not import skewalg, so the benchmark's inputs do not change when
the package's own generators do.

Closed form: A in A*G is separable iff, in every component, each sigma-cycle
of length l that contains tau[j]^-1 (x) for some object j and x in T[j] has
char not dividing m / l.  Over Q that always holds.
"""

from __future__ import annotations

import random

FIELD_CHAR = {"Q": 0, "GF(2)": 2, "GF(3)": 3, "GF(5)": 5}


def _invert(p) -> list:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return out


def _power(p, t) -> list:
    out = list(range(len(p)))
    for _ in range(t):
        out = [p[x] for x in out]
    return out


def cycle_lengths(sigma) -> dict:
    """Letter -> length of its sigma-cycle."""
    out = {}
    for start in range(len(sigma)):
        if start in out:
            continue
        cyc = [start]
        while sigma[cyc[-1]] != start:
            cyc.append(sigma[cyc[-1]])
        for x in cyc:
            out[x] = len(cyc)
    return out


def random_sigma(rng: random.Random, d: int, m: int, fixed_share: float = 0.0) -> list:
    """A permutation of range(d) whose cycle lengths divide m.

    Each letter block starts a fixed point with probability `fixed_share`,
    else a cycle of a random length dividing m that still fits.
    """
    letters = list(range(d))
    rng.shuffle(letters)
    sigma = list(range(d))
    at = 0
    while at < d:
        lengths = [l for l in range(1, m + 1) if m % l == 0 and l <= d - at]
        l = 1 if rng.random() < fixed_share else rng.choice(lengths)
        cyc = letters[at:at + l]
        for idx, x in enumerate(cyc):
            sigma[x] = cyc[(idx + 1) % l]
        at += l
    return sigma


def arrow_domain(c: dict, i: int, j: int, t: int) -> list:
    """(x, pi(x)) for the letters x of object j on which arrow (i, j, t) is defined."""
    pi = [c["tau"][i][y] for y in _power(c["sigma"], t)]
    pi = [pi[y] for y in _invert(c["tau"][j])]
    keep = set(c["T"][i])
    return [(x, pi[x]) for x in c["T"][j] if pi[x] in keep]


def ring_dim(skel: dict) -> int:
    """Dimension of A*G: the sum over arrows of the size of their domain."""
    return sum(len(arrow_domain(c, i, j, t))
               for c in skel["components"]
               for i in range(c["k"]) for j in range(c["k"]) for t in range(c["m"]))


def algebra_dim(skel: dict) -> int:
    return sum(len(T) for c in skel["components"] for T in c["T"])


def closed_form_separable(skel: dict, field: str) -> bool:
    p = FIELD_CHAR[field]
    if p == 0:
        return True
    for c in skel["components"]:
        lengths = cycle_lengths(c["sigma"])
        for j in range(c["k"]):
            inv = _invert(c["tau"][j])
            for x in c["T"][j]:
                if (c["m"] // lengths[inv[x]]) % p == 0:
                    return False
    return True


def component(rng: random.Random, k: int, m: int, d: int, domain_size=None,
              fixed_share: float = 0.0) -> dict:
    """One random component; `domain_size` fixes |T_j|, else it is uniform in 1..d."""
    sizes = [domain_size or rng.randint(1, d) for _ in range(k)]
    return {"k": k, "m": m, "d": d,
            "sigma": random_sigma(rng, d, m, fixed_share),
            "tau": [rng.sample(range(d), d) for _ in range(k)],
            "T": [sorted(rng.sample(range(d), s)) for s in sizes]}


def fuzz_bounded_skeleton(rng: random.Random, max_arrows: int = 6, max_dim: int = 6) -> dict:
    """Random components within the fuzzer's default size bounds."""
    specs = []
    arrows, objects = max_arrows, max_dim
    while True:
        options = [(k, m) for k in (1, 2) for m in range(1, 7)
                   if k * k * m <= arrows and k <= objects]
        if not options:
            break
        k, m = rng.choice(options)
        specs.append((k, m))
        arrows -= k * k * m
        objects -= k
        if rng.random() < 0.5:
            break
    total_objects = sum(k for k, _ in specs)
    comps = []
    for k, m in specs:
        d = rng.randint(1, max(1, min(3, max_dim // total_objects)))
        comps.append(component(rng, k, m, d))
    return {"components": comps}


def _slots(skel: dict) -> dict:
    """(object name, letter) -> algebra coordinate, objects named o0, o1, ..."""
    slot = {}
    obj = 0
    for c in skel["components"]:
        for j in range(c["k"]):
            for x in c["T"][j]:
                slot[("o%d" % obj, x)] = len(slot)
            obj += 1
    return slot


def to_instance(skel: dict, field: str, tag: str) -> dict:
    """The instance-file dict of a skeleton over `field` (all entries are 0/1).

    `tag` goes into the algebra's basis names, so instances with distinct
    tags have distinct digests even where their structure coincides.
    """
    slot = _slots(skel)
    dim = len(slot)
    objects, morphisms, compose, inverse = [], [], [], []
    action = {}
    first = 0
    for ci, c in enumerate(skel["components"]):
        k, m = c["k"], c["m"]
        names = ["o%d" % (first + j) for j in range(k)]
        objects.extend(names)
        first += k

        def arrow(i, j, t):
            return "id:%s" % names[i] if i == j and t == 0 else "m%d.%d.%d.%d" % (ci, i, j, t)

        for i in range(k):
            for j in range(k):
                for t in range(m):
                    g = arrow(i, j, t)
                    dom = ["0"] * dim
                    pairs = arrow_domain(c, i, j, t)
                    for _, y in pairs:
                        dom[slot[(names[i], y)]] = "1"
                    if i == j and t == 0:
                        action[g] = {"dom": dom}
                        continue
                    morphisms.append({"name": g, "src": names[j], "tgt": names[i]})
                    mat = [["0"] * dim for _ in range(dim)]
                    for x, y in pairs:
                        mat[slot[(names[i], y)]][slot[(names[j], x)]] = "1"
                    action[g] = {"dom": dom, "map": mat}
                    inv = arrow(j, i, (-t) % m)
                    if g <= inv:
                        inverse.append([g, inv])
                    for l in range(k):
                        for s in range(m):
                            if not (j == l and s == 0):
                                compose.append([g, arrow(j, l, s), arrow(i, l, (t + s) % m)])
    return {"field": field,
            "groupoid": {"objects": objects, "morphisms": morphisms,
                         "compose": compose, "inverse": inverse},
            "algebra": {"diagonal": dim,
                        "basis_names": ["%s.%d" % (tag, i) for i in range(dim)]},
            "action": action}
