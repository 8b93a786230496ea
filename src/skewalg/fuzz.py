"""Random valid instances and the decide-vs-oracle differential suite.

Validity by construction: each connected component is a (pair groupoid on k
objects) x (cyclic group Z/m), acting globally on a diagonal algebra by
coordinate permutations, then restricted to a random sub-idempotent per
object.  Restricting a global action to idempotent domains always yields a
unital partial action, so no rejection sampling is needed; the validator is
still run on every emitted instance.

In a component with objects o_0..o_{k-1} (numbered within the component),
arrow (i, j, t) goes from object o_j to object o_i and carries t in Z/m;
(i, i, 0) is the identity of o_i.  Its map sends letter x of o_j to
pi(x) = tau_i(sigma^t(tau_j^-1(x))) of o_i, on the letters x in T_j with
pi(x) in T_i.
"""

from __future__ import annotations

import itertools
import random

from .instances import parse_instance
from .separability import cross_check, decide_separability, oracle_separability

# every fuzzed skeleton is checked over each of these fields
FIELDS = ("Q", "GF(2)")


def _divisors(m: int) -> list:
    return [d for d in range(1, m + 1) if m % d == 0]


def _power_of_order_dividing(rng: random.Random, d: int, m: int) -> list:
    """A random permutation of range(d) whose order divides m (cycle lengths | m)."""
    letters = list(range(d))
    rng.shuffle(letters)
    perm = [0] * d
    at = 0
    while at < d:
        lengths = [l for l in _divisors(m) if l <= d - at]
        l = rng.choice(lengths)
        cyc = letters[at:at + l]
        for idx in range(l):
            perm[cyc[idx]] = cyc[(idx + 1) % l]
        at += l
    return perm


def _check_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError("%s must be at least %d, got %d" % (name, low, value))


def random_skeleton(rng: random.Random, max_morphisms: int = 6, max_dim: int = 6) -> dict:
    """Field-independent combinatorial data for one random instance; the
    smallest instance has 1 morphism and algebra dim 1, so both bounds must
    be at least 1 (ValueError otherwise)."""
    _check_at_least("max_morphisms", max_morphisms, 1)
    _check_at_least("max_dim", max_dim, 1)
    comps = []
    mbudget, obudget = max_morphisms, max_dim
    # both budgets start at 1 or more, so the first draw offers (k, m) = (1, 1)
    # and at least one component is drawn
    while True:
        options = [(k, m) for k in (1, 2) for m in (1, 2, 3, 4, 5, 6)
                   if k * k * m <= mbudget and k <= obudget]
        if not options:
            break
        k, m = rng.choice(options)
        comps.append({"k": k, "m": m})
        mbudget -= k * k * m
        obudget -= k
        if rng.random() < 0.5:
            break
    total_objects = sum(c["k"] for c in comps)
    for c in comps:
        c["d"] = rng.randint(1, max(1, min(3, max_dim // total_objects)))
        c["sigma"] = _power_of_order_dividing(rng, c["d"], c["m"])
        c["tau"] = [list(rng.sample(range(c["d"]), c["d"])) for _ in range(c["k"])]
        c["T"] = [sorted(rng.sample(range(c["d"]), rng.randint(1, c["d"])))
                  for _ in range(c["k"])]
    return {"components": comps}


def skeleton_to_instance(skel: dict, field_desc) -> dict:
    """Instance-file dict (entries are 0/1, so any field works)."""
    # global coordinate layout: per object, one slot per letter of its domain subset
    objects, slot = [], {}
    for c in skel["components"]:
        for letters in c["T"]:
            obj = "o%d" % len(objects)
            objects.append(obj)
            for x in letters:
                slot[(obj, x)] = len(slot)
    dim = len(slot)
    morphisms, inverse, compose, action = [], [], [], {}
    first = 0
    for ci, c in enumerate(skel["components"]):
        k, m, sigma, tau, T = c["k"], c["m"], c["sigma"], c["tau"], c["T"]
        names = objects[first:first + k]
        first += k

        def arrow(i, j, t):
            return "id:%s" % names[i] if i == j and t == 0 else "m%d.%d.%d.%d" % (ci, i, j, t)

        for i, j, t in itertools.product(range(k), range(k), range(m)):
            g = arrow(i, j, t)
            # (x, pi(x)) for each letter x of o_j with pi(x) in T_i
            pairs = []
            for x in T[j]:
                y = tau[j].index(x)
                for _ in range(t):
                    y = sigma[y]
                if tau[i][y] in T[i]:
                    pairs.append((x, tau[i][y]))
            dom = ["0"] * dim
            for _, y in pairs:
                dom[slot[(names[i], y)]] = "1"
            action[g] = {"dom": dom}
            if i == j and t == 0:
                continue  # identities keep the default map: right multiplication by 1_e
            morphisms.append({"name": g, "src": names[j], "tgt": names[i]})
            mat = [["0"] * dim for _ in range(dim)]
            for x, y in pairs:
                mat[slot[(names[i], y)]][slot[(names[j], x)]] = "1"
            action[g]["map"] = mat
            inv = arrow(j, i, (-t) % m)
            if [inv, g] not in inverse:
                inverse.append([g, inv])
            # composition table: non-identity pairs only
            for l, b in itertools.product(range(k), range(m)):
                if not (j == l and b == 0):
                    compose.append([g, arrow(j, l, b), arrow(i, l, (t + b) % m)])
    return {
        "field": field_desc,
        "groupoid": {"objects": objects, "morphisms": morphisms,
                     "compose": compose, "inverse": inverse},
        "algebra": {"diagonal": dim},
        "action": action,
    }


def run_differential(data: dict) -> dict:
    """Validate one instance, run decide vs oracle, check witness extraction."""
    inst = parse_instance(data)
    pa = inst.action
    report = pa.validate()
    record = {
        "digest": inst.digest,
        "field": str(pa.algebra.field),
        "objects": len(pa.groupoid.objects),
        "morphisms": len(pa.groupoid.morphisms),
        "algebra_dim": pa.algebra.dim,
        "valid": report.ok,
    }
    if not report.ok:
        record["violations"] = [v.message for v in report.violations]
        record["agree"] = False
        return record
    verdict = decide_separability(pa)
    oracle = oracle_separability(pa)
    record["ring_dim"] = oracle.tensor.ring_dim
    record["decide_separable"] = verdict.separable
    record["oracle_separable"] = oracle.separable
    agree, a, a_ok = cross_check(pa, verdict, oracle)
    record["agree"] = agree
    if verdict.separable:
        record["certificate_ok"] = verdict.certificate.ok
        record["agree"] = record["agree"] and verdict.certificate.ok
    if a is not None:
        record["extracted_witness_ok"] = a_ok
        record["agree"] = record["agree"] and a_ok
    return record


def run_fuzz(seed: int, count: int, max_morphisms: int = 6, max_dim: int = 6) -> dict:
    """The differential fuzz campaign; deterministic for a given seed.

    ValueError for count < 0 or a bound below 1, as the CLI rejects them."""
    _check_at_least("count", count, 0)
    _check_at_least("max_morphisms", max_morphisms, 1)
    _check_at_least("max_dim", max_dim, 1)
    rng = random.Random(seed)
    records = []
    for n in range(count):
        skel = random_skeleton(rng, max_morphisms, max_dim)
        for fdesc in FIELDS:
            rec = run_differential(skeleton_to_instance(skel, fdesc))
            rec["index"] = n
            records.append(rec)
    return {
        "seed": seed,
        "count": count,
        "bounds": {"max_morphisms": max_morphisms, "max_dim": max_dim},
        "fields": list(FIELDS),
        "instances": records,
        "agreements": sum(1 for r in records if r["agree"]),
        "all_agree": all(r["agree"] for r in records),
    }
