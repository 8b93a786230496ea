"""Random valid instances and the decide-vs-oracle differential suite.

Validity by construction: each connected component is a (pair groupoid on k
objects) x (cyclic group Z/m), acting globally on a diagonal algebra by
coordinate permutations, then restricted to a random sub-idempotent per
object.  Restricting a global action to idempotent domains always yields a
unital partial action, so no rejection sampling is needed; the validator is
still run on every emitted instance.
"""

from __future__ import annotations

import random

from .instances import parse_instance
from .separability import (decide_separability, extract_witness, is_witness,
                           oracle_separability)


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


def _compose_perm(p, q) -> list:
    """(p after q)(x) = p[q[x]]."""
    return [p[q[x]] for x in range(len(p))]


def _invert_perm(p) -> list:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return out


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
    objects = []
    comp_objs = []
    for ci, c in enumerate(skel["components"]):
        names = ["o%d" % (len(objects) + i) for i in range(c["k"])]
        objects.extend(names)
        comp_objs.append(names)

    # global coordinate layout: per object, one slot per letter of its domain subset
    slot = {}
    dim = 0
    for ci, c in enumerate(skel["components"]):
        for oi, oname in enumerate(comp_objs[ci]):
            for letter in c["T"][oi]:
                slot[(oname, letter)] = dim
                dim += 1

    def perm_of(c, i, j, t):
        """The bijection letters(o_j) -> letters(o_i) of morphism (i, j, t)."""
        p = c["tau"][i]
        for _ in range(t):
            p = _compose_perm(p, c["sigma"])
        return _compose_perm(p, _invert_perm(c["tau"][j]))

    morphisms = []
    inverse = []
    compose = []
    action = {}
    zero_row = ["0"] * dim

    def mname(ci, i, j, t):
        if i == j and t == 0:
            return "id:%s" % comp_objs[ci][i]
        return "m%d.%d.%d.%d" % (ci, i, j, t)

    for ci, c in enumerate(skel["components"]):
        k, m = c["k"], c["m"]
        for i in range(k):
            for j in range(k):
                for t in range(m):
                    name = mname(ci, i, j, t)
                    is_id = i == j and t == 0
                    src_o, tgt_o = comp_objs[ci][j], comp_objs[ci][i]
                    if not is_id:
                        morphisms.append({"name": name, "src": src_o, "tgt": tgt_o})
                    inv = mname(ci, j, i, (-t) % m)
                    if not is_id and [inv, name] not in inverse \
                            and [name, inv] not in inverse:
                        inverse.append([name, inv])
                    pi = perm_of(c, i, j, t)
                    dom_letters = [x for x in c["T"][j] if pi[x] in set(c["T"][i])]
                    idem = ["0"] * dim
                    for x in dom_letters:
                        idem[slot[(tgt_o, pi[x])]] = "1"
                    action[name] = {"dom": idem}
                    if not is_id:
                        # identities keep the default map: right multiplication by 1_e
                        mat = [list(zero_row) for _ in range(dim)]
                        for x in dom_letters:
                            mat[slot[(tgt_o, pi[x])]][slot[(src_o, x)]] = "1"
                        action[name]["map"] = mat
        # composition table: non-identity pairs only
        for i in range(k):
            for j in range(k):
                for a in range(m):
                    g = mname(ci, i, j, a)
                    if i == j and a == 0:
                        continue
                    for l in range(k):
                        for b in range(m):
                            h = mname(ci, j, l, b)
                            if j == l and b == 0:
                                continue
                            compose.append([g, h, mname(ci, i, l, (a + b) % m)])
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
    record["ring_dim"] = oracle.tensor.ring.dim
    record["decide_separable"] = verdict.separable
    record["oracle_separable"] = oracle.separable
    record["agree"] = verdict.separable == oracle.separable
    if verdict.separable:
        record["certificate_ok"] = verdict.certificate.ok
        record["agree"] = record["agree"] and verdict.certificate.ok
    if oracle.separable:
        a = extract_witness(pa, oracle.tensor, oracle.solutions.particular)
        extraction_ok = is_witness(pa, a)
        record["extracted_witness_ok"] = extraction_ok
        record["agree"] = record["agree"] and extraction_ok
    return record


def run_fuzz(seed: int, count: int, max_morphisms: int = 6, max_dim: int = 6,
             fields=("Q", "GF(2)")) -> dict:
    """The differential fuzz campaign; deterministic for a given seed.

    ValueError for count < 0 or a bound below 1, as the CLI rejects them."""
    _check_at_least("count", count, 0)
    _check_at_least("max_morphisms", max_morphisms, 1)
    _check_at_least("max_dim", max_dim, 1)
    rng = random.Random(seed)
    records = []
    for n in range(count):
        skel = random_skeleton(rng, max_morphisms, max_dim)
        for fdesc in fields:
            rec = run_differential(skeleton_to_instance(skel, fdesc))
            rec["index"] = n
            records.append(rec)
    return {
        "seed": seed,
        "count": count,
        "bounds": {"max_morphisms": max_morphisms, "max_dim": max_dim},
        "fields": list(fields),
        "instances": records,
        "agreements": sum(1 for r in records if r["agree"]),
        "all_agree": all(r["agree"] for r in records),
    }
