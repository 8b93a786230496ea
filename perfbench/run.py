"""skewalg benchmark: certified CLI commands, timed in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory of a checkout; it works in the checkout's root.  Each
op is one `skewalg.cli.main(argv)` call on its own freshly generated instance
file, in a closed loop with one client (one process, one thread, each op
starts after the previous one returns).  Every report is checked against the
closed-form verdict of its skeleton.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics: it runs ops until --seconds of
command time and at least MIN_OPS ops have passed, and reports op costs in
units of a reference pass timed just before each op.  --trace 1 runs a fixed
number of ops twice each, untraced and with spans installed (spans.py), and
reports the per-layer metrics; the traced stdout must match the untraced
stdout byte for byte, and the counts must match any earlier trace run of the
same code, workload, seed and --seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import skeletons
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"          # instance files, removed at exit
OUT = HERE / ".out"            # per-run op records and spans, kept

MIN_OPS = 100                  # p90 then has at least ten samples beyond it
POOL_OPS_PER_SECOND = 15       # instances generated per second of --seconds
SETUP_REPEATS = 7              # setup_s is the median of this many fresh processes


# -- workloads ---------------------------------------------------------------------


# (objects k, isotropy Z/m, ring dim): op cost grows with ring dim cubed, so
# each run gets the same mix of ring dims whatever the seed; a third of the
# ops share ring dim 10, so the median falls inside that cluster of costs and
# not in a gap between two
_GROUPOID = ((2, 2, 10), (1, 6, 8), (2, 3, 12), (1, 4, 10), (2, 3, 9), (1, 6, 12),
             (2, 2, 10), (2, 2, 8), (1, 4, 10), (1, 6, 9), (1, 4, 12), (2, 3, 7))


def _certify_groupoid(rng: random.Random, i: int):
    """One component with many arrows and a small algebra, over Q."""
    k, m, target = _GROUPOID[i % len(_GROUPOID)]
    while True:
        skel = {"components": [skeletons.component(rng, k, m, rng.choice((2, 3, 4)))]}
        if skeletons.algebra_dim(skel) <= 8 and skeletons.ring_dim(skel) == target:
            return ["separability"], skel, "Q"


_WIDE = (("validate", 10, 1), ("validate", 8, 2), ("validate", 7, 3),
         ("traces", 9, 1), ("traces", 8, 2), ("traces", 7, 3),
         ("separability", 8, 1), ("separability", 6, 2), ("separability", 5, 3))


def _certify_wide(rng: random.Random, i: int):
    """One object, Z/m acting on k^n by the identity or a partial shift, over GF(p)."""
    command, n, m = _WIDE[i % len(_WIDE)]
    field = ("GF(2)", "GF(3)", "GF(5)")[i // len(_WIDE) % 3]
    fixed_share = 1.0 if i % 2 == 0 else 0.5
    comp = skeletons.component(rng, 1, m, n + 1, domain_size=n, fixed_share=fixed_share)
    return [command], {"components": [comp]}, field


def _differential(rng: random.Random, i: int):
    """Small random skeletons within the fuzzer's default bounds, decide vs oracle."""
    field = ("Q", "GF(2)")[i % 2]
    target = (3, 4, 5, 6, 7, 8, 9)[i // 2 % 7]
    while True:
        skel = skeletons.fuzz_bounded_skeleton(rng)
        if skeletons.ring_dim(skel) == target:
            return ["separability", "--oracle"], skel, field


# name -> (op maker, verdicts every run must show, traced ops per second of --seconds)
WORKLOADS = {
    "certify-groupoid": (_certify_groupoid, {True}, 2.0),
    "certify-wide": (_certify_wide, {True, False}, 2.5),
    "differential": (_differential, {True, False}, 3.0),
}


def prepare(workload: str, seed: int, n_ops: int, workdir: Path) -> list:
    """Generate and write the instance files; returns the op list (also written)."""
    make = WORKLOADS[workload][0]
    rng = random.Random(seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = []
    for i in range(n_ops):
        args, skel, field = make(rng, i)
        text = json.dumps(skeletons.to_instance(skel, field, "s%dop%d" % (seed, i)))
        path = workdir / ("op%05d.json" % i)
        path.write_text(text, encoding="utf-8")
        separable = (skeletons.closed_form_separable(skel, field)
                     if args[0] == "separability" else None)
        ops.append({"argv": [args[0], str(path.relative_to(ROOT))] + args[1:],
                    "separable": separable})
    (workdir / "ops.json").write_text(json.dumps(ops), encoding="utf-8")
    return ops


def import_skewalg():
    """skewalg from this checkout's src/, never from anywhere else."""
    pkg = SRC / "skewalg"
    if not (pkg / "__init__.py").is_file():
        sys.exit("benchmark: no skewalg package at %s" % pkg)
    sys.path.insert(0, str(SRC))
    import skewalg.cli
    if Path(skewalg.__file__).resolve().parent != pkg.resolve():
        sys.exit("benchmark: imported skewalg from %s" % skewalg.__file__)
    return skewalg.cli


# -- one op ----------------------------------------------------------------------------


def run_op(cli, op: dict):
    """(seconds, exit code or exception text, stdout) of one cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed op is counted, the run goes on
            code = "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def check(op: dict, code, text: str):
    """(passed, verdict or None, instance digest or None) of one op's report."""
    if code != 0:
        return False, None, None
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return False, None, None
    ok = report.get("ok") is True
    verdict = None
    if op["argv"][0] == "separability":
        verdict = report["verdict"]["separable"]
        ok = ok and verdict == op["separable"]
        if "--oracle" in op["argv"]:
            oracle = report["oracle"]
            ok = (ok and oracle["agrees_with_decision"] is True
                  and oracle["separable"] == op["separable"]
                  and (not oracle["separable"] or oracle.get("extracted_witness_ok") is True))
    return ok, verdict, report.get("instance", {}).get("digest")


def coeff_bits(text: str) -> int:
    """Largest numerator or denominator bit length among the report's scalars."""
    best = 0

    def walk(node, key=None):
        nonlocal best
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)
        elif isinstance(node, str) and key != "digest":
            num, _, den = node.lstrip("-").partition("/")
            if num.isdigit() and (not den or den.isdigit()):
                best = max(best, int(num).bit_length(), int(den or 1).bit_length())

    walk(json.loads(text))
    return best


class Ledger:
    """Per-op records of one pass, and the run-level correctness checks."""

    def __init__(self):
        self.seconds: list = []
        self.records: list = []      # [instance digest, sha256 of stdout, seconds]
        self.failed = 0
        self.verdicts: set = set()
        self.coeff_bits = 0

    def add(self, op: dict, elapsed: float, code, text: str, bits: bool = False):
        ok, verdict, digest = check(op, code, text)
        self.failed += not ok
        if verdict is not None:
            self.verdicts.add(verdict)
        if bits and ok:
            self.coeff_bits = max(self.coeff_bits, coeff_bits(text))
        self.seconds.append(elapsed)
        self.records.append([digest, hashlib.sha256(text.encode()).hexdigest(), elapsed])

    def problems(self, workload: str) -> list:
        out = []
        digests = [r[0] for r in self.records if r[0] is not None]
        if len(set(digests)) != len(digests):
            out.append("instance digests repeat")
        if self.verdicts != WORKLOADS[workload][1]:
            out.append("verdicts seen %s, expected %s"
                       % (sorted(self.verdicts), sorted(WORKLOADS[workload][1])))
        return out


# -- the two kinds of run ----------------------------------------------------------------


def time_setup(args) -> float:
    """Wall time of a fresh process that imports skewalg and writes the instances."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--prepare"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, timeout=120)
    if done.returncode != 0:
        sys.exit("benchmark: set-up failed with exit code %d" % done.returncode)
    return time.perf_counter() - start


# the reference loop: exact sparse vector-times-table products, the kind of
# Python object arithmetic skewalg's hot loops do, but none of skewalg's code
_REF_TABLE = tuple(tuple(tuple(Fraction((i * j + k) % 5, 1 + (i + k) % 3) for k in range(10))
                         for j in range(10)) for i in range(10))


def reference() -> float:
    """Wall time of one fixed pass of the reference loop."""
    start = time.perf_counter()
    zero = Fraction(0)
    x = tuple(Fraction(i % 3, 1 + i % 2) for i in range(10))
    for _ in range(2):
        out = [zero] * 10
        for i, xi in enumerate(x):
            if xi == zero:
                continue
            for j, yj in enumerate(x):
                c = xi * yj
                for k, t in enumerate(_REF_TABLE[i][j]):
                    if t != zero:
                        out[k] = out[k] + c * t
        x = tuple(out)
    return time.perf_counter() - start


def end_to_end(args, workdir: Path) -> dict:
    setup = [time_setup(args)]
    ops = json.loads((workdir / "ops.json").read_text(encoding="utf-8"))
    cli = import_skewalg()
    ledger = Ledger()
    refs = []
    busy = 0.0
    for op in ops:
        if len(ledger.seconds) >= MIN_OPS and busy >= args.seconds:
            break
        # spread the set-up repeats over the run, so their median does not
        # hang on how fast the machine is in one moment
        if busy >= len(setup) * args.seconds / SETUP_REPEATS:
            setup.append(time_setup(args))
        refs.append(reference())
        ledger.add(op, *run_op(cli, op))
        busy += ledger.seconds[-1]
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(args))
    # each op's cost is its wall time over that of the reference pass run just
    # before it, which cancels the speed the machine happens to give the run
    cost = [t / r for t, r in zip(ledger.seconds, refs)]
    metrics = {
        "op_ref.p50": (statistics.median(cost), "ref"),
        "op_ref.p90": (statistics.quantiles(cost, n=10, method="inclusive")[8], "ref"),
        "op_ref.mean": (statistics.mean(cost), "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    seconds = sorted(ledger.seconds)
    print("benchmark: %d ops, wall op_s p50 %.4f p90 %.4f, ops_per_s %.3f, reference pass %.5f s"
          % (len(seconds), statistics.median(seconds),
             statistics.quantiles(seconds, n=10, method="inclusive")[8],
             len(seconds) / sum(seconds), statistics.median(refs)), file=sys.stderr)
    write_out(args, {"ops": ledger.records, "reference_s": refs, "setup_s": setup})
    return result(ledger.problems(args.workload), metrics, len(cost), ledger.failed)


def per_layer(args, workdir: Path) -> dict:
    n_ops = math.ceil(args.seconds * WORKLOADS[args.workload][2])
    cli = import_skewalg()
    ops = prepare(args.workload, args.seed, n_ops, workdir)
    modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
               if name == "skewalg" or name.startswith("skewalg.")}
    tracer = spans.Tracer(modules)
    plain, traced = Ledger(), Ledger()
    for i, op in enumerate(ops):
        # each op runs untraced and traced; alternate which goes first, so
        # neither pass gets the warmer caches
        for with_trace in ((True, False) if i % 2 else (False, True)):
            if with_trace:
                tracer.op = i
                with tracer, tracer.span("cli.main", spans.OP_LAYER):
                    outcome = run_op(cli, op)
                traced.add(op, *outcome)
            else:
                plain.add(op, *run_op(cli, op), bits=True)
    problems = plain.problems(args.workload) + traced.problems(args.workload)
    if [r[:2] for r in plain.records] != [r[:2] for r in traced.records]:
        problems.append("traced stdout differs from untraced stdout")
    op_ns = sum(end - start for nid, start, end, parent, _ in tracer.spans if parent < 0)
    layer_ns = sum(tracer.self_ns())
    if op_ns != layer_ns:
        problems.append("layer self times do not sum to the op time")
    metrics = tracer.metrics()
    metrics["cli.max_coeff_bits"] = (plain.coeff_bits, "bits")
    counts = {k: v for k, (v, unit) in metrics.items() if unit != "s"}
    metrics["trace.overhead_ratio"] = (op_ns / 1e9 / sum(plain.seconds), "ratio")
    problems += check_repeat(args, counts)
    write_out(args, {"ops": traced.records, "missing": tracer.missing, "counts": counts,
                     "names": tracer.names, "layers": tracer.layer_of,
                     "spans": tracer.spans})
    return result(problems, metrics, 2 * len(ops), plain.failed + traced.failed)


def check_repeat(args, counts: dict) -> list:
    """Counts must equal those of an earlier trace run of the same code and inputs."""
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("skewalg/*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    key = {"code": digest.hexdigest(), "seed": args.seed, "seconds": args.seconds}
    path = OUT / ("%s-counts.json" % args.workload)
    history = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else []
    problems = ["counts differ from an earlier run: %s" % sorted(
        k for k in counts if old["counts"].get(k) != counts[k])
        for old in history if old["key"] == key and old["counts"] != counts]
    history = [old for old in history if old["key"] != key] + [{"key": key, "counts": counts}]
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(history[-64:]), encoding="utf-8")
    return problems


def write_out(args, payload: dict) -> None:
    OUT.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(payload), encoding="utf-8")


def result(problems: list, metrics: dict, attempted: int, failed: int) -> dict:
    for p in problems:
        print("benchmark: %s" % p, file=sys.stderr)
    return {"correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prepare", action="store_true",
                   help="only import skewalg and write the instances (set-up timing)")
    args = p.parse_args(argv)
    os.chdir(ROOT)
    workdir = WORK / ("%s-seed%d" % (args.workload, args.seed))
    if args.prepare:
        import_skewalg()
        prepare(args.workload, args.seed,
                max(MIN_OPS, POOL_OPS_PER_SECOND * args.seconds), workdir)
        return 0
    try:
        out = per_layer(args, workdir) if args.trace else end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
