"""Work computed against lookups answered from a cache, per op, in process.

    python3 tools/opcounts.py "COMMAND FILE [FLAGS]" ...    # one op per argument
    python3 tools/opcounts.py --workload W --seed N [--ops K]

Each op is one `skewalg.cli.main(argv)` call, run in this process with the
`skewalg` of this checkout's `src/`, its report kept only as a sha256.
Around each op a few entry points are wrapped to count:

- `multiply`: calls of `Algebra.multiply`, lookups that may be answered from
  the algebra's kept products; `table_product`: the products computed, in
  any module that binds it;
- `alpha`: calls of `PartialAction.alpha`; `alpha_apply`: the `Matrix.apply`
  calls made inside one, the alpha-images computed;
- `ideal_basis`: calls of `Algebra.ideal_basis`, lookups keyed by the
  idempotent's value;
- `eliminations`: `Echelonizer` instances built, by any caller, one per
  elimination; `inserts`: calls of `Echelonizer.insert`; `useful`: those
  that enlarged the span;
- `echelon`, `free_basis`: calls of `linalg.echelon` and
  `linalg.free_basis`, in any module that binds them.  Every `Echelonizer`
  of the package is built by one call of either (`kernel` and
  `solve_affine` eliminate through `echelon`), and a call whose vectors
  are already a reduced echelon basis builds none, so
  `echelon + free_basis - eliminations` counts the calls whose input
  settled the answer;
- `generators`: the size of the set `skew_ring.ring_generators` returned,
  in any module that binds it, summed over the distinct sets of the op
  (one per action), or 0 when it was not called.

The counts repeat exactly for one checkout and one op list, so two
checkouts compare without timing noise.  `--workload` generates the ops of
a `perfbench/run.py` workload the way its `prepare` does (same op makers,
same seed, same instance text) into a temporary directory, and runs them
with that directory as the working directory, so each stdout hash depends
on the instance alone.  Output: one tab-separated row per op, then the
mean per op.  The standard library only; no process is started.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
COUNTS = ("multiply", "table_product", "alpha", "alpha_apply", "ideal_basis", "eliminations",
          "inserts", "useful", "echelon", "free_basis", "generators")


def import_skewalg():
    """skewalg's modules from this checkout's src/, by short name."""
    sys.path.insert(0, str(SRC))
    import skewalg.cli  # noqa: F401  (imports every module the commands use)
    if Path(sys.modules["skewalg"].__file__).resolve().parent != (SRC / "skewalg").resolve():
        sys.exit("opcounts: imported skewalg from %s" % sys.modules["skewalg"].__file__)
    return {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
            if name.startswith("skewalg.")}


@contextlib.contextmanager
def counting(modules: dict, counts: dict):
    """Install the counting wrappers; `counts` accumulates until they are removed."""
    algebra, linalg = modules["algebra"], modules["linalg"]
    action = modules["partial_action"].PartialAction
    originals = {"alpha": action.alpha, "apply": linalg.Matrix.apply,
                 "init": linalg.Echelonizer.__init__, "insert": linalg.Echelonizer.insert}
    counted = (("table_product", algebra.table_product), ("echelon", linalg.echelon),
               ("free_basis", linalg.free_basis))
    generators = modules["skew_ring"].ring_generators
    sites = [(m, name, key, function) for m in modules.values()
             for name, value in vars(m).items()
             for key, function in counted if value is function]
    depth = [0]
    found: dict = {}        # id -> each set ring_generators returned, kept alive

    def calls(key, function):
        def wrapper(*args):
            counts[key] += 1
            return function(*args)
        return wrapper

    def alpha(self, g, v):
        counts["alpha"] += 1
        depth[0] += 1
        try:
            return originals["alpha"](self, g, v)
        finally:
            depth[0] -= 1

    def apply(self, v):
        counts["alpha_apply"] += depth[0] > 0
        return originals["apply"](self, v)

    def generated(act):
        gens = generators(act)
        if id(gens) not in found:
            found[id(gens)] = gens
            counts["generators"] += len(gens)
        return gens

    def init(self, *args):
        counts["eliminations"] += 1
        originals["init"](self, *args)

    def insert(self, row):
        counts["inserts"] += 1
        grew = originals["insert"](self, row)
        counts["useful"] += grew
        return grew

    patches = [(algebra.Algebra, "multiply", calls("multiply", algebra.Algebra.multiply)),
               (algebra.Algebra, "ideal_basis",
                calls("ideal_basis", algebra.Algebra.ideal_basis)),
               (action, "alpha", alpha),
               (linalg.Matrix, "apply", apply), (linalg.Echelonizer, "__init__", init),
               (linalg.Echelonizer, "insert", insert)]
    patches += [(m, name, calls(key, function)) for m, name, key, function in sites]
    patches += [(m, name, generated) for m in modules.values()
                for name, value in vars(m).items() if value is generators]
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield counts
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def count_op(modules: dict, argv: list) -> dict:
    """The counts of one `cli.main(argv)` call, its exit code and its stdout sha256."""
    counts = dict.fromkeys(COUNTS, 0)
    out = io.StringIO()
    with counting(modules, counts), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = modules["cli"].main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            **counts}


def workload_ops(workload: str, seed: int, n_ops: int, workdir: Path) -> list:
    """The argv of the first `n_ops` ops of a perfbench workload, their
    instance files written to `workdir` as `perfbench/run.py` writes them."""
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    make = run.WORKLOADS[workload][0]
    rng = random.Random(seed)
    ops = []
    for i in range(n_ops):
        args, skel, field = make(rng, i)
        name = "op%05d.json" % i
        text = json.dumps(run.skeletons.to_instance(skel, field, "s%dop%d" % (seed, i)))
        (workdir / name).write_text(text, encoding="utf-8")
        ops.append([args[0], name] + args[1:])
    return ops


def report(rows: list) -> None:
    print("\t".join(("op", "code") + COUNTS + ("stdout_sha256", "argv")))
    for i, r in enumerate(rows):
        print("\t".join([str(i), str(r["code"])] + [str(r[k]) for k in COUNTS]
                        + [r["stdout_sha256"][:16], " ".join(r["argv"])]))
    n = max(len(rows), 1)
    print("\t".join(["mean", "-"] + ["%.2f" % (sum(r[k] for r in rows) / n)
                                     for k in COUNTS] + ["-", "%d ops" % len(rows)]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("ops", nargs="*", help='one op per argument, e.g. "traces FILE"')
    p.add_argument("--workload", help="generate the ops of this perfbench workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--ops", dest="n_ops", type=int, default=450)
    args = p.parse_args(argv)
    if bool(args.ops) == bool(args.workload):
        p.error("give either ops or --workload")
    modules = import_skewalg()
    if not args.workload:
        rows = [count_op(modules, shlex.split(op)) for op in args.ops]
    else:
        here = os.getcwd()
        with tempfile.TemporaryDirectory(prefix="opcounts-") as tmp:
            ops = workload_ops(args.workload, args.seed, args.n_ops, Path(tmp))
            os.chdir(tmp)
            try:
                rows = [count_op(modules, op) for op in ops]
            finally:
                os.chdir(here)
    report(rows)
    return 0 if all(r["code"] in (0, 1) for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
