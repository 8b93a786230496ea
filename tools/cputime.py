"""CPU time per op of two checkouts, interleaved in one process, with the standard library only.

    python3 tools/cputime.py PARENT CHANGE --workload W [--ops 450] [--rounds 5]

Each checkout's `src/skewalg` is imported under its own package name,
`skewalg_parent` and `skewalg_change`, so both sides run in this one
process.  The ops are the first --ops ops of the perfbench workload W at
seed 1, written by `tools/opcounts.py`'s `workload_ops` into a temporary
directory, which is the working directory while they run.  Each op is one
`cli.main(argv)` call with its stdout and stderr captured.

A first, untimed pass runs every op on both sides; an op whose exit code
or stdout differs between them is printed, and the tool exits 1 without
timing anything.  Then each round runs every op on one side and then on
the other, the parent first in odd rounds and the change first in even
ones, timing each op with `time.process_time` (CPU time of this process).
Every timed op must print what it printed in the first pass.

Output: one line per round with each side's CPU microseconds per op and
the ratio change/parent; then each side's minimum and median over the
rounds, the median of the per-round ratios, and the rounds in which the
change was faster.  Exit code 0 iff every op's exit code and stdout were
equal on both sides in every pass.

`tools/pairs.py` times whole `perfbench/run.py` processes, one per side,
and one such process can read a whole side 4-9% slow; here both sides
share one process and alternate, so a drift of the machine falls on both.
It measures CPU time only, not the wall time the benchmark reports.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load_tool(name: str):
    """A sibling tool of this directory, loaded by path."""
    spec = importlib.util.spec_from_file_location("%s_tool" % name,
                                                  Path(__file__).with_name(name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_cli(checkout: Path, name: str):
    """The `cli` module of `checkout/src/skewalg`, imported as the package `name`."""
    root = checkout / "src" / "skewalg"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(name + ".cli")


def run_op(cli, argv: list) -> tuple:
    """(exit code, stdout, CPU seconds) of one `cli.main(argv)` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        spent = time.process_time() - start
    return code, out.getvalue(), spent


def summarise(parent: list, change: list) -> dict:
    """Each side's per-round CPU time per op, minimum and median, the median
    per-round ratio change/parent, and the rounds the change wins."""
    ratios = [c / p for p, c in zip(parent, change)]
    return {"parent": (min(parent), statistics.median(parent)),
            "change": (min(change), statistics.median(change)),
            "ratio": statistics.median(ratios),
            "wins": sum(c < p for p, c in zip(parent, change)), "rounds": len(ratios)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--ops", dest="n_ops", type=int, default=450)
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)
    names = {"parent": "skewalg_parent", "change": "skewalg_change"}
    here = os.getcwd()
    try:
        clis = {side: load_cli(getattr(args, side).resolve(), name)
                for side, name in names.items()}
        with tempfile.TemporaryDirectory(prefix="cputime-") as tmp:
            ops = load_tool("opcounts").workload_ops(args.workload, 1, args.n_ops, Path(tmp))
            os.chdir(tmp)
            return measure(clis, ops, args)
    finally:
        os.chdir(here)
        for name in [m for m in sys.modules
                     if m.partition(".")[0] in names.values()]:
            del sys.modules[name]


def measure(clis: dict, ops: list, args) -> int:
    first = {side: [run_op(cli, op)[:2] for op in ops] for side, cli in clis.items()}
    differ = [i for i, (p, c) in enumerate(zip(first["parent"], first["change"])) if p != c]
    for i in differ:
        print("op %d (%s): exit code or stdout differs" % (i, " ".join(ops[i])))
    if differ:
        return 1
    print("%s: %d ops at seed 1, %d rounds; every op's exit code and stdout equal on both sides"
          % (args.workload, len(ops), args.rounds))
    per_op = {"parent": [], "change": []}
    for r in range(1, args.rounds + 1):
        order = ("parent", "change") if r % 2 else ("change", "parent")
        for side in order:
            gc.collect()
            total = 0.0
            for op, expected in zip(ops, first[side]):
                code, out, spent = run_op(clis[side], op)
                if (code, out) != expected:
                    print("round %d %s: op %s printed another report" % (r, side, " ".join(op)))
                    return 1
                total += spent
            per_op[side].append(1e6 * total / len(ops))
        print("round %d (%s first)  parent %.1f us/op  change %.1f us/op  ratio %.3f"
              % (r, order[0], per_op["parent"][-1], per_op["change"][-1],
                 per_op["change"][-1] / per_op["parent"][-1]))
    s = summarise(per_op["parent"], per_op["change"])
    for side in ("parent", "change"):
        print("%-6s  min %.1f  median %.1f us/op" % (side, *s[side]))
    print("median ratio change/parent %.3f (%+.1f%%); change faster in %d of %d rounds"
          % (s["ratio"], 100 * (s["ratio"] - 1), s["wins"], s["rounds"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
