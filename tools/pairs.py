"""Paired benchmark runs of two checkouts, with the standard library only.

    python3 tools/pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds 30]
                           [--expect FILE]

Pair i (seeds 1 to --pairs) runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

in PARENT and in CHANGE, one after the other and never in parallel: odd
pairs run the parent first, even pairs the change.  Every `__pycache__`
under a checkout is deleted before each of its runs, so both sides pay the
same compile costs.  After a pair, the ops that both runs timed are
compared in `perfbench/.out/W-seed<i>-trace0.json`: each paired op must
have the same instance digest and the same stdout sha256 on both sides.
With `--expect`, a paired op may differ where its command line matches a
pattern of FILE, in the format of `tools/parity.py --expect` (one `fnmatch`
pattern a line, `#` starts a comment).  An op's command line names its
instance by file name, `validate op00000.json`, as `tools/opcounts.py`
generates the workload's ops; so `validate *` expects every `validate` op
to be allowed to differ.  A differing op that matches no pattern, and a
pattern that matches no differing op of the whole run, fail it.

At the end, each end-to-end metric of `BENCHMARK.json` (read from CHANGE)
gets one line: the median [Q1-Q3] of each side, the change of the medians
against the metric's bound, the pairs the change wins, the no-regression
verdict (`no_regression`: within bound, worse than bound, or unresolved
where the parent's own spread is wider than the bound), and whether the
speed-claim rule holds: the change wins at least 9 of every 10 pairs and
the medians differ, in the better direction, by more than the parent's
interquartile range.  Exit code 0 iff every run was correct and every
paired op matched or differed as expected.
"""

from __future__ import annotations

import argparse
import fnmatch
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def load_tool(name: str):
    """A sibling tool of this directory, loaded by path."""
    spec = importlib.util.spec_from_file_location("%s_tool" % name,
                                                  Path(__file__).with_name(name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quartiles(values) -> tuple:
    """(Q1, median, Q3), by the inclusive method of `statistics.quantiles`."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarise(parent: list, change: list, better: str) -> dict:
    """The paired comparison of one metric; parent[i] and change[i] are pair i."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long lists of at least two pairs")
    sign = 1 if better == "lower" else -1
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gap = sign * (pmed - cmed)
    return {"parent": (pmed, p1, p3), "change": (cmed, c1, c3),
            "relative": (cmed - pmed) / pmed if pmed else 0.0,
            "wins": wins, "pairs": len(parent),
            "holds": 10 * wins >= 9 * len(parent) and gap > p3 - p1}


def no_regression(parent: list, change: list, better: str, bound: float) -> str:
    """The no-regression verdict of one metric, `bound` relative to the
    parent's median: "unresolved" when the parent's interquartile range,
    relative to its median, is wider than the bound, unless every change run
    is better than every parent run; else "worse than bound" when the
    change's median is worse than the parent's by more than the bound, and
    "within bound" otherwise."""
    sign = 1 if better == "lower" else -1
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "within bound"
    scale = abs(pmed) or 1.0
    if (p3 - p1) / scale > bound:
        return "unresolved"
    return "worse than bound" if sign * (cmed - pmed) / scale > bound else "within bound"


def mismatched_ops(parent_ops: list, change_ops: list) -> list:
    """The indices of the paired ops whose [instance digest, stdout sha256] differ."""
    return [i for i, (p, c) in enumerate(zip(parent_ops, change_ops)) if p[:2] != c[:2]]


def op_keys(workload: str, seed: int, n_ops: int) -> list:
    """The command line of each of the first `n_ops` ops of a run, with the
    instance's file name: `validate op00000.json`."""
    opcounts = load_tool("opcounts")
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        return [" ".join(argv) for argv in opcounts.workload_ops(workload, seed, n_ops, Path(tmp))]


def sort_differences(keys: list, patterns: list) -> tuple:
    """(expected, unexpected, patterns used) for the command lines of the
    paired ops that differ: a line is expected iff it matches a pattern."""
    expected, unexpected, used = [], [], set()
    for k in keys:
        hits = {p for p in patterns if fnmatch.fnmatchcase(k, p)}
        (expected if hits else unexpected).append(k)
        used |= hits
    return expected, unexpected, used


def clear_bytecode(checkout: Path) -> None:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> tuple:
    """(result line of perfbench/run.py, its per-op records) of one run."""
    clear_bytecode(checkout)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit("pairs: %s seed %d exited %d:\n%s"
                 % (checkout, seed, done.returncode, done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    out = checkout / "perfbench" / ".out" / ("%s-seed%d-trace0.json" % (workload, seed))
    return result, json.loads(out.read_text(encoding="utf-8"))["ops"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--expect", help="file of fnmatch patterns of the ops expected to differ")
    args = p.parse_args(argv)
    patterns = load_tool("parity").read_expect(args.expect)
    used = set()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {side: {name: [] for name in metrics} for side in sides}
    ok = True
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        results, ops = {}, {}
        for side in order:
            results[side], ops[side] = run_once(sides[side], args.workload, seed, args.seconds)
            for name in metrics:
                values[side][name].append(results[side]["metrics"][name]["value"])
        differ = mismatched_ops(ops["parent"], ops["change"])
        paired = min(len(ops["parent"]), len(ops["change"]))
        keys = op_keys(args.workload, seed, paired) if differ else []
        expected, unexpected, hits = sort_differences([keys[i] for i in differ], patterns)
        used |= hits
        for side in sides:
            r = results[side]
            ok = ok and r["correct"] and not r["failed"]
            print("seed %d %-6s correct %s failed %d/%d  %s" % (
                seed, side, r["correct"], r["failed"], r["attempted"],
                "  ".join("%s %.4g" % (n, values[side][n][-1]) for n in metrics)))
        print("seed %d: %d paired ops, %d differ in digest or stdout, %d as expected"
              % (seed, paired, len(differ), len(expected)))
        for k in unexpected:
            print("seed %d: %s differs  UNEXPECTED" % (seed, k))
        ok = ok and not unexpected
        sys.stdout.flush()
    print("\n%-12s %-28s %-28s %8s %6s %5s  %-17s %s"
          % ("metric", "parent median [Q1-Q3]", "change median [Q1-Q3]", "change", "bound",
             "wins", "no regression", "9/10 and IQR rule"))
    for name, m in metrics.items():
        parent, change = values["parent"][name], values["change"][name]
        s = summarise(parent, change, m["better"])
        print("%-12s %-28s %-28s %+7.1f%% %5.0f%% %2d/%-2d  %-17s %s" % (
            name, "%.4g [%.4g-%.4g]" % s["parent"], "%.4g [%.4g-%.4g]" % s["change"],
            100 * s["relative"], 100 * m["bound"], s["wins"], s["pairs"],
            no_regression(parent, change, m["better"], m["bound"]),
            "holds" if s["holds"] else "does not hold"))
    for pattern in patterns:
        if pattern not in used:
            ok = False
            print("expect: pattern %r matches no differing op" % pattern)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
