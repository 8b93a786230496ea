"""Byte parity of the CLI's outputs between two checkouts, with the standard library only.

    python3 tools/parity.py PARENT CHANGE [--expect FILE]

The outputs are every shipped instance (`instances/*.json`) under each of
the eight report commands below, and `fuzz --seed 1 --count 25`: 81
outputs on the ten shipped instances.  For each checkout and each
`PYTHONHASHSEED` one process runs all of them through `cli.main`, in
process, with the checkout as its working directory and its own `src/` on
the path, and keeps each output's exit code and the sha256 of its stdout.
A full run starts one process per checkout and seed, 6 under the seeds
0, 1 and 12345, at most 2 at a time (the two checkouts of one seed).  The
output list, its keys and the in-process run are shared with
`tests/test_golden.py`, which pins the same outputs' digests.

One line is printed for each output that differs:
- within a checkout, between its first seed and another seed;
- between the checkouts, under the same seed.

An output's key is its command line with the instance's file name, as in
`tests/test_golden.py`: `traces z2_flip_q.json`,
`separability z2_flip_q.json --oracle`, `fuzz --seed 1 --count 25`.  The
`--expect` file lists the outputs a change alters on purpose, one
`fnmatch` pattern of keys a line (`#` starts a comment).  Exit code 0 iff
no output differs within a checkout, every output that differs between
the checkouts matches a pattern, and every key a pattern matches differs
under every seed.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = (
    ("validate",),
    ("traces",),
    ("separability", "--oracle"),
    ("separability", "--global"),
    ("separability", "--isotropy"),
    ("skew-table",),
    ("separability",),
    ("components",),
)
FUZZ = ("fuzz", "--seed", "1", "--count", "25")
SEEDS = (0, 1, 12345)


def jobs(instance_dir: Path) -> list:
    """The argv of every output, with the instance paths under `instance_dir`."""
    out = []
    for path in sorted(instance_dir.glob("*.json")):
        for cmd in COMMANDS:
            out.append([cmd[0], str(path), *cmd[1:]])
    out.append(list(FUZZ))
    return out


def key(argv) -> str:
    return " ".join(Path(a).name if a.endswith(".json") else a for a in argv)


def run(main, argv) -> tuple:
    """(exit code, raw stdout) of one in-process call of the CLI's `main`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def run_outputs() -> dict:
    """key -> [exit code, stdout sha256] of every output of the checkout in
    the working directory, run with its own skewalg."""
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import skewalg.cli
    if Path(skewalg.cli.__file__).resolve().parent != (src / "skewalg").resolve():
        sys.exit("parity: imported skewalg from %s" % skewalg.cli.__file__)
    outputs = {}
    # relative instance paths, so a report that names its file reads the
    # same in both checkouts
    for argv in jobs(Path("instances")):
        code, stdout = run(skewalg.cli.main, argv)
        outputs[key(argv)] = [code, hashlib.sha256(stdout.encode()).hexdigest()]
    return outputs


def start(checkout: Path, seed: int) -> subprocess.Popen:
    env = {**os.environ, "PYTHONHASHSEED": str(seed)}
    env.pop("PYTHONPATH", None)
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--outputs"],
                            cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)


def collect(sides: dict, seeds) -> dict:
    """side -> seed -> outputs; the two sides of one seed run at once."""
    runs = {side: {} for side in sides}
    for seed in seeds:
        procs = {side: start(checkout, seed) for side, checkout in sides.items()}
        for side, proc in procs.items():
            text, _ = proc.communicate()
            if proc.returncode != 0:
                sys.exit("parity: %s under PYTHONHASHSEED=%d exited %d"
                         % (sides[side], seed, proc.returncode))
            runs[side][seed] = json.loads(text)
    return runs


def read_expect(path) -> list:
    if path is None:
        return []
    patterns = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.partition("#")[0].strip()
        if line:
            patterns.append(line)
    return patterns


def _show(output) -> str:
    return "missing" if output is None else "exit %s sha256 %s" % (output[0], output[1][:12])


def compare(runs: dict, patterns: list) -> tuple:
    """(lines to print, ok) for runs = {"parent": {seed: outputs},
    "change": {seed: outputs}}."""
    lines = []
    ok = True
    for side, by_seed in runs.items():
        first, *rest = by_seed
        for seed in rest:
            for k in sorted(set(by_seed[first]) | set(by_seed[seed])):
                a, b = by_seed[first].get(k), by_seed[seed].get(k)
                if a != b:
                    ok = False
                    lines.append("within %s: %s: seed %d %s, seed %d %s"
                                 % (side, k, first, _show(a), seed, _show(b)))
    expected = set()
    changed = {}
    for seed in runs["parent"]:
        parent, change = runs["parent"][seed], runs["change"][seed]
        keys = set(parent) | set(change)
        expected |= {k for k in keys for p in patterns if fnmatch.fnmatchcase(k, p)}
        for k in sorted(keys):
            a, b = parent.get(k), change.get(k)
            if a == b:
                continue
            changed.setdefault(k, set()).add(seed)
            listed = any(fnmatch.fnmatchcase(k, p) for p in patterns)
            ok = ok and listed
            lines.append("between: %s: seed %d parent %s, change %s%s"
                         % (k, seed, _show(a), _show(b), "" if listed else "  UNEXPECTED"))
    seeds = set(runs["parent"])
    for k in sorted(expected):
        if changed.get(k) != seeds:
            ok = False
            lines.append("between: %s: expected to change, unchanged under seed %s"
                         % (k, ", ".join(str(s) for s in sorted(seeds - changed.get(k, set())))))
    unmatched = [p for p in patterns if not any(fnmatch.fnmatchcase(k, p) for k in expected)]
    for p in unmatched:
        ok = False
        lines.append("expect: pattern %r matches no output" % p)
    n = len(runs["change"][next(iter(seeds))])
    lines.append("%d outputs per checkout under PYTHONHASHSEED %s; %d expected to change, "
                 "%d changed; %s" % (n, ", ".join(str(s) for s in runs["change"]),
                                     len(expected), len(changed),
                                     "parity holds" if ok else "parity fails"))
    return lines, ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, nargs="?")
    p.add_argument("change", type=Path, nargs="?")
    p.add_argument("--expect", help="file of fnmatch patterns of the outputs expected to change")
    p.add_argument("--outputs", action="store_true",
                   help="run the outputs of the checkout in the working directory and "
                        "print them as JSON (one side of one seed)")
    args = p.parse_args(argv)
    if args.outputs:
        print(json.dumps(run_outputs()))
        return 0
    if args.parent is None or args.change is None:
        p.error("give PARENT and CHANGE")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lines, ok = compare(collect(sides, SEEDS), read_expect(args.expect))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
