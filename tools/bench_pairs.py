"""Alternating benchmark pairs of a parent commit and this checkout.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 5 --first-seed 101
    python3 tools/bench_pairs.py --parent main --workloads oracle --pairs 10 --first-seed 201

Extracts a ``git archive`` copy of each side into its own directory of one
temporary directory, named by the side: --parent, and --change or, by
default, a ``git stash create`` snapshot of this checkout's working tree
(HEAD when the tree is clean), so that both sides run from the same kind of
tree and ``--parent HEAD --change HEAD`` is an A/A check of the noise.  The
snapshot holds tracked files only, so the script refuses to run, naming
them, while untracked files lie under ``src/`` or ``perfbench/``.  It
prints the commit each side runs, compiles the bytecode of both trees so
that neither pays for a cold cache in ``setup_s``, and then runs, for each
workload, --pairs pairs of ``perfbench/run.py --trace 0`` for the
``run_seconds`` of ``BENCHMARK.json``, one seed per pair (--first-seed, +1,
...), the parent first on odd pairs.
Every run's result line is echoed as it ends.  At the end it prints, for
each workload and end-to-end metric of ``BENCHMARK.json``, both sides'
median [Q1, Q3], the pairs the change won, and a verdict.  Below them come
the same rows for ``solve_s[<op>]``, each run's median untraced seconds of
one op kind (read from the detail line before the result line), judged with
the bound of ``solve_s``; a workload that mixes op kinds of different cost
can be resolved per kind when its ``solve_s`` is not.  The verdicts:

* ``worse beyond bound``: the change's median is worse than the parent's by
  more than the metric's relative bound;
* ``unresolved``: otherwise, but the spread (Q3 - Q1) / median of either
  side is wider than the bound, and not every change run beats every
  parent run;
* ``ok``: neither.

A run that exits nonzero or prints no result line does not stop the
campaign: its side, seed, exit code and last stderr lines are echoed, the
next run goes on, the pairs it belongs to count for neither side's wins, and
the summary lists the failed runs of each side; the script then exits 1.

Uses the standard library only, and reads nothing of the program but
``perfbench/`` and ``BENCHMARK.json``.
"""

import argparse
import compileall
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git ref of the parent side")
    p.add_argument("--change", help="git ref of the change side (default: a snapshot of the "
                                    "working tree)")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    return p.parse_args(argv)


def git(*args: str) -> str:
    """The stripped standard output of git args, run in this checkout."""
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def snapshot() -> str:
    """A commit of the working tree's tracked files (HEAD when none is
    modified); exits naming the untracked files under src/ or perfbench/,
    which it would leave out."""
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "src", "perfbench")
    if untracked:
        sys.exit("untracked files would be missing from the change side: "
                 + ", ".join(untracked.splitlines()))
    return git("stash", "create") or "HEAD"


def archive(commit: str, tree: Path) -> Path:
    """The files of commit, extracted from git archive into the new directory tree."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(tree, filter="data")
    return tree


class RunFailed(Exception):
    """A perfbench run that exited nonzero or printed no result line."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}")
        self.code, self.tail = code, stderr.strip().splitlines()[-5:]


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result line of one perfbench run in tree, and the median untraced
    seconds of each op kind, from the detail line before it; RunFailed when
    the run gives none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise RunFailed(proc.returncode, proc.stderr)
    seconds_by_kind = {}
    for op in json.loads(lines[-2])["ops"]:
        if not op["traced"]:
            seconds_by_kind.setdefault(op["op"], []).append(op["seconds"])
    return json.loads(lines[-1]), {k: statistics.median(v) for k, v in seconds_by_kind.items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if sign * (cm - pm) > bound * abs(pm):
        return "worse beyond bound"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all(sign * (c - p) < 0 for c in change for p in parent):
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    records, failures = [], []
    refs = {"parent": args.parent, "change": args.change or snapshot()}
    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
               for side, ref in refs.items()}
    for side, commit in commits.items():
        source = "working tree" if side == "change" and not args.change else refs[side]
        print(f"{side} runs {commit} ({source})", flush=True)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: archive(commit, Path(tmp) / side) for side, commit in commits.items()}
        for tree in trees.values():
            for sub in ("src", "perfbench"):
                compileall.compile_dir(tree / sub, quiet=1)
        for workload in workloads:
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    try:
                        result, kinds = run(trees[side], workload, seed, seconds)
                    except RunFailed as exc:
                        failures.append({"workload": workload, "side": side, "seed": seed,
                                         "code": exc.code, "tail": exc.tail})
                        print(f"{workload} pair {k + 1} seed {seed} {side}: run failed, "
                              f"exit {exc.code}", *exc.tail, sep="\n  ", flush=True)
                        continue
                    values = {m: v["value"] for m, v in result["metrics"].items()}
                    values.update({f"solve_s[{kind}]": v for kind, v in kinds.items()})
                    records.append({"workload": workload, "side": side, "seed": seed,
                                    "failed": result["failed"], "metrics": values})
                    print(f"{workload} pair {k + 1} seed {seed} {side}: "
                          + " ".join(f"{m['name']}={values.get(m['name'])}" for m in metrics)
                          + "".join(f" {name}={v}" for name, v in values.items() if "[" in name)
                          + f" failed={result['failed']}/{result['attempted']}", flush=True)

    solve = next(m for m in metrics if m["name"] == "solve_s")
    print(f"\n{'workload':9} {'metric':18} {'parent median [Q1, Q3]':>32} "
          f"{'change median [Q1, Q3]':>32} {'wins':>6}  verdict")
    for workload in workloads:
        runs = [r for r in records if r["workload"] == workload]
        kinds = sorted({name for r in runs for name in r["metrics"] if name.startswith("solve_s[")})
        for m in metrics + [dict(solve, name=kind) for kind in kinds]:
            name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
            by_seed = {s: {r["seed"]: r["metrics"][name] for r in runs
                           if r["side"] == s and name in r["metrics"]}
                       for s in ("parent", "change")}
            side = {s: list(v.values()) for s, v in by_seed.items()}
            if not side["parent"] or not side["change"]:
                print(f"{workload:9} {name:18} no run of one side measured it")
                continue
            pairs = [(p, by_seed["change"][seed]) for seed, p in by_seed["parent"].items()
                     if seed in by_seed["change"]]
            wins = sum(sign * (c - p) < 0 for p, c in pairs)
            cols = []
            for s in ("parent", "change"):
                q1, q2, q3 = quartiles(side[s])
                cols.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:9} {name:18} {cols[0]:>32} {cols[1]:>32} "
                  f"{wins:>2}/{len(pairs):<3}  "
                  f"{verdict(side['parent'], side['change'], m['better'], m['bound'])}")
        failed = {s: sum(r["failed"] for r in runs if r["side"] == s) for s in ("parent", "change")}
        print(f"{workload:9} failed ops: parent {failed['parent']}, change {failed['change']}")
        for s in ("parent", "change"):
            lost = [f"seed {f['seed']} (exit {f['code']})" for f in failures
                    if f["workload"] == workload and f["side"] == s]
            print(f"{workload:9} failed runs, {s}: {', '.join(lost) or 'none'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
