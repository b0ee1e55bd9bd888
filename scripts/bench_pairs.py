"""Alternating parent/change benchmark pairs, written to one JSON file.

Runs ``perfbench/run.py`` for each workload in two checkouts, alternating
which side goes first, for the ``run_seconds`` that ``BENCHMARK.json``
declares, and optionally times whole ``verify`` catalog runs and whole
``schoenberg`` runs the same way, by wall clock and by the CPU time of the
child process.  With ``--counts`` each catalog and ``schoenberg`` row also
makes one untimed cProfile run per side and records its call counts: the
total, each ``scalars.poly_*`` kernel function, ``scalars.from_abd`` (the
Scalars built from triples), ``scalars.from_abds`` (the TPolys built from
coefficient tuples) and ``Tensor.add_term``; the last three read 0 where
nothing calls them.
Counts do not drift with the machine's speed, so they tell a row that did
more work from one that ran at a slower moment.  For every metric it
records both sides' runs, medians and quartiles, and how many pairs the
change won (ties count for neither side), together with each side's git
sha, Python version and ``src`` line count.  Only the standard library is
used; each checkout builds what it runs from its own ``src``.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 \\
        --out BENCH.json
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload none \\
        --catalog freec.alg@3 --catalog free2.alg@4 --catalog-pairs 3 \\
        --out BENCH.json
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload none \\
        --schoenberg freec.alg@5 --schoenberg car.alg+xxs.psi@4 --counts \\
        --out BENCH.json

An existing output file is updated in place: rows from this run replace
the rows of the same name and the others are kept.  A workload row run at
a seed other than 0 is named WORKLOAD@seedN, so one file can hold a
workload's series at several seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def summary(values: list) -> dict:
    """Median and quartiles of one side's runs, with the runs."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def compare(parent: list, change: list, better: str) -> dict:
    """Both sides' summaries and the pairs the change won."""
    sign = 1 if better == "lower" else -1
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    return {"parent": summary(parent), "change": summary(change),
            "better": better, "change_won": won, "pairs": len(parent)}


def pair_order(i: int) -> tuple:
    return SIDES if i % 2 == 0 else SIDES[::-1]


def run_workload(root: Path, workload: str, seconds: float,
                 seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{root}: {' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    result["metadata"] = json.loads(out.read_text())["metadata"]
    return result


def bench_workload(dirs: dict, workload: str, args) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in pair_order(i):
            r = run_workload(dirs[side], workload, args.seconds, args.seed)
            runs[side].append(r)
            print(f"{workload} pair {i + 1} {side}: wall_s "
                  f"{r['metrics']['wall_s']['value']:.4f} failed "
                  f"{r['failed']}/{r['attempted']}", file=sys.stderr)
    better = {m["name"]: m["better"] for m in args.end_to_end}
    metrics = {}
    for name in better:
        metrics[name] = compare(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
            better[name])
        metrics[name]["unit"] = runs["parent"][0]["metrics"][name]["unit"]
    return {
        "seconds": args.seconds, "seed": args.seed,
        "failed": {side: sum(r["failed"] for r in runs[side])
                   for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side])
                      for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "metadata": {side: {k: runs[side][0]["metadata"][k] for k in
                            ("git_sha", "python", "src_py_lines")}
                     for side in SIDES},
        "metrics": metrics,
    }


def parse_spec(spec: str) -> tuple:
    """FIXTURE[+PSI]@DEGREE as (fixture, psi file or None, degree)."""
    name, at, degree = spec.partition("@")
    fixture, plus, psi = name.partition("+")
    if not (at and fixture and degree.isdigit()) or (plus and not psi):
        raise ValueError(f"expected FIXTURE[+PSI]@DEGREE, got {spec!r}")
    return fixture, psi or None, int(degree)


def child_cpu() -> float:
    """User plus system CPU seconds of the waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cli_args(root: Path, command: str, spec: str) -> list:
    """The arguments of ``braidhopf COMMAND ... --format json`` on a
    bundled fixture of the checkout root."""
    fixture, psi, degree = parse_spec(spec)
    fixtures = root / "src" / "braidhopf" / "fixtures"
    args = [command, str(fixtures / fixture)]
    if psi:
        args += ["--psi", str(fixtures / psi)]
    return args + ["--max-degree", str(degree), "--format", "json"]


def time_cli(root: Path, command: str, spec: str) -> tuple:
    """Wall time and CPU time of one ``braidhopf COMMAND ... --format
    json`` process on a bundled fixture, the counts of its report
    statuses, and its output."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-m", "braidhopf.cli",
           *cli_args(root, command, spec)]
    cpu = child_cpu()
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    cpu = child_cpu() - cpu
    if proc.returncode not in (0, 1):
        sys.exit(f"{root}: {' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    doc = json.loads(proc.stdout)
    reports = (doc if command == "verify"
               else [doc["conditional"], *doc["states"]])
    statuses = [r["status"] for r in reports]
    return wall, cpu, {s: statuses.count(s) for s in sorted(set(statuses))}, \
        proc.stdout


def count_calls(root: Path, command: str, spec: str) -> dict:
    """Call counts of one cProfile run of ``braidhopf COMMAND ... --format
    json``, with a fixed hash seed: the total, each ``scalars.poly_*``
    function, ``scalars.from_abd`` (the Scalars built from triples, under
    its older name ``_scalar`` in a checkout that has it),
    ``scalars.from_abds`` (the TPolys built from coefficient tuples) and
    ``Tensor.add_term``, recursive calls included."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "profile"
        cmd = [sys.executable, "-m", "cProfile", "-o", str(out), "-m",
               "braidhopf.cli", *cli_args(root, command, spec)]
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True)
        if not out.exists():
            sys.exit(f"{root}: {' '.join(cmd)} wrote no profile:\n"
                     f"{proc.stderr}")
        stats = pstats.Stats(str(out))
    counts = {"total": stats.total_calls, "scalars.from_abd": 0,
              "scalars.from_abds": 0, "Tensor.add_term": 0}
    for (path, _, name), (_, calls, *_) in sorted(stats.stats.items()):
        key = count_key(path, name)
        if key is not None:
            counts[key] = calls
    return counts


def count_key(path: str, name: str):
    """The --counts key of the function name defined in the file path, or
    None for a function that is not counted."""
    module = Path(path).parts[-2:]
    if module == ("braidhopf", "scalars.py"):
        if name.startswith("poly_"):
            return f"scalars.{name}"
        if name in ("from_abd", "_scalar"):
            return "scalars.from_abd"
        if name == "from_abds":
            return "scalars.from_abds"
    elif module == ("braidhopf", "algebra.py") and name == "add_term":
        return "Tensor.add_term"
    return None


def bench_cli(dirs: dict, command: str, spec: str, pairs: int,
              counts: bool = False) -> dict:
    walls = {side: [] for side in SIDES}
    cpus = {side: [] for side in SIDES}
    statuses = {}
    outputs = set()
    for i in range(pairs):
        for side in pair_order(i):
            wall, cpu, tally, stdout = time_cli(dirs[side], command, spec)
            walls[side].append(wall)
            cpus[side].append(cpu)
            statuses.setdefault(side, tally)
            outputs.add(stdout)
            print(f"{command} {spec} pair {i + 1} {side}: {wall:.2f} s "
                  f"wall {cpu:.2f} s cpu {tally}", file=sys.stderr)
    # the row's own fields are wall time; cpu compares the child's CPU time
    row = compare(walls["parent"], walls["change"], "lower")
    # statuses are each side's first run; identical_output says whether
    # every run on both sides printed the same report
    row.update(unit="s", cpu=compare(cpus["parent"], cpus["change"], "lower"),
               statuses=statuses, identical_output=len(outputs) == 1)
    if counts:
        row["counts"] = {side: count_calls(dirs[side], command, spec)
                         for side in SIDES}
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="alternating parent/change benchmark pairs")
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default all; "
                         "'none' for --catalog and --schoenberg rows only)")
    ap.add_argument("--catalog", action="append", default=[],
                    metavar="FIXTURE@DEGREE",
                    help="time a whole verify catalog run (repeatable)")
    ap.add_argument("--schoenberg", action="append", default=[],
                    metavar="FIXTURE[+PSI]@DEGREE",
                    help="time a whole schoenberg run (repeatable)")
    ap.add_argument("--catalog-pairs", type=int, default=3,
                    help="pairs per --catalog or --schoenberg row")
    ap.add_argument("--counts", action="store_true",
                    help="add one untimed cProfile run per side to each "
                         "--catalog and --schoenberg row, for call counts")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.catalog_pairs < 1:
        ap.error("--pairs and --catalog-pairs must be at least 1")
    for spec in args.catalog + args.schoenberg:
        try:
            parse_spec(spec)
        except ValueError as exc:
            ap.error(str(exc))
    if any(parse_spec(spec)[1] for spec in args.catalog):
        ap.error("a --catalog row takes no psi file")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    args.end_to_end = declared["end_to_end"]
    args.seconds = declared["run_seconds"]
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    workloads = [w for w in workloads if w != "none"]

    doc = (json.loads(args.out.read_text()) if args.out.exists() else {})
    doc.setdefault("workloads", {})
    for workload in workloads:
        name = workload if args.seed == 0 else f"{workload}@seed{args.seed}"
        doc["workloads"][name] = bench_workload(dirs, workload, args)
    for key, command in (("catalog", "verify"), ("schoenberg", "schoenberg")):
        for spec in getattr(args, key):
            doc.setdefault(key, {})[spec] = bench_cli(
                dirs, command, spec, args.catalog_pairs, args.counts)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
