"""braidhopf benchmark: cold time-to-verdict on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-freec-d2 --seed 1 \\
        --seconds 36 --trace 0
    python3 perfbench/run.py        # every workload, default seed, untraced

One run is one single-threaded process.  It

1. times the set-up SETUP_REPEATS times, each in a fresh interpreter that
   imports braidhopf and writes the seeded inputs (inputs.py); the first
   comes before any pass, the others are spread over the run, and the
   median is reported as setup_s;
2. runs the workload's calls once untimed, as a warm-up whose verdicts are
   checked like every other pass;
3. runs the workload through braidhopf.cli.main (--format json) in passes
   until --seconds would be exceeded; every call builds a fresh Algebra, so
   each pass starts on cold memo tables, and the heap is collected before
   each call, as in a fresh process.  wall_s and cpu_s are medians over the
   passes (tens of them, since every call is at degree 2: the speed of a
   shared machine drifts by up to 2x over seconds, which a median over a
   few long passes does not average out); peak_rss_mb is the process peak;
4. with --trace 1, runs one more pass with the tracer installed and the
   Scalar/TPoly microbenchmarks, and reports the per-layer metrics.

Every pass's verdicts are checked against workloads.WORKLOADS; failed is
the number of operations (check reports or Schoenberg verdicts) whose
verdict differs, so error_rate = failed / attempted.  The last line of
standard output is one JSON object with correct, attempted, failed and
metrics.  The full result, with metadata, per-pass times and the trace
breakdown, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import probes
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = inputs.ROOT
OUT = HERE / "out"
SETUP_REPEATS = 9
DEFAULT_SECONDS = 36
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {name: "us" for name in probes.MICRO_METRICS}
    units.update(tracing.layer_metric_names(workloads.CHECK_IDS))
    units.update({"machine.ref_s": "s", "trace.overhead_s": "s"})
    return units


class SetupError(Exception):
    pass


def time_setup(workload: str, seed: int, inputs_dir: Path) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    braidhopf and written and parsed the workload's inputs."""
    cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(inputs_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SetupError("set-up probe did not exit") from None
    if proc.returncode != 0 or ready.strip() != "ready":
        raise SetupError("set-up probe failed: " + err.strip())
    return elapsed


def run_pass(cli, calls, inputs_dir: Path, tracer=None):
    """Run every call once, each on a freshly collected heap as in a new
    process; returns (wall_s, cpu_s, outcomes)."""
    outcomes = []
    wall = cpu = 0.0
    for call in calls:
        gc.collect()
        if tracer is not None:
            tracer.begin_call()
        out, err = io.StringIO(), io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(call.argv(inputs_dir))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # counted: every operation of the call fails
                rc = None
                traceback.print_exc()
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
        outcomes.append((call, rc, out.getvalue(), err.getvalue()))
    return wall, cpu, outcomes


class Tally:
    """Operations attempted and wrong, over every pass of a run."""

    def __init__(self, first_generators: dict):
        self.first = first_generators
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, label: str, outcomes) -> None:
        for call, rc, out, err in outcomes:
            wrong = call.count_errors(rc, out, self.first[call.alg])
            self.attempted += len(call.verdicts)
            self.failed += wrong
            if wrong:
                self.problems.append({"pass": label, "call": call.alg,
                                      "exit": rc, "wrong": wrong,
                                      "stderr": err[-2000:]})


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(data)
    return {"git_sha": git_sha(), "src_sha256": digest.hexdigest(),
            "src_py_lines": lines, "python": platform.python_version(),
            "cpus": os.cpu_count()}


def measure(args) -> dict:
    braidhopf = inputs.import_braidhopf()
    from braidhopf import cli

    calls = workloads.WORKLOADS[args.workload]
    inputs_dir = OUT / f"inputs-{args.workload}-{os.getpid()}"
    try:
        setup = [time_setup(args.workload, args.seed, inputs_dir)]
        tally = Tally({
            c.alg: braidhopf.parse_presentation(
                (inputs_dir / c.alg).read_text(encoding="utf-8")
            ).generators[0] for c in calls})

        _, _, outcomes = run_pass(cli, calls, inputs_dir)
        tally.add("warm-up", outcomes)

        drift = [probes.fraction_loop_s()]
        passes = []
        start = time.perf_counter()
        while True:
            wall, cpu, outcomes = run_pass(cli, calls, inputs_dir)
            tally.add(f"pass{len(passes)}", outcomes)
            passes.append({"wall_s": wall, "cpu_s": cpu})
            elapsed = time.perf_counter() - start
            if len(setup) < SETUP_REPEATS * elapsed / args.seconds:
                setup.append(time_setup(args.workload, args.seed, inputs_dir))
            if time.perf_counter() - start + wall > args.seconds:
                break
        drift.append(probes.fraction_loop_s())
        while len(setup) < SETUP_REPEATS:
            setup.append(time_setup(args.workload, args.seed, inputs_dir))
        wall_s = statistics.median(p["wall_s"] for p in passes)
        e2e = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "metadata": metadata(),
                  "setup_samples_s": setup, "passes": passes,
                  "machine_ref_s": drift, "end_to_end": e2e}

        if args.trace:
            tr = tracing.Tracer()
            with tr.installed():
                traced_wall, _, outcomes = run_pass(cli, calls, inputs_dir,
                                                    tracer=tr)
            tally.add("traced", outcomes)
            layers = probes.scalar_microbench(braidhopf)
            layers.update(tr.layer_metrics(workloads.CHECK_IDS))
            layers["machine.ref_s"] = statistics.median(drift)
            layers["trace.overhead_s"] = traced_wall - wall_s
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in per_layer_units().items()}
            result.update(traced_wall_s=traced_wall, spans=tr.spans,
                          breakdown=tr.breakdown())
        else:
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    result.update(attempted=tally.attempted, failed=tally.failed,
                  error_rate=tally.failed / tally.attempted,
                  problems=tally.problems, metrics=metrics)
    return result


def run_one(args) -> int:
    try:
        result = measure(args)
    except (ImportError, SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1), encoding="utf-8")

    meta = result["metadata"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['passes'])} pass(es); git {meta['git_sha']}, "
          f"python {meta['python']}, src {meta['src_py_lines']} lines")
    print(f"  machine.ref_s before/after: "
          + " ".join(f"{v:.4f}" for v in result["machine_ref_s"]))
    for metric, m in result["metrics"].items():
        print(f"  {metric} {m['value']:.6g} {m['unit']}")
    print(f"  error_rate {result['error_rate']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':<22} {'metric':<40} {'value':>12} unit")
    for workload, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{workload:<22} {metric:<40} {m['value']:>12.6g} "
                  f"{m['unit']}")
        print(f"{workload:<22} {'error_rate':<40} "
              f"{res['failed'] / res['attempted']:>12.6g} "
              f"({res['failed']} of {res['attempted']})")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="braidhopf benchmark: cold time-to-verdict")
    ap.add_argument("--workload", choices=tuple(workloads.WORKLOADS),
                    help="one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="measure in passes until this would be exceeded "
                         "(at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
