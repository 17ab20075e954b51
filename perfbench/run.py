"""Benchmark for the prodfree CLI: extract + verify and analyze, end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload thm33-int --seed 1 --seconds 36 --trace 0

``--workload`` is one of the workloads in ``perfbench/workloads.json``, or
``all`` to run each in turn.  ``--trace 0`` measures the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` measures the per-layer metrics and
the trace overhead.  The seed reaches only ``random:`` families.

Raw wall times (``pass_s``, ``case_ms_*``) are printed and recorded.  The
gated time metrics (``*_cal``) are the same times in units of a fixed
calibration loop run before every case in the same process, which cancels
most of a shared host's speed drift (see worker.calibrate).

Set-up time is the time from process start until ``prodfree.cli`` is
imported, over several fresh interpreters, each over a bare interpreter's
start just before it (see measure_setup).  The workload then runs in
one more fresh child process (worker.py), so its peak RSS is its own.  BLAS
and OpenMP threads are pinned to 1 in the children's environment.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-run
details (case outcomes, certificate sha256, tail percentile and sample count,
machine) go to ``.perfbench/`` in the checkout, and the traced run's spans to
``.perfbench/spans-*.json``.  The exit code is non-zero when an output check
fails or the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 11
# A bare interpreter's start-up time, the median measured on the 2-CPU Xeon VM
# (Python 3.11.7) the bounds were set on.  setup_s is reported in these
# reference seconds; see measure_setup.
START_REF_S = 0.066
# time allowed per workload beyond --seconds: set-up, the worker's import,
# the last pass running over, and the output checks
RUN_MARGIN_S = 90.0
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
BARE = "print('ready', flush=True)"
READY = "import prodfree.cli; print('ready', flush=True)"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = SRC
    return env


def time_start(code: str, env) -> float:
    """Seconds from starting a fresh interpreter on ``code`` until it prints
    ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("a set-up interpreter did not exit") from None
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"a set-up interpreter failed on {code!r}:\n{err}")
    return elapsed


def measure_setup(env) -> dict:
    """Set-up time: a fresh interpreter until ``prodfree.cli`` is imported.

    On a shared host the speed of starting a process and importing drifts
    by tens of percent over minutes, more than a change to the package
    would move it.  A bare interpreter started just before each import drifts with
    it: over 24 rounds of 11 pairs spread over six minutes on the reference
    machine, the median import time spread 0.20 (Q3-Q1 over median), its
    ratio to the bare start 0.04.  ``setup_s`` is therefore the median of
    those ratios times START_REF_S: the import time at the reference
    machine's start-up speed.  Work moved into import moves it in
    proportion.  The raw medians are kept beside it.
    """
    bare, full = [], []
    for _ in range(SETUP_SAMPLES):
        bare.append(time_start(BARE, env))
        full.append(time_start(READY, env))
    return {
        "setup_s": statistics.median(f / b for f, b in zip(full, bare)) * START_REF_S,
        "setup_raw_s": statistics.median(full),
        "start_raw_s": statistics.median(bare),
        "samples": [[b, f] for b, f in zip(bare, full)],
    }


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": model,
        "platform": platform.platform(),
        "threads_env": PINNED,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    env = child_env()
    setup = measure_setup(env)
    tag = f"{name}-s{seed}-t{trace}"
    out = os.path.join(OUT_DIR, f"result-{tag}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", out,
        # relative to the worker's cwd and free of the seed: the length of the
        # certificate paths the CLI sees shifts glibc's heap layout enough to
        # move peak RSS by 20%
        "--workdir", os.path.join(".perfbench", f"work-{name}-t{trace}"),
    ]
    if trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{tag}.json")]
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload {name} did not finish in time")
    if code != 0 or not os.path.exists(out):
        raise RuntimeError(f"workload {name} worker exited with {code}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_samples"] = setup.pop("samples")
    result["machine"] = machine()
    result["end_to_end"].update(setup)
    result["end_to_end"]["peak_rss_mb"] = result["peak_rss_mb"]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    if isinstance(value, float):
        return str(int(value))
    return str(value)


# every end-to-end number printed for a human, with its unit
REPORT = [
    ("setup_s", "s"), ("setup_raw_s", "s"), ("start_raw_s", "s"),
    ("pass_s", "s"), ("case_ms_p50", "ms"), ("case_ms_tail", "ms"),
    ("tail_percentile", "%"), ("case_samples", "count"), ("cal_ms", "ms"),
    ("pass_cal", "cal"), ("case_p50_cal", "cal"), ("case_tail_cal", "cal"),
    ("fail_share", "share"), ("miss_share", "share"), ("answered_share", "share"),
    ("witness_share", "share"), ("witness_density", "share"),
    ("cover_exact_share", "share"), ("peak_rss_mb", "MB"),
]


def report(result: dict, trace: int, layer_units: dict) -> None:
    name = result["workload"]
    m = result["machine"]
    print(f"# {name}  seed={result['seed']}  passes={result['passes']}  "
          f"nproc={m['nproc']}  cpu={m['cpu']}  python={result['versions']['python']}  "
          f"numpy={result['versions']['numpy']}")
    if trace:
        for key, value in result["per_layer"].items():
            print(f"{name:14s} {key:34s} {fmt(value):>14s} {layer_units.get(key, '')}")
    else:
        for key, unit in REPORT:
            print(f"{name:14s} {key:34s} {fmt(result['end_to_end'][key]):>14s} {unit}")
    for line in result["mismatches"]:
        print(f"{name:14s} outcome differs from the matrix: {line}")
    for line in result["failures"]:
        print(f"{name:14s} CHECK FAILED: {line}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "prodfree", "cli.py")):
        print(f"error: no prodfree sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        known = list(json.load(fh))
    names = known if args.workload == "all" else [args.workload]
    if any(n not in known for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from {known} or all",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + len(names) * (args.seconds + RUN_MARGIN_S)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, deadline))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for result in results:
        report(result, args.trace, units)
        values = result["per_layer"] if args.trace else result["end_to_end"]
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = all(not r["failures"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
