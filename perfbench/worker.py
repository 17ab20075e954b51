"""One workload in one fresh process: closed-loop passes, then output checks.

Started by run.py with ``src`` on PYTHONPATH.  A single client runs the
workload's case matrix back to back through ``prodfree.cli.main(argv)``
in-process: every extract is followed by a verify of the certificate it
wrote, every analyze writes its JSON.  A pass is started only while it is
expected to end within ``--seconds``.  With ``--trace 1`` the passes
alternate untraced and traced, so the traced run also yields the trace
overhead.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

import numpy

import metrics
import spans as spanlib

HERE = os.path.dirname(os.path.abspath(__file__))
DOUBLING_CHECK_MAX = 150


def load_cases(workload: str) -> list[dict]:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]["cases"]


class Runner:
    """Runs cases through the CLI and keeps what the checks need."""

    def __init__(self, cli, seed: int, workdir: str):
        self.cli = cli
        self.seed = seed
        self.workdir = workdir

    def seed_args(self, source: str) -> list[str]:
        return ["--seed", str(self.seed)] if source.startswith("random:") else []

    def call(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue()

    def run_case(self, case: dict) -> dict:
        argv = case["argv"]
        command = argv[0]
        source = argv[2] if command == "extract" else argv[1]
        path = os.path.join(self.workdir, case["id"] + ".json")
        if os.path.exists(path):
            os.remove(path)
        extra = self.seed_args(source) + ["--out", path]
        verify_code = None
        error = None
        t0 = time.perf_counter()
        try:
            code, _ = self.call(argv + extra)
            if command == "extract" and os.path.exists(path):
                verify_code, text = self.call(["verify", path, source] + self.seed_args(source))
                if verify_code == 0 and not text.startswith("PASS"):
                    verify_code = 1
        except Exception:  # one broken case must not stop the others
            code, error = 1, traceback.format_exc()
        seconds = time.perf_counter() - t0
        rec = {
            "id": case["id"],
            "seconds": seconds,
            "exit": code,
            "verify_exit": verify_code,
            "class": metrics.classify(command, code, verify_code),
        }
        if error:
            rec["error"] = error
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            rec["sha256"] = hashlib.sha256(data).hexdigest()
            rec["bytes"] = len(data)
            rec["output"] = data
        if command == "analyze" and rec["class"] == "analyze":
            rec["settled"] = json.loads(rec["output"])["covering_exact"] is not None
        return rec


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that does not touch prodfree.

    Run before every case, it measures how fast this machine executes
    interpreter-heavy code at that moment.  On a shared host that speed
    drifts by tens of percent over minutes; case times expressed in units of
    this loop drift far less, and a change to prodfree cannot move it.
    """
    t0 = time.perf_counter()
    counts: dict = {}
    seen = set()
    for i in range(8000):
        a = (i % 7, i % 11, i % 13)
        b = ((a[0] + a[2] * 3) % 17, (a[1] * a[0]) % 19, (a[2] + 5) % 23)
        counts[b] = counts.get(b, 0) + 1
        seen.add((b, i % 101))
    sorted(seen)
    return time.perf_counter() - t0


def run_pass(runner, cases, tracer=None) -> dict:
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        recs = []
        for case in cases:
            if tracer is not None:
                tracer.case = case["id"]
            cal = calibrate()
            recs.append(runner.run_case(case))
            recs[-1]["cal"] = cal
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "traced": tracer is not None,
        "seconds": sum(r["seconds"] for r in recs),
        "cal": statistics.fmean(r["cal"] for r in recs),
        "cases": recs,
    }
    if tracer is not None:
        counts = dict(tracer.counts)
        counts["certificates.bytes"] = sum(
            r.get("bytes", 0) for r, c in zip(recs, cases) if c["argv"][0] == "extract"
        )
        result["layer"] = metrics.layer_pass(tracer.spans, counts, result["seconds"], result["cal"])
        result["spans"] = [s.to_json() for s in tracer.spans]
    return result


def raw_square_size(x) -> int:
    """|X^2| by a plain double loop over the oracle's kmul."""
    kmul = x.oracle.kmul
    return len({kmul(a, b) for a in x.keys for b in x.keys})


def check(runner, cases, passes) -> tuple[dict, dict, list[str]]:
    """Untimed output checks.

    Returns (case info, failure messages by case id, class mismatches).
    """
    from prodfree.families import generate

    info, bad, mismatches = {}, {}, []
    for case in cases:
        cid = case["id"]
        failures = bad.setdefault(cid, [])
        recs = [r for p in passes for r in p["cases"] if r["id"] == cid]
        argv = case["argv"]
        source = argv[2] if argv[0] == "extract" else argv[1]
        x = generate(source, seed=runner.seed if source.startswith("random:") else None)
        entry = {
            "size": len(x),
            "seeded": source.startswith("random:"),
            "class": recs[0]["class"],
            "sha256": recs[0].get("sha256"),
            "ms": [round(r["seconds"] * 1000.0, 3) for r in recs],
            "cal_ms": [round(r["cal"] * 1000.0, 3) for r in recs],
        }
        info[cid] = entry
        for r in recs:
            if r["class"] == "fail":
                failures.append(f"exit {r['exit']}, verify {r['verify_exit']}"
                                + (f"\n{r['error']}" if "error" in r else ""))
        if len({r["class"] for r in recs}) > 1:
            failures.append("outcome differs between passes")
        if len({r.get("sha256") for r in recs}) > 1:
            failures.append("output bytes differ between passes")
        if entry["class"] != case["expect"]:
            mismatches.append(f"{cid}: expected {case['expect']}, got {entry['class']}")
        if entry["class"] == "certified":
            cert = json.loads(recs[0]["output"])
            entry["witness"] = cert["achieved_size"]
            if cert["guarantee"] is not None:
                need = math.ceil(Fraction(cert["guarantee"]))
                if cert["achieved_size"] < need:
                    failures.append(f"achieved {cert['achieved_size']} < ceil(guarantee) {need}")
        if entry["class"] == "analyze":
            payload = json.loads(recs[0]["output"])
            if payload["size"] != len(x):
                failures.append(f"analyze size {payload['size']} != |X| {len(x)}")
            if "max_product_free_size" in payload:
                entry["witness"] = payload["max_product_free_size"]
            if len(x) <= DOUBLING_CHECK_MAX:
                want = Fraction(raw_square_size(x), len(x))
                if Fraction(payload["doubling"]) != want:
                    failures.append(f"doubling {payload['doubling']} != raw {want}")
                entry["doubling_checked"] = True
    return info, {cid: msgs for cid, msgs in bad.items() if msgs}, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    import prodfree.cli as cli

    cases = load_cases(args.workload)
    os.makedirs(args.workdir, exist_ok=True)
    runner = Runner(cli, args.seed, args.workdir)
    tracer = spanlib.Tracer() if args.trace else None
    try:
        passes = []
        start = time.perf_counter()
        min_passes = 2 if tracer is not None else 1
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(run_pass(runner, cases, tracer if traced else None))
            if len(passes) == 1:
                # the high-water mark of one pass: later passes only add the
                # harness's own heap growth, which depends on the run length
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if len(passes) < min_passes:
                continue
            # the next pass has the other kind when tracing alternates
            expect = [p["seconds"] for p in passes if p["traced"] == (tracer is not None and not traced)]
            if time.perf_counter() - start + (expect or [passes[-1]["seconds"]])[-1] > args.seconds:
                break
        info, bad, mismatches = check(runner, cases, passes)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "attempted": sum(len(p["cases"]) for p in passes),
        # an execution fails when it errs or when its case fails a check
        "failed": sum(1 for p in passes for r in p["cases"] if r["id"] in bad),
        "failures": [f"{cid}: {msg}" for cid, msgs in bad.items() for msg in msgs],
        "mismatches": mismatches,
        "cases": info,
        "pass_seconds": [p["seconds"] for p in untraced],
        "pass_cal_seconds": [p["cal"] for p in untraced],
        "end_to_end": metrics.end_to_end(untraced, info),
        "peak_rss_mb": peak_mb,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    if traced:
        result["per_layer"] = metrics.per_layer(
            [p["layer"] for p in traced], result["end_to_end"]["pass_cal"]
        )
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "case"],
                           "passes": [p["spans"] for p in traced]}, fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
