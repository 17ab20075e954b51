"""Pure functions that turn recorded passes and spans into metrics."""

from __future__ import annotations

import math
import statistics

import spans as spanlib

# Percentiles tried for the tail, highest first; the tail is the highest one
# with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# The tail percentile is chosen for this many passes of the matrix, not for
# the passes a run completes: those depend on the program's speed, and a
# faster program would otherwise be judged at a higher percentile.
TAIL_PASSES = 4


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile of TAIL_LADDER that leaves at least TAIL_BEYOND
    of ``n`` distinct samples above its value, or the median if none does."""
    for p in TAIL_LADDER:
        if n - 1 - math.floor((n - 1) * p / 100.0) >= TAIL_BEYOND:
            return p
    return 50.0


def tail(values, nominal: int | None = None) -> tuple[float, float, int]:
    """(percentile, value, sample count) of the tail of ``values``.

    The percentile is ``tail_percentile(nominal)``, by default of the number
    of values.  A fixed ``nominal`` keeps the percentile the same however
    many samples a run happens to collect.
    """
    p = tail_percentile(len(values) if nominal is None else nominal)
    return p, percentile(values, p), len(values)


def classify(command: str, exit_code: int, verify_code: int | None) -> str:
    """Outcome class of one case from the CLI's exit codes.

    extract: exit 0 whose certificate verifies is ``certified``; exit 2 is an
    honest ``miss``, as long as its partial certificate (if any) does not
    verify.  analyze: exit 0 is ``analyze``.  Anything else is ``fail``.
    """
    if command == "analyze":
        return "analyze" if exit_code == 0 else "fail"
    if exit_code == 0:
        return "certified" if verify_code == 0 else "fail"
    if exit_code == 2:
        return "miss" if verify_code != 0 else "fail"
    return "fail"


def end_to_end(passes, case_info) -> dict:
    """End-to-end numbers over the untraced passes.

    ``passes`` are dicts with ``seconds``, ``cal`` (the mean calibration-loop
    time in that pass) and ``cases`` (records with ``id``, ``seconds``,
    ``class`` and, for analyze, ``settled``); ``case_info`` maps a case id to
    its input ``size``, whether the input comes from the seed (``seeded``)
    and, where the case yields one, its ``witness`` size: a certified
    extract's ``achieved_size``, or analyze's exhaustive
    ``max_product_free_size``.  ``witness_share`` leaves seeded inputs out:
    their best witness changes with the seed, not with the program.  The
    ``*_cal`` numbers are times in units of the calibration loop of the same
    pass.
    """
    recs = [r for p in passes for r in p["cases"]]
    ms = [r["seconds"] * 1000.0 for r in recs]
    nominal = len(passes[0]["cases"]) * TAIL_PASSES
    p, tail_ms, n = tail(ms, nominal)
    cal = [r["seconds"] / q["cal"] for q in passes for r in q["cases"]]
    classes = [r["class"] for r in recs]
    answered = sum(
        1 for r in recs
        if r["class"] == "certified" or (r["class"] == "analyze" and r["settled"])
    )
    witnessed = [
        case_info[r["id"]] for r in recs
        if r["class"] in ("certified", "analyze") and "witness" in case_info[r["id"]]
        and not case_info[r["id"]].get("seeded")
    ]
    densities = [
        case_info[r["id"]]["witness"] / case_info[r["id"]]["size"]
        for r in recs if r["class"] == "certified" and "witness" in case_info[r["id"]]
    ]
    analyzed = [r for r in recs if r["class"] == "analyze"]
    return {
        "pass_s": statistics.median(q["seconds"] for q in passes),
        "case_ms_p50": percentile(ms, 50.0),
        "case_ms_tail": tail_ms,
        "tail_percentile": p,
        "case_samples": n,
        "cal_ms": statistics.median(q["cal"] for q in passes) * 1000.0,
        "pass_cal": statistics.median(q["seconds"] / q["cal"] for q in passes),
        "case_p50_cal": percentile(cal, 50.0),
        "case_tail_cal": tail(cal, nominal)[1],
        "answered_share": answered / len(recs),
        "witness_share": (
            sum(w["witness"] for w in witnessed) / sum(w["size"] for w in witnessed)
            if witnessed else None
        ),
        "fail_share": classes.count("fail") / len(recs),
        "miss_share": classes.count("miss") / len(recs),
        "witness_density": statistics.fmean(densities) if densities else None,
        "cover_exact_share": (
            sum(1 for r in analyzed if r["settled"]) / len(analyzed) if analyzed else None
        ),
    }


# per-layer metrics: (name, how) where how is
#   ("incl", span name)  time in the function, callees included
#   ("self", span name)  self time of the function, or of a bare layer name
#   ("count", key)       a counter from the tracer or the harness
PER_LAYER = [
    ("cli.self_ms", ("self", "cli")),
    ("families.generate_ms", ("incl", "families.generate")),
    ("families.self_ms", ("self", "families")),
    ("sets.self_ms", ("self", "sets")),
    ("sets.product_set_ms", ("incl", "sets.product_set")),
    ("sets.product_set_calls", ("count", "sets.product_set_calls")),
    ("sets.product_pairs", ("count", "sets.product_pairs")),
    ("sets.product_out", ("count", "sets.product_out")),
    ("sets.freeness_ms", ("incl", "sets.is_product_free")),
    ("sets.freeness_pairs", ("count", "sets.freeness_pairs")),
    ("sets.incident_ms", ("incl", "sets.count_incident_pairs")),
    ("sets.cover_ms", ("self", "sets.approx_report")),
    ("sets.cover_settled", ("count", "sets.cover_settled")),
    ("sets.cover_attempted", ("count", "sets.cover_attempted")),
    ("groups.self_ms", ("self", "groups")),
    ("groups.kmul_calls", ("count", "groups.kmul_calls")),
    ("groups.series_ms", ("incl", "groups.derived_subnormal_series")),
    ("pipeline.self_ms", ("self", "pipeline")),
    ("pipeline.petridis_ms", ("incl", "pipeline.petridis_subset")),
    ("pipeline.halving_ms", ("self", "pipeline.seh_halving")),
    ("pipeline.finder_ms", ("incl", "pipeline.find_homogeneous_tuple")),
    ("pipeline.finder_calls", ("count", "pipeline.finder_calls")),
    ("pipeline.halving_steps", ("count", "pipeline.halving_steps")),
    ("pipeline.localize_ms", ("incl", "pipeline.localize_small_triple")),
    ("pipeline.extract_self_ms", ("self", "pipeline.product_free_extract")),
    ("pipeline.stage_failed.petridis", ("count", "pipeline.stage_failed.petridis")),
    ("pipeline.stage_failed.halving", ("count", "pipeline.stage_failed.halving")),
    ("pipeline.stage_failed.localize", ("count", "pipeline.stage_failed.localize")),
    ("pipeline.stage_failed.pigeonhole", ("count", "pipeline.stage_failed.pigeonhole")),
    ("sumfree.self_ms", ("self", "sumfree")),
    ("sumfree.alon_kleitman_ms", ("incl", "sumfree.alon_kleitman_weighted")),
    ("sumfree.solvable_self_ms", ("self", "sumfree.solvable_extract")),
    ("certificates.self_ms", ("self", "certificates")),
    ("certificates.build_ms", ("incl", "certificates.build_certificate")),
    ("certificates.verify_ms", ("incl", "certificates.verify_certificate")),
    ("certificates.bytes", ("count", "certificates.bytes")),
    ("baselines.self_ms", ("self", "baselines")),
    ("baselines.exhaustive_ms", ("incl", "baselines.exhaustive_max_product_free")),
]


def layer_pass(spans, counts, pass_seconds: float, cal: float) -> dict:
    """Per-layer values for one traced pass, plus the trace's own numbers."""
    incl = spanlib.inclusive_ms(spans)
    own = spanlib.self_ms(spans)
    out = {}
    for name, (how, key) in PER_LAYER:
        table = {"incl": incl, "self": own, "count": counts}[how]
        out[name] = table.get(key, 0)
    pairs = counts.get("sets.product_pairs", 0)
    out["sets.product_yield"] = counts.get("sets.product_out", 0) / pairs if pairs else 0.0
    layers = {s.layer for s in spans}
    out["trace.accounted_share"] = sum(own[l] for l in layers) / (pass_seconds * 1000.0)
    out["trace.spans"] = len(spans)
    out["trace.pass_s"] = pass_seconds
    out["trace.pass_cal"] = pass_seconds / cal
    return out


def per_layer(traced: list[dict], untraced_pass_cal: float) -> dict:
    """Median over traced passes of each per-layer value, and the overhead:
    traced over untraced pass time, both in calibration units."""
    out = {k: statistics.median(p[k] for p in traced) for k in traced[0]}
    out["trace.overhead"] = out.pop("trace.pass_cal") / untraced_pass_cal
    return out
