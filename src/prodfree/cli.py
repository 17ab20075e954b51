"""Command line interface: analyze, extract, verify, bench.

Exit codes: 0 = verified result, 2 = a search stage honestly found
nothing, 1 = usage, IO, or resource errors, or a failed theorem bound.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from fractions import Fraction

from .baselines import (
    EXHAUSTIVE_MAX_SIZE,
    exhaustive_max_product_free,
    greedy_product_free,
)
from .certificates import (
    ExtractionCertificate,
    build_certificate,
    require,
    verify_certificate,
)
from .errors import (
    BudgetExceededError,
    GroupSpecError,
    NotEnumerableError,
    PreconditionError,
    ProdfreeError,
    SearchExhaustedError,
    StageFailedError,
)
from .families import FAMILY_NAMES, generate
from .groups import build_group, derived_subnormal_series
from .pipeline import compute_bounds_profile, product_free_extract
from .sets import (
    DEFAULT_PRODUCT_BUDGET,
    MultSet,
    approx_report,
    frac_str,
    product_set,
)
from .setio import read_set
from .sumfree import WeightedSet, alon_kleitman_weighted, cyclic_interval, solvable_extract

ALGORITHMS = ("thm33", "solvable", "alon-kleitman", "interval", "greedy", "exhaustive")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 2

BENCH_COLUMNS = (
    "family",
    "size",
    "k",
    "algorithm",
    "witness_size",
    "density",
    "guarantee",
    "time_ms",
    "error",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for honest
    search misses, so remap usage problems to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _resolve_source(text: str, seed: int | None) -> MultSet:
    if text.startswith("file:"):
        return read_set(text[5:])
    head = text.split("(", 1)[0].split(":", 1)[0]
    if head in FAMILY_NAMES:
        return generate(text, seed=seed)
    oracle = build_group(text)
    if oracle.enum_keys is None:
        raise NotEnumerableError(
            f"{text!r} is an infinite group; name a family such as interval:50"
        )
    return MultSet(oracle, oracle.enum_keys)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed early (``| head``), which is not a failure of
        # the run: point stdout at devnull so later writes and the exit-time
        # flush stay silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _run_algorithm(
    algorithm: str, x: MultSet, *, delta: Fraction, alpha: Fraction, budget: int
) -> ExtractionCertificate:
    if algorithm == "thm33":
        profile = compute_bounds_profile(delta, alpha)
        return product_free_extract(x, profile, budget=budget)
    if algorithm == "solvable":
        series = derived_subnormal_series(x.oracle)
        return solvable_extract(x, series, budget=budget)
    params, guarantee, trace = {}, None, []
    if algorithm == "alon-kleitman":
        # the witness keeps a quarter of B, and its certificate checks all
        # its pairs: refuse before the scan when they cannot fit
        least = -(-len(x) // 4)
        if least * least > budget:
            raise BudgetExceededError(f"{least}^2 witness pairs exceed budget {budget}")
        witness = alon_kleitman_weighted(WeightedSet.uniform(x), budget=budget)
        params, guarantee = {"weights": "uniform"}, Fraction(len(x), 4)
        trace = [
            require("quarter-weight", {"a": len(witness), "b": len(x)}, "4 * a >= b")
        ]
    elif algorithm == "interval":
        if x.oracle.kind != "cyclic":
            raise PreconditionError("the interval algorithm needs a cyclic:n source")
        n = x.oracle.order
        if len(x) != n:
            raise PreconditionError(
                "the interval algorithm extracts from the full cyclic group"
            )
        witness = MultSet(x.oracle, cyclic_interval(n).keys)
        params, guarantee = {"n": str(n)}, Fraction(n, 4)
        trace = [require("interval-density", {"i": len(witness), "g": n}, "4 * i >= g")]
    elif algorithm == "greedy":
        witness = greedy_product_free(x)
    elif algorithm == "exhaustive":
        witness = exhaustive_max_product_free(x)
    else:
        raise GroupSpecError(f"unknown algorithm {algorithm!r}")
    return build_certificate(x, algorithm, params, witness, guarantee, trace, budget=budget)


def cmd_analyze(args) -> int:
    x = _resolve_source(args.source, args.seed)
    rep = approx_report(x, k=args.k, budget=args.budget, translate_side=args.side)
    payload = rep.to_json_dict()
    if len(x) <= EXHAUSTIVE_MAX_SIZE:
        best = exhaustive_max_product_free(x)
        payload["max_product_free_size"] = len(best)
        payload["max_product_free_density"] = frac_str(Fraction(len(best), len(x)))
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def cmd_extract(args) -> int:
    x = _resolve_source(args.source, args.seed)
    try:
        cert = _run_algorithm(
            args.algorithm, x, delta=args.delta, alpha=args.alpha, budget=args.budget
        )
    except StageFailedError as exc:
        if exc.certificate is not None:
            _emit(exc.certificate.to_json(), args.out)
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    _emit(cert.to_json(), args.out)
    return EXIT_OK if cert.verified_product_free else EXIT_NOT_FOUND


def cmd_verify(args) -> int:
    cert = ExtractionCertificate.load(args.certificate)
    x = _resolve_source(args.source, args.seed)
    ok, problems = verify_certificate(cert, x, budget=args.budget)
    if ok:
        _emit("PASS", None)
        return EXIT_OK
    _emit("\n".join(["FAIL"] + [f"  - {p}" for p in problems]), None)
    return EXIT_ERROR


def cmd_bench(args) -> int:
    def run_one(spec_text: str) -> list:
        t0 = time.perf_counter()
        try:
            x = _resolve_source(spec_text, args.seed)
            k = Fraction(len(product_set(x, x, budget=args.budget)), len(x))
            cert = _run_algorithm(
                args.algorithm,
                x,
                delta=args.delta,
                alpha=args.alpha,
                budget=args.budget,
            )
            ms = (time.perf_counter() - t0) * 1000.0
            return [
                spec_text,
                len(x),
                frac_str(k),
                args.algorithm,
                cert.achieved_size,
                frac_str(Fraction(cert.achieved_size, len(x))),
                frac_str(cert.guarantee) if cert.guarantee is not None else "",
                f"{ms:.2f}",
                "",
            ]
        except ProdfreeError as exc:
            ms = (time.perf_counter() - t0) * 1000.0
            return [
                spec_text,
                "",
                "",
                args.algorithm,
                "",
                "",
                "",
                f"{ms:.2f}",
                f"{type(exc).__name__}: {exc}",
            ]

    rows = [run_one(f) for f in args.families]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    writer.writerows(rows)
    _emit(buf.getvalue().rstrip("\n"), args.out)
    return EXIT_OK


def _fraction(text: str) -> Fraction:
    """p/q flag values; argparse only turns ValueError into a usage error,
    and Fraction raises ZeroDivisionError on a zero denominator."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=DEFAULT_PRODUCT_BUDGET,
                   help="pair budget for product sets and freeness checks")
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for random families without a seed= token")


def _add_profile(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=_fraction, default=Fraction(2, 5),
                   help="target density for the halving-step finder (p/q)")
    p.add_argument("--alpha", type=_fraction, default=Fraction(1, 2),
                   help="target shrink factor of the halving loop (p/q)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prodfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="doubling, covering, and freeness diagnostics")
    pa.add_argument("source", help="family spec, group spec, or file:PATH")
    pa.add_argument("--k", type=_fraction, default=None,
                    help="also decide k-approximate-group membership for this k")
    pa.add_argument("--side", choices=("left", "right", "two-sided"), default="left",
                    help="translate side for the covering search")
    _add_common(pa)

    pe = sub.add_parser("extract", help="run an extraction and emit a certificate")
    pe.add_argument("algorithm", choices=ALGORITHMS)
    pe.add_argument("source")
    _add_profile(pe)
    _add_common(pe)

    pv = sub.add_parser("verify", help="re-check a certificate against its input")
    pv.add_argument("certificate", help="certificate JSON path")
    pv.add_argument("source")
    _add_common(pv)

    pb = sub.add_parser("bench", help="CSV benchmark over families")
    pb.add_argument("families", nargs="+")
    pb.add_argument("--algorithm", choices=ALGORITHMS, default="thm33")
    _add_profile(pb)
    _add_common(pb)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call so
    that importing the module does not pay for it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "extract": cmd_extract,
        "verify": cmd_verify,
        "bench": cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except SearchExhaustedError as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (ProdfreeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
