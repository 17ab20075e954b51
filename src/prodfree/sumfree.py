"""Sum-free extraction in abelian and solvable ambient groups.

Three layers, each feeding the next:

* a middle-third interval in Z/n that every nonzero subgroup meets in at
  least a quarter of its points,
* a weighted extraction in any finite abelian group, derandomised by
  scanning homomorphisms to Z/n over the invariant-factor coordinates,
* a recursion along a subnormal series with abelian factors that reduces
  the general solvable case to the weighted abelian one.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .certificates import ExtractionCertificate, build_certificate, record
from .errors import (
    InvariantViolationError,
    PreconditionError,
    SearchExhaustedError,
)
from .groups import GroupOracle, SubnormalSeries, abelian_coords, build_group, cyclic_subgroups
from .sets import MultSet, frac_str, is_product_free

# density constant of the middle-third interval
SUMFREE_ALPHA = Fraction(1, 4)

INTERVAL_VERIFY_CAP = 10**4
SEARCH_EXHAUSTIVE_CAP = 10**7
SEARCH_SAMPLE_COUNT = 10**5
_FIRST_BATCH = 64
_BATCH = 8192


def interval_bounds(n: int) -> tuple[int, int]:
    """Inclusive endpoints of the middle-third interval in Z/n."""
    return n // 3 + 1, (2 * n) // 3


def cyclic_interval(n: int) -> MultSet:
    """The middle-third interval in Z/n: sum-free, and dense in subgroups.

    For n <= 10^4 the construction re-verifies itself exhaustively: no sum
    of two interval points lands in the interval, and every nonzero
    subgroup K satisfies 4 |K meet I| >= |K|.
    """
    if n < 2:
        raise PreconditionError(f"cyclic interval needs n >= 2, got {n}")
    lo, hi = interval_bounds(n)
    oracle = build_group(f"cyclic:{n}")
    result = MultSet(oracle, range(lo, hi + 1))

    if n <= INTERVAL_VERIFY_CAP:
        if not is_product_free(result, budget=len(result) ** 2):
            raise InvariantViolationError(f"interval in Z/{n} is not sum-free")
        for sub in cyclic_subgroups(oracle)[1:]:  # skip the zero subgroup
            hits = sum(1 for el in sub if lo <= el.key <= hi)
            if 4 * hits < len(sub):
                raise InvariantViolationError(
                    f"subgroup of order {len(sub)} meets the interval "
                    f"only {hits} times in Z/{n}"
                )
    return result


@dataclass(frozen=True)
class WeightedSet:
    """A set with positive integer weights, aligned with canonical order."""

    base: MultSet
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.base):
            raise PreconditionError("weights misaligned with base set")
        if any(w < 1 or w != int(w) for w in self.weights):
            raise PreconditionError("weights must be integers >= 1")
        if self.base.oracle.identity_key in self.base.key_set():
            raise PreconditionError("identity cannot carry weight")

    @classmethod
    def from_mapping(cls, oracle: GroupOracle, mapping: dict) -> "WeightedSet":
        keys = {
            (k.key if hasattr(k, "key") else k): int(w) for k, w in mapping.items()
        }
        base = MultSet(oracle, keys)
        return cls(base, tuple(keys[k] for k in base.keys))

    @classmethod
    def uniform(cls, base: MultSet) -> "WeightedSet":
        return cls(base, (1,) * len(base))

    @property
    def total(self) -> int:
        return sum(self.weights)

    def weight_of_keys(self, keys: Iterable) -> int:
        lookup = dict(zip(self.base.keys, self.weights))
        return sum(lookup[k] for k in keys)


def _embedding_rows(oracle: GroupOracle, keys) -> tuple[int, np.ndarray]:
    """Rows of the Z/n embedding for the given keys; n is the exponent."""
    moduli, lookup = abelian_coords(oracle)
    live = [i for i, m in enumerate(moduli) if m > 1]
    if not live:
        raise PreconditionError("ambient group is trivial")
    n = moduli[0]
    rows = []
    for k in keys:
        vec = lookup(k)
        row = [(vec[i] * (n // moduli[i])) % n for i in live]
        if not any(row):
            raise InvariantViolationError(
                "nonzero element embedded to zero; coordinates are broken"
            )
        rows.append(row)
    return n, np.asarray(rows, dtype=np.int64)


def _weighted_seed(b: WeightedSet) -> int:
    text = "\n".join(
        [b.base.oracle.domain]
        + [f"{b.base.oracle.kencode(k)}={w}" for k, w in zip(b.base.keys, b.weights)]
    )
    return int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)


def alon_kleitman_weighted(
    b: WeightedSet,
    *,
    exhaustive_cap: int = SEARCH_EXHAUSTIVE_CAP,
    sample_count: int = SEARCH_SAMPLE_COUNT,
) -> MultSet:
    """Weighted sum-free extraction in a finite abelian group.

    Embeds the group into (Z/n)^s along its invariant factors and scans
    characters c there, keeping elements whose pairing lands in the
    middle-third interval of Z/n.  The average weight captured is at least
    a quarter of the total, so the exhaustive scan cannot fail; it returns
    the first qualifying c in canonical order, scanning batches that grow
    geometrically from 64 to 8192 characters.  When the scan space
    exceeds *exhaustive_cap* the search samples *sample_count* characters
    from a digest-seeded generator and errors honestly on a miss.
    """
    oracle = b.base.oracle
    if oracle.order is None:
        raise PreconditionError("ambient group must be finite")
    if not oracle.abelian:
        raise PreconditionError("ambient group must be abelian")
    if len(b.base) == 0:
        raise PreconditionError("weighted set is empty")

    n, rows = _embedding_rows(oracle, b.base.keys)
    s = rows.shape[1]
    lo, hi = interval_bounds(n)
    member = np.zeros(n, dtype=bool)
    member[lo : hi + 1] = True
    weights = np.asarray(b.weights, dtype=np.int64)
    total_w = int(weights.sum())

    def qualify(c_rows: np.ndarray) -> np.ndarray:
        f_vals = (c_rows @ rows.T) % n
        return (weights * member[f_vals]).sum(axis=1)

    space = n**s
    if space <= exhaustive_cap:
        # batches double from _FIRST_BATCH to _BATCH: a scan that hits early
        # (often the first few characters) evaluates only a small batch
        start, size = 0, _FIRST_BATCH
        while start < space:
            idx = np.arange(start, min(start + size, space), dtype=np.int64)
            c_rows = np.stack(np.unravel_index(idx, (n,) * s), axis=1)
            got = qualify(c_rows)
            good = np.nonzero(4 * got >= total_w)[0]
            if good.size:
                c = c_rows[good[0]]
                break
            start += size
            size = min(2 * size, _BATCH)
        else:
            raise InvariantViolationError(
                "exhaustive character scan found no quarter-weight set"
            )
    else:
        rng = np.random.Generator(np.random.Philox(key=_weighted_seed(b)))
        best_w = -1
        best_c = None
        remaining = sample_count
        while remaining > 0:
            take = min(_BATCH, remaining)
            c_rows = rng.integers(0, n, size=(take, s), dtype=np.int64)
            got = qualify(c_rows)
            j = int(np.argmax(got))
            if int(got[j]) > best_w:
                best_w = int(got[j])
                best_c = c_rows[j]
            remaining -= take
        if best_c is None or 4 * best_w < total_w:
            raise SearchExhaustedError(
                f"sampled {sample_count} characters, best weight {best_w} "
                f"of {total_w} misses the quarter bound"
            )
        c = best_c

    f_vals = (rows @ c) % n
    keep = member[f_vals]
    return MultSet(oracle, (k for k, ok in zip(b.base.keys, keep) if ok))


def solvable_extract(c: MultSet, series: SubnormalSeries) -> ExtractionCertificate:
    """Product-free extraction along a subnormal series with abelian factors.

    At each level, either at least half of the current set survives into
    the next subgroup (descend), or at least half sits outside it (push to
    the abelian quotient, extract there with fiber weights, pull back).
    Guarantees |C| / (4 * 2^n) elements for a series of exponent n.
    """
    top = series.levels[0]
    if c.oracle.domain != top.domain:
        raise PreconditionError("set does not live in the series' top group")
    if not set(c.keys) <= set(top.enum_keys):
        raise PreconditionError("set escapes the series' top group")
    if len(c) == 0:
        raise PreconditionError("cannot extract from the empty set")
    if top.identity_key in c.key_set():
        raise PreconditionError("the identity can never join a product-free set")

    n_exp = series.exponent
    trace = []
    cur = set(c.keys)
    level = 0
    witness_keys: set = set()
    while True:
        steps_left = len(series.steps) - level
        lvl = series.levels[level]
        if steps_left == 1:
            base = MultSet(lvl, cur)
            kept = alon_kleitman_weighted(WeightedSet.uniform(base))
            trace.append(
                record(
                    f"abelian-base[{level}]",
                    {"c": len(cur), "a": len(kept)},
                    "4 * a >= c",
                )
            )
            witness_keys = set(kept.keys)
            break
        h_keys = set(series.levels[level + 1].enum_keys)
        inside = cur & h_keys
        if 2 * len(inside) >= len(cur):
            trace.append(
                record(
                    f"descend[{level}]",
                    {"c": len(cur), "ch": len(inside)},
                    "2 * ch >= c",
                )
            )
            cur = inside
            level += 1
            continue
        outside = cur - h_keys
        trace.append(
            record(
                f"quotient[{level}]",
                {"c": len(cur), "outside": len(outside)},
                "2 * outside >= c",
            )
        )
        step = series.steps[level]
        fibers: dict = {}
        for k in outside:
            fibers.setdefault(step.project.key_map[k], []).append(k)
        base = MultSet(step.quotient, fibers.keys())
        weighted = WeightedSet(
            base, tuple(len(fibers[q]) for q in base.keys)
        )
        kept = alon_kleitman_weighted(weighted)
        witness_keys = {k for q in kept.keys for k in fibers[q]}
        trace.append(
            record(
                f"weighted[{level}]",
                {"w_total": len(outside), "w_kept": len(witness_keys)},
                "4 * w_kept >= w_total",
            )
        )
        break

    witness = MultSet(c.oracle, witness_keys)
    guarantee = Fraction(len(c), 4 * 2**n_exp)
    cert = build_certificate(
        c,
        "solvable",
        {
            "series_exponent": str(n_exp),
            "alpha": frac_str(SUMFREE_ALPHA),
        },
        witness,
        guarantee,
        trace,
    )
    if not cert.verified_product_free:
        raise InvariantViolationError("solvable extraction produced a bad witness")
    if cert.achieved_size < math.ceil(guarantee):
        raise InvariantViolationError(
            f"witness size {cert.achieved_size} below guaranteed "
            f"{frac_str(guarantee)}"
        )
    return cert
