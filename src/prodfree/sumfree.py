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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .certificates import ExtractionCertificate, build_certificate, require
from .errors import BudgetExceededError, InvariantViolationError, PreconditionError
from .groups import (
    ENUM_CAP,
    GroupOracle,
    SubnormalSeries,
    abelian_coords,
    build_group,
    cyclic_subgroups,
    quotient_projection,
)
from .sets import DEFAULT_PRODUCT_BUDGET, MultSet, frac_str, is_product_free

# density constant of the middle-third interval
SUMFREE_ALPHA = Fraction(1, 4)

INTERVAL_VERIFY_CAP = 10**4
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


def _embedding_rows(oracle: GroupOracle, keys) -> tuple[tuple[int, ...], np.ndarray]:
    """Live invariant factors ``moduli`` (descending, so ``moduli[0]`` is
    the exponent n) and the rows of the Z/n embedding for the given keys."""
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
    return tuple(moduli[i] for i in live), np.asarray(rows, dtype=np.int64)


def alon_kleitman_weighted(
    b: WeightedSet, *, budget: int = DEFAULT_PRODUCT_BUDGET
) -> MultSet:
    """Weighted sum-free extraction in a finite abelian group.

    Embeds the group into (Z/n)^s along its invariant factors m_1, ..., m_s
    (n = m_1 the exponent) and scans the characters c in
    Z/m_1 x ... x Z/m_s, keeping elements whose pairing
    lands in the middle-third interval of Z/n.  The average weight captured
    is at least a quarter of the total, so the scan cannot fail; it returns
    the first qualifying c in canonical (lexicographic) order, scanning
    batches that grow geometrically from 64 to 8192 characters.

    These are all |G| characters, and the first hit is the first hit of a
    scan over the whole of (Z/n)^s.  Since row i carries n / m_i, the
    pairing depends on c_i mod m_i only.  Reducing every coordinate of a
    hit therefore gives a hit that is no larger in any coordinate, so no
    later in lexicographic order.  The first hit in (Z/n)^s thus already
    lies in the product of the [0, m_i), and it is the first hit there.

    In an enumerated group (|G| <= ``ENUM_CAP``) the scan covers at most
    |G| characters and nothing cuts it short.  In a larger group the
    characters scanned times |B| count against *budget*, checked before
    each batch; past it the scan raises ``BudgetExceededError``.
    """
    oracle = b.base.oracle
    if oracle.order is None:
        raise PreconditionError("ambient group must be finite")
    if not oracle.abelian:
        raise PreconditionError("ambient group must be abelian")
    if len(b.base) == 0:
        raise PreconditionError("weighted set is empty")

    moduli, rows = _embedding_rows(oracle, b.base.keys)
    n = moduli[0]
    lo, hi = interval_bounds(n)
    member = np.zeros(n, dtype=bool)
    member[lo : hi + 1] = True
    weights = np.asarray(b.weights, dtype=np.int64)
    total_w = int(weights.sum())

    # batches double from _FIRST_BATCH to _BATCH: a scan that hits early
    # (often the first few characters) evaluates only a small batch
    space = math.prod(moduli)
    start, size = 0, _FIRST_BATCH
    while start < space:
        stop = min(start + size, space)
        pairs = stop * len(weights)
        if oracle.order > ENUM_CAP and pairs > budget:
            raise BudgetExceededError(
                f"character scan: {stop} characters x {len(weights)} elements = "
                f"{pairs} pairs exceed budget {budget}"
            )
        idx = np.arange(start, stop, dtype=np.int64)
        c_rows = np.stack(np.unravel_index(idx, moduli), axis=1)
        got = (weights * member[(c_rows @ rows.T) % n]).sum(axis=1)
        good = np.nonzero(4 * got >= total_w)[0]
        if good.size:
            keep = member[(rows @ c_rows[good[0]]) % n]
            return MultSet(oracle, (k for k, ok in zip(b.base.keys, keep) if ok))
        start = stop
        size = min(2 * size, _BATCH)
    raise InvariantViolationError("character scan found no quarter-weight set")


def solvable_extract(
    c: MultSet, series: SubnormalSeries, *, budget: int = DEFAULT_PRODUCT_BUDGET
) -> ExtractionCertificate:
    """Product-free extraction along a subnormal series with abelian factors.

    At each level, either at least half of the current set survives into
    the next subgroup (descend), or at least half sits outside it (push to
    the abelian quotient, extract there with fiber weights, pull back).
    Only that one quotient is built, by ``quotient_projection`` with all
    its checks.  Guarantees |C| / (4 * 2^n) elements for a series of
    exponent n.  *budget* bounds the witness's freeness check.
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
        lvl = series.levels[level]
        if level == len(series.levels) - 2:
            base = MultSet(lvl, cur)
            kept = alon_kleitman_weighted(WeightedSet.uniform(base))
            trace.append(
                require(
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
                require(
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
            require(
                f"quotient[{level}]",
                {"c": len(cur), "outside": len(outside)},
                "2 * outside >= c",
            )
        )
        quotient, key_map = quotient_projection(lvl, h_keys)
        fibers: dict = {}
        for k in outside:
            fibers.setdefault(key_map[k], []).append(k)
        base = MultSet(quotient, fibers.keys())
        weighted = WeightedSet(
            base, tuple(len(fibers[q]) for q in base.keys)
        )
        kept = alon_kleitman_weighted(weighted)
        witness_keys = {k for q in kept.keys for k in fibers[q]}
        trace.append(
            require(
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
        budget=budget,
    )
    if not cert.verified_product_free:
        raise InvariantViolationError("solvable extraction produced a bad witness")
    if cert.achieved_size < math.ceil(guarantee):
        raise InvariantViolationError(
            f"witness size {cert.achieved_size} below guaranteed "
            f"{frac_str(guarantee)}"
        )
    return cert
