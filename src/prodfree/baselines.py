"""Reference extractors: greedy scan and exact maximum search.

These are the independent yardsticks the structured algorithms are judged
against, so they only touch the raw oracle operations and keep their own
bookkeeping.
"""

from __future__ import annotations

from .errors import PreconditionError
from .sets import MultSet

EXHAUSTIVE_MAX_SIZE = 24


class _PartialSet:
    """Product-free subset under construction, with O(|S|) extension checks."""

    def __init__(self, oracle):
        self.kmul = oracle.kmul
        self.members: set = set()
        self.pair_products: set = set()

    def can_add(self, k) -> bool:
        kmul = self.kmul
        if k in self.pair_products:
            return False
        new = self.members | {k}
        if kmul(k, k) in new:
            return False
        for m in self.members:
            if kmul(k, m) in new or kmul(m, k) in new:
                return False
        return True

    def add(self, k) -> None:
        kmul = self.kmul
        added = [kmul(k, k)]
        for m in self.members:
            added.append(kmul(k, m))
            added.append(kmul(m, k))
        self.members.add(k)
        self.pair_products.update(added)


def greedy_product_free(x: MultSet) -> MultSet:
    """Scan in canonical order, keeping every element that stays product-free.

    The result is maximal: anything skipped was blocked by a subset of the
    final answer.
    """
    partial = _PartialSet(x.oracle)
    chosen = []
    for k in x.keys:
        if partial.can_add(k):
            partial.add(k)
            chosen.append(k)
    return MultSet(x.oracle, chosen)


def exhaustive_max_product_free(x: MultSet) -> MultSet:
    """Maximum-cardinality product-free subset by branch and bound.

    Deterministic: elements are considered in canonical order and only
    strict improvements replace the incumbent, so ties resolve to the
    first maximum in depth-first order.  Bounded to inputs of size at most
    24.
    """
    n = len(x)
    if n > EXHAUSTIVE_MAX_SIZE:
        raise PreconditionError(
            f"exhaustive search capped at {EXHAUSTIVE_MAX_SIZE} elements, got {n}"
        )
    if n == 0:
        return MultSet(x.oracle, ())

    keys = list(x.keys)
    best = list(greedy_product_free(x).keys)

    partial = _PartialSet(x.oracle)
    chosen: list = []

    def dfs(i: int) -> None:
        nonlocal best
        if len(chosen) + (n - i) <= len(best):
            return
        if i == n:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        k = keys[i]
        if partial.can_add(k):
            snapshot_members = set(partial.members)
            snapshot_products = set(partial.pair_products)
            partial.add(k)
            chosen.append(k)
            dfs(i + 1)
            chosen.pop()
            partial.members = snapshot_members
            partial.pair_products = snapshot_products
        dfs(i + 1)

    dfs(0)
    return MultSet(x.oracle, best)
