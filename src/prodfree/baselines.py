"""Reference extractors: greedy scan and exact maximum search.

These are the independent yardsticks the structured algorithms are judged
against, so they only touch the raw oracle operations and keep their own
bookkeeping.  The exact search reads each of the n^2 products of its
input once, with raw ``kmul``, as a position in X, and turns the relations
a b = c it finds into one completion bitmask per pair of positions: the
elements that pair bars from a product-free set.  Its branch and bound then
carries a single int, the barred positions, so extending the set is a bit
test and a few ORs.
"""

from __future__ import annotations

from .errors import PreconditionError
from .sets import MultSet

EXHAUSTIVE_MAX_SIZE = 24


def greedy_product_free(x: MultSet) -> MultSet:
    """Scan in canonical order, keeping every element that stays product-free.

    The result is maximal: anything skipped was blocked by a subset of the
    final answer.
    """
    kmul = x.oracle.kmul
    members: set = set()
    products: set = set()  # every product of two members
    for k in x.keys:
        if k in products:
            continue
        new = [kmul(k, k)]
        for m in members:
            new += (kmul(k, m), kmul(m, k))
        if k in new or not members.isdisjoint(new):
            continue
        members.add(k)
        products.update(new)
    return MultSet(x.oracle, members)


def exhaustive_max_product_free(x: MultSet) -> MultSet:
    """Maximum-cardinality product-free subset by branch and bound.

    Deterministic: elements are considered in canonical order, including
    before excluding, and only strict improvements replace the incumbent,
    so ties resolve to the first maximum in depth-first order.  Bounded to
    inputs of size at most 24.
    """
    n = len(x)
    if n > EXHAUSTIVE_MAX_SIZE:
        raise PreconditionError(
            f"exhaustive search capped at {EXHAUSTIVE_MAX_SIZE} elements, got {n}"
        )
    keys = x.keys
    kmul = x.oracle.kmul
    where = {k: i for i, k in enumerate(keys)}
    # completion[p][q]: bit k is set when some relation a b = c among
    # {p, q, k} involves k, so k is barred once p and q are both chosen
    completion = [[0] * n for _ in range(n)]
    start = 0
    for a, ka in enumerate(keys):
        for b, kb in enumerate(keys):
            c = where.get(kmul(ka, kb))
            if c is None:
                continue
            if a == b == c:  # the identity: e e = e
                start |= 1 << a
            for k, p, q in ((a, b, c), (b, a, c), (c, a, b)):
                # the members of the relation other than k
                if p == k:
                    p = q
                elif q == k:
                    q = p
                completion[p][q] |= 1 << k
                completion[q][p] |= 1 << k

    everything = (1 << n) - 1
    best: list[int] = []
    chosen: list[int] = []

    def dfs(i: int, barred: int) -> None:
        nonlocal best
        open_ = (everything >> i << i) & ~barred  # positions i.. still allowed
        if len(chosen) + open_.bit_count() <= len(best):
            return
        if not open_:
            best = list(chosen)
            return
        # barred positions can only be left out: go to the next open one
        i = (open_ & -open_).bit_length() - 1
        row = completion[i]
        grown = row[i]
        for b in chosen:
            grown |= row[b]
        chosen.append(i)
        dfs(i + 1, barred | grown)
        chosen.pop()
        dfs(i + 1, barred)

    dfs(0, start)
    return MultSet(x.oracle, [keys[i] for i in best])
