"""Iterated halving, triple localization, and the coset-pigeonhole extraction.

The chain of stages, each consuming the previous one's output:

* ``petridis_subset``: from a set of doubling k, a subset with tripling at
  most k^3 and at least a 1/k fraction of the points,
* ``seh_halving``: iterated density splitting until the triple product of
  three nested subsets drops below alpha |Y|; each step takes
  ``find_homogeneous_tuple``'s one candidate, the low/high split of the
  current triple's canonical keys,
* ``localize_small_triple``: a bucket argument turning the small triple
  product into one set Z with |Z^-1 Z Z^-1| <= |Y| / 2,
* ``product_free_extract``: a final pigeonhole over shifts g of Z picking
  a product-free gZ whose intersection with Y is the witness.

Each bound is read off a product set the previous stage already holds, so
every product is computed once and handed down: ``product_free_extract``
passes X^2 to ``petridis_subset``, which returns Y and Y^3; Y^3 goes to
``seh_halving``, whose steps take the finder's product of the chosen
triple and whose result carries the final UVW; UVW goes to
``localize_small_triple``.

Every bound the certificate reports is checked once, where it is proven:
each stage returns the trace records it checked, and a record made by
``certificates.require`` raises InvariantViolationError when its
inequality fails, for such a bound is a theorem.  The two Petridis records
are made by ``_petridis_bounds``, which ``petridis_subset`` evaluates with
``record`` to judge each candidate and ``product_free_extract`` appends
with ``require``.  Bounds that depend on honest search (the non-abelian
tripling subset, the halving split) raise SearchExhaustedError saying why,
and the pigeonhole's size bound, the one bound left in the trace by a
plain ``record``, ends the run in StageFailedError when it fails.

The trace is the only copy of each checked size: the stage results carry
the sets, and each inequality is written once, in its record.  A branch
taken on a bound (the singleton branch, the halving loop's stop, the
pigeonhole) reads its record's ``holds``; it never restates the inequality.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certificates import TraceRecord, build_certificate, input_digest, record, require
from .errors import (
    BudgetExceededError,
    DomainMismatchError,
    InvariantViolationError,
    PreconditionError,
    SearchExhaustedError,
    StageFailedError,
)
from .groups import Element, GroupOracle
from .sets import (
    DEFAULT_PRODUCT_BUDGET,
    MultSet,
    _product_counts,
    _shared,
    frac_str,
    inverse_set,
    is_product_free,
    power_set,
    product_set,
    triple_product,
)

PETRIDIS_MOVE_BUDGET = 10**4


@dataclass(frozen=True)
class BoundsProfile:
    """The constant chain driving the halving loop and the final bound.

    delta is the density the tuple finder is asked to achieve, alpha the
    target shrink factor of the halving loop.  The derived constants feed
    the final guarantee eps2 |X| / k^c2.
    """

    delta: Fraction
    alpha: Fraction
    c0: float
    eps0: float
    c1: float
    eps1: float
    c2: float
    eps2: float


def compute_bounds_profile(delta, alpha) -> BoundsProfile:
    delta = Fraction(delta)
    alpha = Fraction(alpha)
    if not 0 < delta < 1:
        raise PreconditionError(f"delta must lie in (0,1), got {delta}")
    if not 0 < alpha < 1:
        raise PreconditionError(f"alpha must lie in (0,1), got {alpha}")
    c0 = math.log2(delta.denominator) - math.log2(delta.numerator)
    eps0 = float(delta) * float(alpha) ** c0
    c1 = 3.0 * c0
    eps1 = 4.0 * eps0**3
    c2 = 3.0 * c1 + 4.0
    eps2 = min(eps1 / 2.0, 1.0 / 16.0)
    for name, val in (("eps0", eps0), ("eps1", eps1), ("eps2", eps2)):
        if not 0.0 < val < 1.0:
            raise InvariantViolationError(f"{name} = {val} escaped (0,1)")
    return BoundsProfile(delta, alpha, c0, eps0, c1, eps1, c2, eps2)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _petridis_bounds(
    check, x: MultSet, y: MultSet, y3: MultSet, k: Fraction
) -> list[TraceRecord]:
    """The two Petridis bounds |Y| >= |X|/k and |Y^3| <= k^3 |Y|, as the
    records ``petridis-size`` and ``petridis-tripling`` made by *check*:
    ``record`` judges a candidate Y, ``require`` certifies the chosen one."""
    return [
        check(
            "petridis-size",
            {"x": len(x), "y": len(y)},
            f"y * {k.numerator} >= x * {k.denominator}",
        ),
        check(
            "petridis-tripling",
            {"y": len(y), "y3": len(y3)},
            f"y3 * {k.denominator ** 3} <= {k.numerator ** 3} * y",
        ),
    ]


def petridis_subset(
    x: MultSet, x2: MultSet, k, *, budget: int = DEFAULT_PRODUCT_BUDGET
) -> tuple[MultSet, MultSet]:
    """A subset Y of X with |Y| >= |X|/k and |Y^3| <= k^3 |Y|, given X^2.

    Returns Y and the Y^3 it was judged on (X^2 X when Y = X).

    In an abelian group Y = X always qualifies: |Y| = |X| >= |X|/k, and
    the Plunnecke-Ruzsa inequality |X^3| <= (|X^2|/|X|)^3 |X| <= k^3 |X|
    is a theorem (Petridis, "New proofs of Plunnecke-type estimates for
    product sets in groups", 2012, gives a short proof).  A failure there
    raises InvariantViolationError.  Only non-abelian groups search, by a
    local search seeded from X's input digest that returns only a
    qualifying subset.  Existence is a theorem whenever |X^2| <= k |X|, but
    the search is not complete, so a miss raises SearchExhaustedError
    rather than pretending.
    """
    k = Fraction(k)
    if k < 1:
        raise PreconditionError(f"doubling parameter must be >= 1, got {k}")
    if len(x) == 0:
        raise PreconditionError("cannot take a subset of the empty set")
    if len(x2) * k.denominator > k.numerator * len(x):
        raise PreconditionError(
            f"|X^2| = {len(x2)} exceeds k |X| = {k} * {len(x)}"
        )
    min_size = _ceil_div(len(x) * k.denominator, k.numerator)

    def qualifies(y: MultSet, y3: MultSet) -> bool:
        return all(r.holds for r in _petridis_bounds(record, x, y, y3, k))

    x3 = product_set(x2, x, budget=budget)
    if qualifies(x, x3):
        return x, x3
    if x.oracle.abelian:
        raise InvariantViolationError(
            f"|X^3| = {len(x3)} exceeds k^3 |X| = {k}^3 * {len(x)} in an abelian group"
        )

    rng = np.random.Generator(np.random.Philox(key=int(input_digest(x)[:16], 16)))
    current = list(x.keys)
    cur_ratio = Fraction(len(x3), len(x))
    for _ in range(PETRIDIS_MOVE_BUDGET):
        removable = len(current) > min_size
        grow = len(current) < len(x) and (not removable or rng.integers(4) == 0)
        if grow:
            absent = sorted(set(x.keys) - set(current))
            cand = current + [absent[int(rng.integers(len(absent)))]]
        else:
            drop = int(rng.integers(len(current)))
            cand = current[:drop] + current[drop + 1 :]
        y = MultSet(x.oracle, cand)
        try:
            y3 = power_set(y, 3, budget=budget)
        except BudgetExceededError:
            continue
        ratio = Fraction(len(y3), len(y))
        if ratio <= cur_ratio:
            current, cur_ratio = cand, ratio
            if qualifies(y, y3):
                return y, y3
    raise SearchExhaustedError(
        f"local search exhausted {PETRIDIS_MOVE_BUDGET} moves without a "
        f"subset meeting tripling {k}^3"
    )


@dataclass(frozen=True)
class HomogeneousTuple:
    """The low and the high parts of one triple, whose triple products do
    not meet."""

    u_parts: tuple[MultSet, MultSet, MultSet]  # the low parts
    v_parts: tuple[MultSet, MultSet, MultSet]  # the high parts
    u_product: MultSet  # (u1 u2) u3
    v_product: MultSet  # (v1 v2) v3

    def chosen(self) -> tuple[MultSet, MultSet, MultSet]:
        """The parts whose triple product is smaller, ties going to u."""
        return self.u_parts if len(self.u_product) <= len(self.v_product) else self.v_parts

    def chosen_product(self) -> MultSet:
        return min(self.u_product, self.v_product, key=len)


def find_homogeneous_tuple(
    u: MultSet,
    v: MultSet,
    w: MultSet,
    target_delta,
    *,
    pair_budget: int = DEFAULT_PRODUCT_BUDGET,
) -> HomogeneousTuple:
    """Two sub-triples of (u, v, w), each part of density >= target_delta
    and size >= 2, whose triple products are disjoint (verified directly).

    One candidate, in every group: the low/high split.  Each low part is
    the first max(2, ceil(delta |s|)) canonical keys of its input s, each
    high part the last as many.  In the integers this gives the low product
    the least maximum and the high product the greatest minimum that parts
    of these sizes can have, so if any choice of parts puts one product
    wholly below the other, this one does.  In other groups key order
    carries no such meaning and the split is simply the one candidate
    tried.  A repeated input gives one low and one high part, so the
    halving's triples, which start from (Y, Y, Y), stay one set three
    times.  Both triple products come from :func:`sets.triple_product`, one
    FFT over the parts, one transform per distinct part, where their first
    product takes a grid.  The exact disjointness check alone accepts the
    split, so correctness never rests on how it was chosen.  A miss raises SearchExhaustedError saying
    why: the two triple products share elements (how many), or the pair
    budget stopped a product.
    """
    inputs = (u, v, w)
    oracle = u.oracle
    for s in inputs:
        if s.oracle.domain != oracle.domain:
            raise DomainMismatchError("all three inputs must share a group")
        if len(s) < 2:
            raise PreconditionError("every input needs at least 2 elements")
    delta = Fraction(target_delta)
    if not 0 < delta < 1:
        raise PreconditionError(f"target density must lie in (0,1), got {delta}")

    def need(s: MultSet) -> int:
        return max(2, _ceil_div(len(s) * delta.numerator, delta.denominator))

    low = tuple(_shared(lambda s: MultSet._from_sorted(oracle, s.keys[: need(s)]), inputs))
    high = tuple(_shared(lambda s: MultSet._from_sorted(oracle, s.keys[-need(s) :]), inputs))
    miss = f"no homogeneous tuple of density {delta}: the low/high split"
    try:
        up, vp = [triple_product(a, b, c, budget=pair_budget) for a, b, c in (low, high)]
    except BudgetExceededError as exc:
        raise SearchExhaustedError(f"{miss} stopped at the pair budget: {exc}") from exc
    shared = len(up.key_set() & vp.key_set())
    if shared:
        raise SearchExhaustedError(f"{miss}'s triple products share {shared} elements")
    return HomogeneousTuple(low, high, up, vp)


@dataclass(frozen=True)
class SehStage:
    u: MultSet
    v: MultSet
    w: MultSet


@dataclass(frozen=True)
class SehHalvingResult:
    u: MultSet
    v: MultSet
    w: MultSet
    uvw: MultSet  # (U V) W, the product the last stage was judged on
    stages: tuple[SehStage, ...]
    trace: tuple[TraceRecord, ...]  # the halving records, each checked


def seh_halving(
    y: MultSet,
    y3: MultSet,
    alpha=Fraction(1, 2),
    finder_delta=Fraction(1, 2),
    *,
    budget: int = DEFAULT_PRODUCT_BUDGET,
) -> SehHalvingResult:
    """Nested triples U, V, W inside Y with |UVW| <= alpha |Y|, given Y^3.

    Starts from U = V = W = Y and repeatedly replaces the triple by a
    denser-than-delta sub-triple whose product is at most half the
    previous one.  Each step checks three invariants on the product the
    finder computed for the chosen triple: containment in the previous
    triple, size at least delta times the previous size, and product at
    most half the previous product, the step's ``halving-i`` record.
    When the planned number of steps would push sizes below 2, a two-point
    triple is returned instead, whose product has at most 8 <= alpha |Y|
    points (``halving-fallback``).  Either way ``halving-final`` records
    |UVW| <= alpha |Y|.  The result carries the final product UVW.
    """
    alpha = Fraction(alpha)
    delta = Fraction(finder_delta)
    compute_bounds_profile(delta, alpha)  # rejects delta, alpha outside (0, 1)
    if len(y) * alpha.numerator < 8 * alpha.denominator:
        raise PreconditionError(
            f"need |Y| >= 8/alpha = {Fraction(8 * alpha.denominator, alpha.numerator)}, "
            f"got {len(y)}"
        )
    ratio_num = len(y3) * alpha.denominator
    ratio_den = alpha.numerator * len(y)
    t = 0
    while (ratio_den << t) < ratio_num:
        t += 1
    stages = [SehStage(y, y, y)]

    def final(uvw: MultSet, check=record) -> TraceRecord:
        return check(
            "halving-final",
            {"uvw": len(uvw), "y": len(y)},
            f"uvw * {alpha.denominator} <= {alpha.numerator} * y",
        )

    if t >= 1 and 2 * delta.denominator ** (t - 1) > delta.numerator ** (t - 1) * len(y):
        small = MultSet(y.oracle, y.keys[:2])
        prod = power_set(small, 3, budget=budget)
        trace = (
            require("halving-fallback", {"uvw": len(prod), "y": len(y)}, "uvw <= 8"),
            final(prod, require),
        )
        stages.append(SehStage(small, small, small))
        return SehHalvingResult(small, small, small, prod, tuple(stages), trace)

    u = v = w = y
    cur = y3
    trace = []
    while not (done := final(cur)).holds:
        if len(stages) > t:
            raise InvariantViolationError("halving exceeded its planned step count")
        tup = find_homogeneous_tuple(u, v, w, delta, pair_budget=budget)
        nu, nv, nw = tup.chosen()
        nxt = tup.chosen_product()
        for new, old in ((nu, u), (nv, v), (nw, w)):
            if not new.key_set() <= old.key_set():
                raise InvariantViolationError("halving step escaped containment")
            if len(new) * delta.denominator < delta.numerator * len(old):
                raise InvariantViolationError("halving step lost its density bound")
        trace.append(
            require(
                f"halving-{len(stages)}",
                {"prev": len(cur), "next": len(nxt)},
                "2 * next <= prev",
            )
        )
        u, v, w, cur = nu, nv, nw, nxt
        stages.append(SehStage(u, v, w))
    trace.append(done)
    return SehHalvingResult(u, v, w, cur, tuple(stages), tuple(trace))


@dataclass(frozen=True)
class LocalizeResult:
    z: MultSet
    g: Element
    h: Element
    zzz: MultSet  # Z^-1 Z Z^-1
    trace: tuple[TraceRecord, ...]  # the localize records, each checked


def _bucket_best(
    oracle: GroupOracle, u: MultSet, v: MultSet, w: MultSet
) -> tuple[object, object, int, int]:
    """Largest bucket (g, h) of the triples (u, z, w) in U x V x W, bucketed
    by (u z, z w), with the least (g, h) among ties: g, h, its count, and
    the total count over all buckets.

    In an abelian group every triple in bucket (g, h) has
    w u^-1 = h g^-1 = d.  With P_d = U meet W d^-1, the bucket (g, g d)
    holds one triple per pair (u, z) in P_d x V with u z = g, so at most
    |P_d|.  One count of W U^-1 (:func:`sets._product_counts`: sorted
    classes d and their sizes) gives every |P_d|, and the total is
    sum_d |P_d| |V| = |U||V||W|.  One stable argsort of the negated sizes
    visits the classes by decreasing |P_d|, ties by increasing d, and the
    visit stops at the first |P_d| below the best count, not at one equal
    to it: that class may still tie with a smaller (g, h).  In each class
    the count of P_d V names g, its largest count's least key.  Other
    groups count the bucket of every triple; their total is |U||V||W| by
    cancellation.
    """
    kmul = oracle.kmul
    if oracle.abelian:
        classes, sizes = _product_counts(w, inverse_set(u))
        best = None  # (-count, g, h)
        for i in np.argsort(-sizes, kind="stable").tolist():
            if best is not None and sizes[i] < -best[0]:
                break
            d = classes.item(i)
            d_inv = oracle.kinv(d)
            p = u.restrict(kmul(wk, d_inv) for wk in w.keys)
            keys, counts = _product_counts(p, v)
            j = int(np.argmax(counts))
            g = keys.item(j)
            cand = (-int(counts[j]), g, kmul(g, d))
            best = cand if best is None else min(best, cand)
        return best[1], best[2], -best[0], int(sizes.sum()) * len(v)
    buckets: Counter = Counter()
    for zk in v.keys:
        gs = [kmul(uk, zk) for uk in u.keys]
        hs = [kmul(zk, wk) for wk in w.keys]
        buckets.update((g, h) for g in gs for h in hs)
    total = sum(buckets.values())
    best_count = max(buckets.values())
    g, h = min(gh for gh, c in buckets.items() if c == best_count)
    return g, h, best_count, total


def localize_small_triple(
    y: MultSet,
    u: MultSet,
    v: MultSet,
    w: MultSet,
    uvw: MultSet,
    *,
    budget: int = DEFAULT_PRODUCT_BUDGET,
) -> LocalizeResult:
    """The largest Z(g,h) = U^-1 g  meet  V  meet  h W^-1 over g, h, given
    the product UVW = (U V) W.

    Requires |UVW| <= |Y|/2.  Validates the exact counting identity
    sum |Z(g,h)| = |U||V||W| (``localize-count``), the averaging bound
    |Z| >= 4 |U||V||W| / |Y|^2 (``localize-density``), and
    |Z^-1 Z Z^-1| <= |UVW| <= |Y|/2 (``localize-compress``).
    Ties between equally large buckets resolve to the least (g, h).
    """
    oracle = y.oracle
    for s in (u, v, w):
        if s.oracle.domain != oracle.domain:
            raise DomainMismatchError("U, V, W must live in Y's group")
        if len(s) == 0:
            raise PreconditionError("U, V, W must be nonempty")
        if not s.key_set() <= y.key_set():
            raise PreconditionError("U, V, W must sit inside Y")
    if 2 * len(uvw) > len(y):
        raise PreconditionError(
            f"|UVW| = {len(uvw)} exceeds |Y|/2 = {len(y)}/2"
        )

    g, h, best_count, total = _bucket_best(oracle, u, v, w)
    uvw_sizes = {"u": len(u), "v": len(v), "w": len(w)}
    trace = [
        require("localize-count", {"pair_sum": total, **uvw_sizes}, "pair_sum == u * v * w")
    ]

    kmul, kinv = oracle.kmul, oracle.kinv
    u_set, w_set = u.key_set(), w.key_set()
    z_keys = [
        zk
        for zk in v.keys
        if kmul(g, kinv(zk)) in u_set and kmul(kinv(zk), h) in w_set
    ]
    if len(z_keys) != best_count:
        raise InvariantViolationError("bucket reconstruction mismatch")
    z = MultSet(oracle, z_keys)

    trace.append(
        require(
            "localize-density",
            {"z": len(z), "y": len(y), **uvw_sizes},
            "z * y * y >= 4 * u * v * w",
        )
    )
    z_inv = inverse_set(z)
    zzz = triple_product(z_inv, z, z_inv, budget=budget)
    if len(zzz) > len(uvw):
        raise InvariantViolationError("|Z^-1 Z Z^-1| exceeded |UVW|")
    trace.append(require("localize-compress", {"zzz": len(zzz), "y": len(y)}, "2 * zzz <= y"))
    g_el, h_el = Element(oracle.domain, g), Element(oracle.domain, h)
    return LocalizeResult(z, g_el, h_el, zzz, tuple(trace))


def _pigeonhole_shift(y: MultSet, z: MultSet, zzz: MultSet) -> tuple[object, int]:
    """The shift g outside Z^-1 Z Z^-1 whose translate g Z meets Y most, the
    least such g on ties, and that count |Y meet g Z|.

    |Y meet g Z| is the number of pairs in Y x Z^-1 with product g, so one
    count of Y Z^-1 (:func:`sets._product_counts`, sorted products) holds
    every bucket; one binary search of Z^-1 Z Z^-1's sorted keys masks out
    the shifts inside it, as ``sets._incident_count`` reads X's, and
    ``argmax`` takes the largest count's least key.  No budget here:
    |Y||Z| <= |Y|^2, the pairs of Y^3's first product."""
    keys, counts = _product_counts(y, inverse_set(z))
    inside = np.fromiter(zzz.keys, dtype=keys.dtype, count=len(zzz))
    at = np.minimum(np.searchsorted(inside, keys), len(inside) - 1)
    outside = np.flatnonzero(inside[at] != keys)
    if not len(outside):
        raise InvariantViolationError("every shift bucket fell inside Z^-1 Z Z^-1")
    i = outside[np.argmax(counts[outside])]
    return keys.item(i), int(counts[i])


def _theorem_guarantee(profile: BoundsProfile, x_size: int, k: Fraction) -> Fraction:
    val = profile.eps2 * x_size / float(k) ** profile.c2
    return Fraction(math.floor(val * 10**9), 10**9)


def product_free_extract(
    x: MultSet,
    profile: BoundsProfile | None = None,
    *,
    budget: int = DEFAULT_PRODUCT_BUDGET,
):
    """End-to-end product-free extraction with a certificate.

    With k = |X^2|/|X|: sets with |X| < 16k get a singleton witness (the
    least non-identity element); otherwise the full chain runs and the
    witness is the largest Y meet gZ over admissible shifts g.  The trace
    joins the records each stage checked.  A stage that fails its search,
    or a pigeonhole bucket below |Z|/(2 k^3), raises StageFailedError
    carrying the partial certificate.
    """
    oracle = x.oracle
    if len(x) == 0:
        raise PreconditionError("cannot extract from the empty set")
    if x.keys == (oracle.identity_key,):
        raise PreconditionError("the one-point set at the identity has no product-free subset")
    if profile is None:
        # delta = 1/2 is infeasible on arithmetic progressions: two triple
        # products of ceil(s/2)-subsets cannot be disjoint inside a window
        # of 3s - 2 sums.  2/5 keeps the low/high split workable.
        profile = compute_bounds_profile(Fraction(2, 5), Fraction(1, 2))

    x2 = product_set(x, x, budget=budget)
    k = Fraction(len(x2), len(x))
    params = {
        "delta": frac_str(profile.delta),
        "alpha": frac_str(profile.alpha),
        "k": frac_str(k),
    }
    guarantee = _theorem_guarantee(profile, len(x), k)

    singleton = record("singleton-branch", {"x": len(x), "x2": len(x2)}, "x * x < 16 * x2")
    if singleton.holds:
        trace = [singleton]
        zk = next(kk for kk in x.keys if kk != oracle.identity_key)
        witness = MultSet(oracle, (zk,))
        claimed = guarantee if 1 >= math.ceil(guarantee) else None
        return build_certificate(
            x, "thm33", {**params, "branch": "singleton"}, witness, claimed, trace,
            budget=budget,
        )

    trace = []

    def partial(stage: str, witness: MultSet):
        status = {"branch": "main", "status": f"incomplete:{stage}"}
        return build_certificate(
            x, "thm33", {**params, **status}, witness, None, trace, budget=budget
        )

    stage = "petridis"
    try:
        y, y3 = petridis_subset(x, x2, k, budget=budget)
        trace += _petridis_bounds(require, x, y, y3, k)
        stage = "halving"
        halv = seh_halving(y, y3, profile.alpha, profile.delta, budget=budget)
        trace += halv.trace
        stage = "localize"
        loc = localize_small_triple(y, halv.u, halv.v, halv.w, halv.uvw, budget=budget)
        trace += loc.trace
    except SearchExhaustedError as exc:
        raise StageFailedError(
            f"stage {stage!r} failed: {exc}", certificate=partial(stage, MultSet(oracle, ()))
        ) from exc

    gk, best = _pigeonhole_shift(y, loc.z, loc.zzz)
    g_translate = MultSet(oracle, (oracle.kmul(gk, zk) for zk in loc.z.keys))
    if not is_product_free(g_translate, budget=budget):
        raise InvariantViolationError(
            "shifted copy of Z lost product-freeness despite g outside Z^-1 Z Z^-1"
        )
    witness_keys = g_translate.key_set() & y.key_set()
    if len(witness_keys) != best:
        raise InvariantViolationError("pigeonhole bucket recount mismatch")
    witness = MultSet(oracle, witness_keys)
    # the one bound that may fail honestly
    pigeonhole = record(
        "pigeonhole",
        {"yg": len(witness), "z": len(loc.z)},
        f"yg * 2 * {k.numerator ** 3} >= z * {k.denominator ** 3}",
    )
    trace += [
        pigeonhole,
        require("product-free-shift", {"overlap": 1 if gk in loc.zzz else 0}, "overlap == 0"),
    ]
    if not pigeonhole.holds:
        raise StageFailedError(
            f"pigeonhole bucket of size {len(witness)} misses |Z|/(2 k^3)",
            certificate=partial("pigeonhole", witness),
        )
    claimed = guarantee if len(witness) >= math.ceil(guarantee) else None
    return build_certificate(
        x,
        "thm33",
        {**params, "branch": "main", "g": oracle.kencode(gk)},
        witness,
        claimed,
        trace,
        budget=budget,
    )
