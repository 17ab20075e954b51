import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from prodfree import (
    DomainMismatchError,
    InvariantViolationError,
    MultSet,
    PreconditionError,
    SearchExhaustedError,
    StageFailedError,
    build_group,
    compute_bounds_profile,
    find_homogeneous_tuple,
    generate,
    inverse_set,
    localize_small_triple,
    petridis_subset,
    power_set,
    product_free_extract,
    product_set,
    seh_halving,
    verify_certificate,
)
from prodfree import pipeline, sets
from prodfree.cli import _run_algorithm, main
from prodfree.groups import closure_keys, subgroup_view
from prodfree.pipeline import _bucket_best
from prodfree.sets import DEFAULT_PRODUCT_BUDGET
from conftest import (
    bitset_triple_sum_size,
    halving_stage_sizes,
    naive_is_product_free,
    naive_product_keys,
    naive_triple_product_keys,
    patch_irfft,
    planned_halving_steps,
    trace_sizes,
)

HALF = Fraction(1, 2)
TWO_FIFTHS = Fraction(2, 5)


# ---------------------------------------------------------------------------
# constants chain


def test_bounds_profile_half_half():
    p = compute_bounds_profile(HALF, HALF)
    # delta = alpha = 1/2: every derived constant is a power of two, so
    # float equality is exact
    assert p.c0 == 1.0
    assert p.eps0 == 0.25
    assert p.c1 == 3.0
    assert p.eps1 == 0.0625
    assert p.c2 == 13.0
    assert p.eps2 == 0.03125


def test_bounds_profile_chain_relations():
    p = compute_bounds_profile(TWO_FIFTHS, HALF)
    assert p.c0 == math.log2(5) - math.log2(2)
    assert p.eps0 == float(TWO_FIFTHS) * 0.5**p.c0
    assert p.c1 == 3 * p.c0
    assert p.eps1 == 4 * p.eps0**3
    assert p.c2 == 3 * p.c1 + 4
    assert p.eps2 == min(p.eps1 / 2, 1 / 16)
    assert compute_bounds_profile(Fraction(1, 4), HALF).c0 == 2.0


def test_bounds_profile_c0_ignores_alpha():
    weird = compute_bounds_profile(HALF, Fraction(99, 100))
    assert weird.c0 == 1.0


@pytest.mark.parametrize("delta,alpha", [(0, HALF), (1, HALF), (HALF, 0), (HALF, 1), (2, HALF)])
def test_bounds_profile_range_checks(delta, alpha):
    with pytest.raises(PreconditionError):
        compute_bounds_profile(delta, alpha)


# ---------------------------------------------------------------------------
# tripling subsets


def test_petridis_whole_set_qualifies(int_group):
    x = MultSet(int_group, range(1, 13))
    x2 = naive_product_keys(int_group, x.keys, x.keys)
    k = Fraction(len(x2), len(x))
    y, y3 = petridis_subset(x, product_set(x, x), k)
    assert y == x
    assert y3 == power_set(x, 3)
    y3 = naive_triple_product_keys(int_group, y.keys, y.keys, y.keys)
    assert len(y3) * k.denominator**3 <= k.numerator**3 * len(y)


def test_petridis_size_bound_exact(int_group):
    rng = random.Random(4)
    for _ in range(30):
        ks = rng.sample(range(-25, 26), rng.randint(1, 12))
        x = MultSet(int_group, ks)
        x2 = naive_product_keys(int_group, ks, ks)
        k = Fraction(len(x2), len(x))
        y, _ = petridis_subset(x, product_set(x, x), k)
        assert y.key_set() <= x.key_set()
        assert len(y) * k.numerator >= len(x) * k.denominator


def test_petridis_preconditions(int_group):
    x = MultSet(int_group, [1, 2])
    x2 = product_set(x, x)
    with pytest.raises(PreconditionError):
        petridis_subset(x, x2, Fraction(1, 2))  # k below 1
    with pytest.raises(PreconditionError):
        petridis_subset(x, x2, 1)  # |X^2| = 3 > 1 * |X|
    empty = MultSet(int_group, [])
    with pytest.raises(PreconditionError):
        petridis_subset(empty, empty, 2)


def test_petridis_accepts_generous_k(int_group):
    x = MultSet(int_group, [0, 1, 5])
    assert petridis_subset(x, product_set(x, x), 10)[0] == x


def _s4_plus_outsider():
    """The S_4 inside sym:7 generated by a 4-cycle and a transposition, plus
    one permutation moving 1..6: 25 points whose tripling beats k^3."""
    g = build_group("sym:7")
    s4 = closure_keys(g, [(1, 2, 3, 0, 4, 5, 6), (1, 0, 2, 3, 4, 5, 6)])
    return MultSet(g, set(s4) | {(0, 4, 5, 6, 1, 2, 3)})


def test_petridis_local_search_in_sym7():
    x = _s4_plus_outsider()
    g = x.oracle
    x2 = naive_product_keys(g, x.keys, x.keys)
    x3 = naive_product_keys(g, x2, x.keys)
    assert (len(x), len(x2), len(x3)) == (25, 71, 623)
    k = Fraction(len(x2), len(x))
    # Y = X fails: 623 * 25^3 > 71^3 * 25, so the search has to run
    assert len(x3) * k.denominator**3 > k.numerator**3 * len(x)
    y, y3 = petridis_subset(x, product_set(x, x), k)
    assert y.key_set() < x.key_set()
    assert len(y) == 22
    assert y3.key_set() == naive_triple_product_keys(g, y.keys, y.keys, y.keys)
    assert len(y3) == 491
    assert len(y) * k.numerator >= len(x) * k.denominator
    assert len(y3) * k.denominator**3 <= k.numerator**3 * len(y)
    assert petridis_subset(x, product_set(x, x), k)[0].keys == y.keys


def test_petridis_abelian_miss_is_an_invariant_violation():
    # Plunnecke-Ruzsa makes Y = X qualify in every abelian group, so the
    # check can only be reached through a wrong abelian flag
    x = _s4_plus_outsider()
    x.oracle.abelian = True
    x2 = product_set(x, x)
    with pytest.raises(InvariantViolationError, match="abelian"):
        petridis_subset(x, x2, Fraction(len(x2), len(x)))


# ---------------------------------------------------------------------------
# homogeneous tuples


def test_finder_threshold_split_on_integers(int_group):
    s = MultSet(int_group, range(1, 17))
    tup = find_homogeneous_tuple(s, s, s, HALF)
    assert all(p.keys == tuple(range(1, 9)) for p in tup.u_parts)
    assert all(p.keys == tuple(range(9, 17)) for p in tup.v_parts)
    up = naive_triple_product_keys(int_group, *[p.keys for p in tup.u_parts])
    vp = naive_triple_product_keys(int_group, *[p.keys for p in tup.v_parts])
    assert not (up & vp)
    assert len(tup.u_product) == len(up) == 22
    assert len(tup.v_product) == len(vp) == 22
    assert tup.chosen() == tup.u_parts  # tie resolves to u
    assert len(tup.chosen_product()) == 22


def test_finder_chooses_the_smaller_product(int_group):
    # the low block {0, 1, 10, 100} has 20 triple sums, the high block
    # {200..203} only 10, and they lie apart
    s = MultSet(int_group, [0, 1, 10, 100, 200, 201, 202, 203])
    tup = find_homogeneous_tuple(s, s, s, HALF)
    assert (len(tup.u_product), len(tup.v_product)) == (20, 10)
    assert tup.chosen() == tup.v_parts
    assert tup.chosen_product() is tup.v_product


def test_finder_density_floor_of_two(int_group):
    s = MultSet(int_group, [0, 1, 2, 100, 101, 102])
    tup = find_homogeneous_tuple(s, s, s, Fraction(1, 10))
    # ceil(6/10) = 1 would be degenerate; the floor keeps 2 per part
    assert all(p.keys == (0, 1) for p in tup.u_parts)
    assert all(p.keys == (101, 102) for p in tup.v_parts)


def test_finder_split_in_cyclic_group():
    g = build_group("cyclic:1000")
    s = MultSet(g, [*range(1, 6), *range(401, 406)])
    tup = find_homogeneous_tuple(s, s, s, TWO_FIFTHS)
    # ceil(2/5 * 10) = 4: the low block of each input, and its high block,
    # whose triple sums wrap around to 206..215
    assert all(p.keys == (1, 2, 3, 4) for p in tup.u_parts)
    assert all(p.keys == (402, 403, 404, 405) for p in tup.v_parts)
    up = naive_triple_product_keys(g, *[p.keys for p in tup.u_parts])
    vp = naive_triple_product_keys(g, *[p.keys for p in tup.v_parts])
    assert not (up & vp)
    assert vp == set(range(206, 216))


def test_finder_exhausts_on_identical_two_point_inputs(int_group):
    s = MultSet(int_group, [0, 1])
    with pytest.raises(SearchExhaustedError, match="triple products share 4 elements"):
        find_homogeneous_tuple(s, s, s, HALF)


def test_finder_names_the_pair_budget(int_group):
    s = MultSet(int_group, range(1, 17))
    with pytest.raises(SearchExhaustedError, match="split stopped at the pair budget: .* budget 10$"):
        find_homogeneous_tuple(s, s, s, HALF, pair_budget=10)


def test_finder_input_validation(int_group):
    s = MultSet(int_group, range(4))
    tiny = MultSet(int_group, [1])
    with pytest.raises(PreconditionError):
        find_homogeneous_tuple(tiny, s, s, HALF)
    with pytest.raises(PreconditionError):
        find_homogeneous_tuple(s, s, s, Fraction(3, 2))
    other = MultSet(build_group("cyclic:9"), range(4))
    with pytest.raises(DomainMismatchError):
        find_homogeneous_tuple(s, s, other, HALF)


def test_finder_is_deterministic(int_group):
    s = MultSet(int_group, range(-10, 11, 2))
    t1 = find_homogeneous_tuple(s, s, s, TWO_FIFTHS)
    t2 = find_homogeneous_tuple(s, s, s, TWO_FIFTHS)
    assert [p.keys for p in t1.u_parts] == [p.keys for p in t2.u_parts]
    assert [p.keys for p in t1.v_parts] == [p.keys for p in t2.v_parts]


# ---------------------------------------------------------------------------
# iterated halving


def test_halving_worked_example(int_group):
    """{1..16} at alpha = delta = 1/2 halves three times: 46, 22, 10, 4."""
    y = MultSet(int_group, range(1, 17))
    y3 = power_set(y, 3)
    res = seh_halving(y, y3, HALF, HALF)
    assert [r.stage for r in res.trace] == [
        "halving-1", "halving-2", "halving-3", "halving-final"
    ]
    sizes = halving_stage_sizes(res.trace, len(y3))
    assert sizes == [46, 22, 10, 4]
    assert trace_sizes(res.trace, "halving-final")["uvw"] == sizes[-1]
    assert planned_halving_steps(len(y), len(y3), HALF) == 4
    assert res.u.keys == res.v.keys == res.w.keys == (1, 2)
    for stage, size in zip(res.stages, sizes, strict=True):
        want = naive_triple_product_keys(
            int_group, stage.u.keys, stage.v.keys, stage.w.keys
        )
        assert size == len(want)
    for prev, nxt in zip(res.stages, res.stages[1:]):
        assert nxt.u.key_set() <= prev.u.key_set()
        assert nxt.v.key_set() <= prev.v.key_set()
        assert nxt.w.key_set() <= prev.w.key_set()
        assert 2 * len(nxt.u) >= len(prev.u)
    for prev_size, next_size in zip(sizes, sizes[1:]):
        assert 2 * next_size <= prev_size
    assert 2 * sizes[-1] <= len(y)


def test_halving_needs_enough_points(int_group):
    with pytest.raises(PreconditionError):
        y = MultSet(int_group, range(15))
        seh_halving(y, power_set(y, 3), HALF, HALF)


def test_halving_fallback_on_high_tripling_gap(int_group):
    """Rank-3 progression: tripling ratio ~7, planned steps overshoot."""
    y = generate("gap:3:1,1,1:1,5,25")
    assert len(y) == 27
    y3 = naive_triple_product_keys(int_group, y.keys, y.keys, y.keys)
    n = planned_halving_steps(len(y), len(y3), HALF)
    assert (n, 2 * 5 ** (n - 2) > 2 ** (n - 2) * 27) == (5, True)
    res = seh_halving(y, power_set(y, 3), HALF, TWO_FIFTHS)
    assert [r.stage for r in res.trace] == ["halving-fallback", "halving-final"]
    assert len(res.u) == len(res.v) == len(res.w) == 2
    size = trace_sizes(res.trace, "halving-fallback")["uvw"]
    assert size == len(naive_triple_product_keys(int_group, res.u.keys, res.v.keys, res.w.keys))
    assert size <= 8
    assert 2 * size <= len(y)


def test_halving_stops_early_once_alpha_is_met(int_group):
    y = MultSet(int_group, range(1, 41))
    y3 = power_set(y, 3)
    res = seh_halving(y, y3, HALF, TWO_FIFTHS)
    assert len(res.stages) - 1 < planned_halving_steps(len(y), len(y3), HALF)
    assert 2 * trace_sizes(res.trace, "halving-final")["uvw"] <= len(y)


def test_a_step_that_fails_to_halve_is_an_invariant_violation(int_group, monkeypatch):
    real = pipeline.find_homogeneous_tuple

    def no_smaller(u, v, w, delta, **kwargs):
        tup = real(u, v, w, delta, **kwargs)
        whole = product_set(product_set(u, v), w)
        return pipeline.HomogeneousTuple(tup.u_parts, tup.v_parts, whole, whole)

    monkeypatch.setattr(pipeline, "find_homogeneous_tuple", no_smaller)
    y = MultSet(int_group, range(1, 17))
    with pytest.raises(
        InvariantViolationError,
        match=r"^halving-1: '2 \* next <= prev' fails at \{'prev': 46, 'next': 46\}$",
    ):
        seh_halving(y, power_set(y, 3), HALF, HALF)


def test_halving_is_deterministic(int_group):
    y = MultSet(int_group, range(-20, 21))
    a = seh_halving(y, power_set(y, 3), HALF, TWO_FIFTHS)
    b = seh_halving(y, power_set(y, 3), HALF, TWO_FIFTHS)
    assert a.trace == b.trace
    assert a.u.keys == b.u.keys


# ---------------------------------------------------------------------------
# localization


def _uvw(u, v, w):
    return product_set(product_set(u, v), w)


def _naive_buckets(g, u_keys, v_keys, w_keys):
    kmul = g.kmul
    buckets = Counter()
    for z in v_keys:
        for a in u_keys:
            for b in w_keys:
                buckets[(kmul(a, z), kmul(z, b))] += 1
    return buckets


def test_localize_worked_example(int_group):
    y = MultSet(int_group, range(1, 17))
    part = MultSet(int_group, [1, 2])
    buckets = _naive_buckets(int_group, part.keys, part.keys, part.keys)
    best = max(buckets.values())
    assert sum(buckets.values()) == 8
    assert min(gh for gh, c in buckets.items() if c == best) == (3, 3)
    res = localize_small_triple(y, part, part, part, power_set(part, 3))
    assert (res.g.key, res.h.key) == (3, 3)
    assert res.z.keys == (1, 2)
    assert trace_sizes(res.trace, "localize-count")["pair_sum"] == 8
    assert res.zzz.keys == (-3, -2, -1, 0)
    assert len(res.z) * len(y) ** 2 >= 4 * len(part) ** 3
    assert 2 * len(res.zzz) <= len(y)


def test_localize_matches_naive_buckets_random(int_group):
    rng = random.Random(12)
    for _ in range(15):
        y_keys = sorted(rng.sample(range(-60, 61), 40))
        y = MultSet(int_group, y_keys)
        parts = []
        for _ in range(3):
            parts.append(MultSet(int_group, rng.sample(y_keys, 2)))
        u, v, w = parts
        uvw = naive_triple_product_keys(int_group, u.keys, v.keys, w.keys)
        if 2 * len(uvw) > len(y):
            continue
        buckets = _naive_buckets(int_group, u.keys, v.keys, w.keys)
        best = max(buckets.values())
        want_gh = min(gh for gh, c in buckets.items() if c == best)
        res = localize_small_triple(y, u, v, w, _uvw(u, v, w))
        assert (res.g.key, res.h.key) == want_gh
        assert len(res.z) == best
        assert trace_sizes(res.trace, "localize-count")["pair_sum"] == len(u) * len(v) * len(w)


def _naive_best_bucket(g, u, v, w):
    buckets = _naive_buckets(g, u.keys, v.keys, w.keys)
    best = max(buckets.values())
    gh = min(k for k, c in buckets.items() if c == best)
    return (*gh, best, sum(buckets.values()))


@pytest.mark.parametrize("base", [2**62, 2**63])
def test_bucket_best_huge_int_keys_match_counter(int_group, base):
    # sums of these keys leave int64, so the numpy path must not see them
    u = v = w = MultSet(int_group, [base + 1, base + 2, base + 4])
    got = _bucket_best(int_group, u, v, w)
    assert got == _naive_best_bucket(int_group, u, v, w)
    assert got[:2] == (2 * base + 3, 2 * base + 3)


@pytest.mark.parametrize(
    "spec,pool,sizes",
    [
        ("int", range(-8, 8), (12, 16)),
        ("int", range(-10**6, 10**6), (5, 25)),
        ("cyclic:101", range(101), (45, 60)),
        ("cyclic:5003", range(5003), (5, 25)),
        # a sparse triple whose keys span 2^32
        ("int", (0, 2**31, 2**32 + 1), (3, 3)),
    ],
)
def test_bucket_best_matches_counter(spec, pool, sizes):
    g = build_group(spec)
    rng = random.Random(spec)
    for _ in range(4):
        u, v, w = (MultSet(g, rng.sample(pool, rng.randint(*sizes))) for _ in range(3))
        assert _bucket_best(g, u, v, w) == _naive_best_bucket(g, u, v, w)


def test_bucket_best_guard_failure_matches_counter(monkeypatch):
    calls = patch_irfft(monkeypatch, 0.6)
    rng = random.Random(4)
    for spec, pool in (("int", range(-60, 60)), ("cyclic:101", range(101))):
        g = build_group(spec)
        before = len(calls)
        u, v, w = (MultSet(g, rng.sample(pool, len(pool) * 3 // 4)) for _ in range(3))
        assert _bucket_best(g, u, v, w) == _naive_best_bucket(g, u, v, w)
        assert len(calls) > before


def _fuzz_group(name):
    """A group and the keys its fuzz triples are drawn from."""
    if name == "int":
        return build_group("int"), range(-40, 40)
    if name == "int-wide":
        return build_group("int"), range(2**62 - 40, 2**62 + 40)
    if name == "cyclic:1000-view":
        keys = range(0, 1000, 8)
        return subgroup_view(build_group("cyclic:1000"), keys), keys
    g = build_group(name)
    return g, g.enum_keys


def _random_triple(g, pool, rng):
    """U, V, W of up to 12 points each.  Every other triple has U = B and W
    the union of B t over a few t, so each class d = t has P_d containing B
    and several classes can reach the best count."""
    pool = list(pool)

    def pick():
        return rng.sample(pool, rng.randint(1, min(12, len(pool))))

    u, v, w = pick(), pick(), pick()
    if rng.random() < 0.5:
        shifts = rng.sample(pool, min(rng.randint(2, 4), len(pool)))
        w = [g.kmul(b, t) for b in u for t in shifts]
    return MultSet(g, u), MultSet(g, v), MultSet(g, w)


@pytest.mark.parametrize(
    "name",
    [
        "int",
        "int-wide",
        "cyclic:1",
        "cyclic:7",
        "cyclic:101",
        "cyclic:5003",
        "abelian:6,10",
        "cyclic:1000-view",
        "dihedral:6",
    ],
)
def test_bucket_best_fuzz_with_forced_ties(name):
    g, pool = _fuzz_group(name)
    rng = random.Random(name)
    tied = 0
    for _ in range(60):
        u, v, w = _random_triple(g, pool, rng)
        buckets = _naive_buckets(g, u.keys, v.keys, w.keys)
        best = max(buckets.values())
        classes = {g.kmul(g.kinv(a), b) for (a, b), c in buckets.items() if c == best}
        tied += len(classes) > 1
        assert _bucket_best(g, u, v, w) == _naive_best_bucket(g, u, v, w)
    # the least-(g, h) tie-break across classes was exercised
    assert len(pool) == 1 or tied >= 5


def _counter_bucket_best(g, u, v, w):
    """The abelian class visit of _bucket_best on Counters: classes d of
    W U^-1 by decreasing |P_d| then increasing d, stopping below the best
    count; in each, the largest count of P_d V and its least key g."""
    sizes = Counter(g.kmul(wk, g.kinv(uk)) for uk in u.keys for wk in w.keys)
    best = None
    for d, size in sorted(sizes.items(), key=lambda ds: (-ds[1], ds[0])):
        if best is not None and size < -best[0]:
            break
        p = [uk for uk in u.keys if g.kmul(uk, d) in w.key_set()]
        counts = Counter(g.kmul(a, b) for a in p for b in v.keys)
        count = max(counts.values())
        gk = min(k for k, c in counts.items() if c == count)
        cand = (-count, gk, g.kmul(gk, d))
        best = cand if best is None else min(best, cand)
    return best[1], best[2], -best[0], sum(sizes.values()) * len(v)


def _counter_pigeonhole(g, y, z, zzz):
    """The pigeonhole's pick on a Counter: the shifts y z^-1 outside zzz,
    the largest count and its least key, or None when none is left."""
    shifts = Counter(g.kmul(a, g.kinv(b)) for a in y.keys for b in z.keys)
    for k in zzz.keys:
        shifts.pop(k, None)
    if not shifts:
        return None
    best = max(shifts.values())
    return min(k for k, c in shifts.items() if c == best), best


@pytest.mark.parametrize("name", ["int", "cyclic:1000-view", "sym:4"])
def test_bucket_and_pigeonhole_ties_match_a_counter_reference(name):
    # the kernel's int64 answers (int) and the kmul path's object arrays
    # (an abelian subgroup view; sym:4, whose keys are tuples) pick the
    # same keys, as Python keys, as Counters did
    g, pool = _fuzz_group(name)
    pool = list(pool)
    rng = random.Random(f"ties {name}")
    tied = 0
    for _ in range(60):
        u, v, w = _random_triple(g, pool, rng)
        assert (sets._operands(u, v) is None) == (name != "int")
        if g.abelian:
            got = _bucket_best(g, u, v, w)
            assert got == _counter_bucket_best(g, u, v, w)
            assert [type(k) for k in got[:2]] == [type(u.keys[0])] * 2
        y = MultSet(g, rng.sample(pool, rng.randint(2, min(30, len(pool)))))
        z = MultSet(g, rng.sample(y.keys, rng.randint(1, min(4, len(y)))))
        z_inv = inverse_set(z)
        zzz = product_set(product_set(z_inv, z), z_inv)
        want = _counter_pigeonhole(g, y, z, zzz)
        if want is None:
            with pytest.raises(InvariantViolationError, match="fell inside"):
                pipeline._pigeonhole_shift(y, z, zzz)
            continue
        got = pipeline._pigeonhole_shift(y, z, zzz)
        assert got == want and type(got[0]) is type(y.keys[0])
        shifts = Counter(g.kmul(a, g.kinv(b)) for a in y.keys for b in z.keys)
        tied += sum(c == want[1] for k, c in shifts.items() if k not in zzz) > 1
    assert tied >= 10


def test_the_halving_parts_of_one_set_are_one_set():
    y = generate("interval:100")
    tup = find_homogeneous_tuple(y, y, y, TWO_FIFTHS)
    assert tup.u_parts[0] is tup.u_parts[1] is tup.u_parts[2]
    assert tup.v_parts[0] is tup.v_parts[1] is tup.v_parts[2]
    # distinct inputs keep parts of their own
    z = MultSet(y.oracle, y.keys)
    tup = find_homogeneous_tuple(y, z, y, TWO_FIFTHS)
    assert tup.u_parts[0] is tup.u_parts[2] is not tup.u_parts[1]
    assert tup.u_parts[0] == tup.u_parts[1]


def _box_101():
    box = build_group("abelian:1000,1000")
    return MultSet(box, [a % 1000 * 1000 + b % 1000 for a in range(-50, 51) for b in range(-50, 51)])


# the certificate each gives at --budget 2000000000, hashed before the
# finer bounds of sets._reach_cells let their first halving triples fuse
FUSED_HALVING_SHA256 = {
    "gap:3:10,10,10:1,100,100000": (
        4,
        "30317aa8524f8f2b837e183e846fd17bb182e07808a455f9c4836a35981f52cc",
    ),
    "abelian:1000,1000 101x101 box": (
        4,
        "ba0426fa4c31910f37ed8384f7e7482923ef6aa8a550978eb183ca64c4516c10",
    ),
}


@pytest.mark.parametrize("name", sorted(FUSED_HALVING_SHA256))
def test_halving_triples_take_one_grid_wherever_their_first_product_does(name, monkeypatch):
    fused, frozen = FUSED_HALVING_SHA256[name]
    x = _box_101() if name.endswith("box") else generate(name)
    budget = 2 * 10**9
    x2 = product_set(x, x, budget=budget)
    y, y3 = petridis_subset(x, x2, Fraction(len(x2), len(x)), budget=budget)
    routes, chain = [], []
    real_grid, real_product = sets._triple_grid, sets.product_set

    def spy_grid(a, b, c, budget):
        grid = real_grid(a, b, c, budget)
        first = sets._plan((sets._values(a.keys),) * 2, a.oracle.component_moduli)
        routes.append((len(a), isinstance(first, sets._Grid), grid is not None))
        assert a is b is c
        return grid

    monkeypatch.setattr(sets, "_triple_grid", spy_grid)
    monkeypatch.setattr(sets, "product_set", lambda *a, **k: chain.append(1) or real_product(*a, **k))
    seh_halving(y, y3, HALF, TWO_FIFTHS, budget=budget)
    # the first `fused` triples (3705 and 1482 keys in the GAP, 4081 and 1633
    # in the box) convolve on one grid; the later ones sort their first
    # product, so no triple runs the chain for the budget's sake
    assert [took for _, first, took in routes] == [first for _, first, _ in routes]
    assert sum(took for _, _, took in routes) >= fused
    assert all(took for _, _, took in routes[:fused])
    assert len(chain) == 2 * (len(routes) - sum(took for _, _, took in routes))
    monkeypatch.undo()
    cert = _run_algorithm("thm33", x, delta=TWO_FIFTHS, alpha=HALF, budget=budget)
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == frozen


def test_localize_generic_path_heisenberg():
    g = build_group("heisenberg:3")
    y = MultSet(g, g.enum_keys)
    e = g.identity_key
    u = MultSet(g, [e, g.kdecode("1,1,0;0,1,0;0,0,1")])
    v = MultSet(g, [e, g.kdecode("1,0,0;0,1,1;0,0,1")])
    w = MultSet(g, [e, g.kdecode("1,0,1;0,1,0;0,0,1")])
    buckets = _naive_buckets(g, u.keys, v.keys, w.keys)
    res = localize_small_triple(y, u, v, w, _uvw(u, v, w))
    assert trace_sizes(res.trace, "localize-count")["pair_sum"] == sum(buckets.values()) == 8
    best = max(buckets.values())
    assert len(res.z) == best
    assert (res.g.key, res.h.key) == min(
        gh for gh, c in buckets.items() if c == best
    )
    zzz = naive_product_keys(
        g, naive_product_keys(g, [g.kinv(k) for k in res.z.keys], res.z.keys),
        [g.kinv(k) for k in res.z.keys],
    )
    assert res.zzz.key_set() == frozenset(zzz)


def test_localize_preconditions(int_group):
    y = MultSet(int_group, range(1, 17))
    fat = MultSet(int_group, range(1, 5))
    with pytest.raises(PreconditionError):
        localize_small_triple(y, fat, fat, fat, power_set(fat, 3))  # |UVW| = 10 > 8
    outside = MultSet(int_group, [99])
    with pytest.raises(PreconditionError, match="inside Y"):
        localize_small_triple(y, outside, fat, fat, _uvw(outside, fat, fat))
    empty = MultSet(int_group, [])
    with pytest.raises(PreconditionError, match="nonempty"):
        localize_small_triple(y, empty, fat, fat, _uvw(empty, fat, fat))
    # U in another group has no product with V; any small UVW will do,
    # since the domain check comes first
    other = MultSet(build_group("cyclic:20"), [1])
    two = MultSet(int_group, [1, 2])
    with pytest.raises(DomainMismatchError, match="Y's group"):
        localize_small_triple(y, other, fat, fat, power_set(two, 3))


# ---------------------------------------------------------------------------
# end-to-end extraction


def test_extract_two_point_set_takes_singleton(int_group):
    x = MultSet(int_group, [0, 1])
    cert = product_free_extract(x)
    assert cert.params["branch"] == "singleton"
    assert cert.witness == ["1"]
    assert cert.verified_product_free
    assert cert.guarantee is not None and 0 < cert.guarantee < 1


def test_extract_singleton_branch_condition(int_group):
    x = MultSet(int_group, range(-8, 9))
    x2 = naive_product_keys(int_group, x.keys, x.keys)
    assert len(x) ** 2 < 16 * len(x2)  # 289 < 528
    cert = product_free_extract(x)
    assert cert.params["branch"] == "singleton"
    assert cert.witness == ["-8"]
    assert cert.trace[0].stage == "singleton-branch"
    ok, problems = verify_certificate(cert, x)
    assert ok and problems == []


def test_extract_main_branch_full_trace(int_group):
    x = MultSet(int_group, range(-50, 51))
    x2 = naive_product_keys(int_group, x.keys, x.keys)
    assert len(x) ** 2 >= 16 * len(x2)  # main branch territory
    cert = product_free_extract(x)
    assert cert.params["branch"] == "main"
    stages = [t.stage for t in cert.trace]
    assert stages[0] == "petridis-size"
    assert stages[1] == "petridis-tripling"
    assert "halving-final" in stages
    assert stages[-2] == "pigeonhole"
    assert stages[-1] == "product-free-shift"
    assert all(t.holds for t in cert.trace)
    witness_keys = [int(t) for t in cert.witness]
    assert set(witness_keys) <= set(x.keys)
    assert naive_is_product_free(int_group, witness_keys)
    assert cert.guarantee is not None
    assert cert.achieved_size >= math.ceil(cert.guarantee)
    ok, problems = verify_certificate(cert, x)
    assert ok and problems == []


def test_extract_guarantee_is_floored_rational(int_group):
    x = MultSet(int_group, range(-50, 51))
    cert = product_free_extract(x)
    p = compute_bounds_profile(TWO_FIFTHS, HALF)
    k = Fraction(201, 101)
    exact = p.eps2 * len(x) / float(k) ** p.c2
    assert cert.guarantee.denominator <= 10**9
    assert float(cert.guarantee) <= exact < float(cert.guarantee) + 2e-9


def test_extract_is_deterministic(int_group):
    x = MultSet(int_group, range(-60, 61))
    a = product_free_extract(x)
    b = product_free_extract(x)
    assert a.to_json() == b.to_json()


# spec -> (algorithm, sha256 of the certificate JSON it gives under the CLI
# defaults): rewrites of the set, group and certificate code keep these bytes
FROZEN_CERT_SHA256 = {
    "interval:50": ("thm33", "3db43ec7a93e0612065accb52b32fc5e8ac357b26de091768b35e0827f28e127"),
    "interval:100": ("thm33", "86812a965886d27069b6ca511eb60aec5d1028e79a95ee72f9519780e497687f"),
    "interval:200": ("thm33", "803c076294978e49260f5bcf7cc7712dc0f18c06101c086207a2a4dda2334837"),
    "interval:300": ("thm33", "4821bf9729e69f9a2a87c766d271c266f632179e8c08afd9d27ce8d96374024f"),
    "interval:400": ("thm33", "b2a5167641e2ae2d4aefebd4ad0500761acd94764d487644f8949d7c9720112d"),
    "interval:500": ("thm33", "3b9dbda6ec731061a6d29b581dc45e80716731097de8d2bbdfeeeae92a2d1132"),
    "gap:2:5,5:1,20": ("thm33", "3125fe15f4068aa6ee9e6f19cc0ce231948d996f79ae7271dab2ce2c5c321fed"),
    "heisenberg-ball:11:1": ("thm33", "d86ed62c7789d53bac0741a3dabf34a49c4cf5cfadf6cd15650a5ade3b15f19e"),
    "gap:2:10,10:1,100": ("thm33", "64feee9c3a66fc75681e05a7746bca2495b59f19066a7284fb211935a1e194d7"),
    "interval:600": ("thm33", "de8418460409c1de03d771e77ca400a914e412877d564ed5804ead3492e339a2"),
    "gap:2:15,15:1,1000": ("thm33", "fd042e7e6ecf26b73306f3d9d97df6ab5cfad1a03e6311870b226493f82c9eef"),
    "gap:3:5,5,5:1,11,121": ("thm33", "5783037936b9f1a6384cde76e0e5221bf4a454c0ba89f79de2f962070525d0df"),
    # certifies through the halving-fallback branch: 125 points, 2-point witness
    "gap:3:2,2,2:1,20,400": ("thm33", "24e04dc723f24ad6ce3ee9c04bcf48829979beae49da9ab6067d8f63db931dda"),
    "full-group-minus-identity:sym:4": ("solvable", "4cc87acfbfee9d84b79147d621d421c21fa21717d33d333bc52c174067bda13b"),
    "full-group-minus-identity:dihedral:12": ("solvable", "91c23260f1cf97b707ad3a37f96e3a0347fd50c2e3f968fdf160c6ae96d44394"),
    "full-group-minus-identity:dihedral:200": ("solvable", "5682364714174a1e16e6c06d5025c92cfaacb37b90e1dfa95eebc3aa6e796c3a"),
    "full-group-minus-identity:heisenberg:5": ("solvable", "a7d4a1080f30cbcf9c28d4130ed5cc8e68a66d5b89d0358d6c4c974f7113e582"),
    "full-group-minus-identity:abelian:6,10": ("alon-kleitman", "151751d999ad5a7a0435647b0273b92aac2907d819a0b912939a7dc81afb0172"),
    "full-group-minus-identity:abelian:40,40": ("alon-kleitman", "fc46471aa80e5da29044092c076cd9d78ea8a4eaa24c6a1bdd78068791acea59"),
}


@pytest.mark.parametrize("spec", sorted(FROZEN_CERT_SHA256))
def test_extract_certificate_bytes_are_frozen(spec):
    algorithm, frozen = FROZEN_CERT_SHA256[spec]
    x = generate(spec)
    digests = [
        hashlib.sha256(
            _run_algorithm(
                algorithm, x, delta=TWO_FIFTHS, alpha=HALF, budget=DEFAULT_PRODUCT_BUDGET
            ).to_json().encode()
        ).hexdigest()
        for _ in range(2)
    ]
    assert digests == [frozen] * 2


THM33_CHAIN_SPECS = sorted(
    spec
    for spec, (algorithm, _) in FROZEN_CERT_SHA256.items()
    if algorithm == "thm33" and spec != "heisenberg-ball:11:1"  # the singleton
)


@pytest.mark.parametrize("spec", THM33_CHAIN_SPECS)
def test_the_trace_holds_each_checked_size_once_and_links(spec):
    """Where two stages share a size, the certificate's trace alone shows
    that they agree: Petridis hands |Y^3| to halving, each step's next is
    the following step's prev, the last next (or the fallback's UVW) is the
    final UVW, and every record speaks of one Y."""
    x = generate(spec)
    trace = product_free_extract(x).to_json_dict()["trace"]
    sizes = {r["stage"]: r["sizes"] for r in trace}
    assert len(sizes) == len(trace)
    assert sizes["petridis-size"]["x"] == len(x)
    y3 = sizes["petridis-tripling"]["y3"]
    assert y3 == bitset_triple_sum_size(x.keys, x.keys, x.keys)  # Y = X in int
    steps = []
    while f"halving-{len(steps) + 1}" in sizes:
        steps.append(sizes[f"halving-{len(steps) + 1}"])
    if "halving-fallback" in sizes:
        assert steps == []
        last = sizes["halving-fallback"]["uvw"]
    else:
        assert steps[0]["prev"] == y3
        for step, following in zip(steps, steps[1:]):
            assert step["next"] == following["prev"]
        last = steps[-1]["next"]
    assert sizes["halving-final"]["uvw"] == last
    count = sizes["localize-count"]
    assert count["pair_sum"] == count["u"] * count["v"] * count["w"]
    assert len({s["y"] for s in sizes.values() if "y" in s}) == 1


def _short_arcs():
    """Sets on a short arc of a finite abelian group: the low/high split's
    triple products stay apart, so thm33 completes its main branch."""
    box = [(a % 1000) * 1000 + b % 1000 for a in range(-20, 21) for b in range(-20, 21)]
    return {
        "cyclic:100000 {-50..50}": (
            MultSet(build_group("cyclic:100000"), [a % 100000 for a in range(-50, 51)]),
            17,
            "77875e094bbd4181f5459a281f5aca5d8c03ac27cdddf3daf5c679e6c2b56dec",
        ),
        "cyclic:100000 {-1000..1000}": (
            MultSet(build_group("cyclic:100000"), [a % 100000 for a in range(-1000, 1001)]),
            321,
            "b79765a94cf1abd61591bd25b20f671222a8e4c73f3611ff638f712af1421e4b",
        ),
        # the cube product of the box takes 11029041 pairs
        "abelian:1000,1000 41x41 box": (
            MultSet(build_group("abelian:1000,1000"), box),
            93,
            "6ae045b5e21a698a04084ff636f6d30d65d8659c398bc49cf9e8d54a8e9fa51e",
        ),
    }


@pytest.mark.parametrize("name", sorted(_short_arcs()))
def test_short_arc_certificate_bytes_are_frozen(name):
    x, size, frozen = _short_arcs()[name]
    cert = product_free_extract(x, budget=2 * 10**7)
    assert cert.params["branch"] == "main" and cert.achieved_size == size
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == frozen
    assert verify_certificate(cert, x, budget=2 * 10**7) == (True, [])


def test_arc_that_wraps_around_misses_honestly():
    # {0..100} in cyclic:300: the split's triple products wrap and meet
    x = MultSet(build_group("cyclic:300"), range(101))
    with pytest.raises(StageFailedError, match="triple products share 1 elements$") as info:
        product_free_extract(x)
    cert = info.value.certificate
    assert cert.params["status"] == "incomplete:halving" and cert.witness == []
    assert not verify_certificate(cert, x)[0]


# spec -> sha256 of the partial certificate that `extract thm33 SPEC` prints
# (with its trailing newline) before it exits 2 on a halving miss
FROZEN_PARTIAL_CERT_SHA256 = {
    "full-group:sym:4": "69d3cbba60de0456ee77a7115a206431c39dead102661437e3370cd6467e7970",
    "full-group:dihedral:12": "8e3c4db2db5bc3b47acdad800f2f9a6bf59c42cdd9affd79debc27503b176988",
    "full-group:abelian:8,8": "2ca69fee2b1aeb690db96659531e17855b71c4bb41053e59c4d47702fe72f475",
}
# in a full group both triple products of the split are the whole group
FULL_GROUP_ORDER = {"full-group:sym:4": 24, "full-group:dihedral:12": 24, "full-group:abelian:8,8": 64}


@pytest.mark.parametrize("spec", sorted(FROZEN_PARTIAL_CERT_SHA256))
def test_extract_partial_certificate_bytes_are_frozen(spec, capsys):
    code = main(["extract", "thm33", spec])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == (
        "not found: stage 'halving' failed: no homogeneous tuple of density "
        f"2/5: the low/high split's triple products share {FULL_GROUP_ORDER[spec]} elements\n"
    )
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_PARTIAL_CERT_SHA256[spec]


@pytest.mark.parametrize(
    "spec,calls",
    [("interval:50", 7), ("gap:2:10,10:1,100", 9), ("gap:3:5,5,5:1,11,121", 7)],
)
def test_extract_computes_each_product_once(spec, calls, monkeypatch):
    """X^2, Y^3 = X^2 X, two triple products per halving step and
    Z^-1 Z Z^-1: every product is computed once and the stage that needs it
    again is handed it.  A triple product counts as one product, also when
    it runs as two pair products inside ``triple_product``."""
    real_product, real_triple = sets.product_set, sets.triple_product
    operands = []
    inside_triple = []

    def spy(x, y, budget=DEFAULT_PRODUCT_BUDGET):
        if not inside_triple:
            operands.append((x.keys, y.keys))
        return real_product(x, y, budget=budget)

    def triple_spy(x, y, z, budget=DEFAULT_PRODUCT_BUDGET):
        operands.append((x.keys, y.keys, z.keys))
        inside_triple.append(True)
        try:
            return real_triple(x, y, z, budget=budget)
        finally:
            inside_triple.pop()

    tuples, cubes, halvings = [], [], []

    def record_into(out, fn):
        def recorded(*args, **kwargs):
            got = fn(*args, **kwargs)
            out.append(got)
            return got

        return recorded

    monkeypatch.setattr(sets, "product_set", spy)
    monkeypatch.setattr(pipeline, "product_set", spy)
    monkeypatch.setattr(sets, "triple_product", triple_spy)
    monkeypatch.setattr(pipeline, "triple_product", triple_spy)
    for name, out in (
        ("find_homogeneous_tuple", tuples),
        ("petridis_subset", cubes),
        ("seh_halving", halvings),
    ):
        monkeypatch.setattr(pipeline, name, record_into(out, getattr(pipeline, name)))
    x = generate(spec)
    product_free_extract(x)
    monkeypatch.undo()

    assert len(operands) == calls
    assert len(set(operands)) == calls
    g = x.oracle
    ((y, y3),) = cubes
    assert y3.key_set() == naive_product_keys(g, naive_product_keys(g, y.keys, y.keys), y.keys)
    assert tuples
    for tup in tuples:
        for (a, b, c), prod in ((tup.u_parts, tup.u_product), (tup.v_parts, tup.v_product)):
            # pair by pair: the first gap:3 step has 533^3 triples
            ab = naive_product_keys(g, a.keys, b.keys)
            assert prod.key_set() == naive_product_keys(g, ab, c.keys)
    (halv,) = halvings
    assert halv.uvw.key_set() == naive_triple_product_keys(
        g, halv.u.keys, halv.v.keys, halv.w.keys
    )
    assert trace_sizes(halv.trace, "halving-final")["uvw"] == len(halv.uvw)


def test_stage_traces_are_the_certificate_trace():
    x = generate("interval:50")
    x2 = product_set(x, x)
    y, y3 = petridis_subset(x, x2, Fraction(len(x2), len(x)))
    halv = seh_halving(y, y3, HALF, TWO_FIFTHS)
    loc = localize_small_triple(y, halv.u, halv.v, halv.w, halv.uvw)
    assert [r.stage for r in halv.trace] == [
        *(f"halving-{i}" for i in range(1, len(halv.stages))),
        "halving-final",
    ]
    assert [r.stage for r in loc.trace] == [
        "localize-count",
        "localize-density",
        "localize-compress",
    ]
    trace = product_free_extract(x).trace
    assert trace[2:-2] == [*halv.trace, *loc.trace]


def test_fallback_trace_is_the_certificate_trace():
    x = generate("gap:3:2,2,2:1,20,400")
    x2 = product_set(x, x)
    y, y3 = petridis_subset(x, x2, Fraction(len(x2), len(x)))
    halv = seh_halving(y, y3, HALF, TWO_FIFTHS)
    assert [r.stage for r in halv.trace] == ["halving-fallback", "halving-final"]
    assert product_free_extract(x).trace[2:4] == list(halv.trace)


def test_a_broken_counting_identity_is_an_invariant_violation(monkeypatch):
    real = pipeline._bucket_best

    def off_by_one(*args):
        g, h, count, total = real(*args)
        return g, h, count, total + 1

    monkeypatch.setattr(pipeline, "_bucket_best", off_by_one)
    with pytest.raises(InvariantViolationError, match="^localize-count: 'pair_sum == u"):
        product_free_extract(generate("interval:50"))


def _failing_pigeonhole(monkeypatch):
    """Zero the witness size in the pigeonhole record, the one record that
    may fail without breaking a theorem."""
    real = pipeline.record

    def zero_yg(stage, sizes, inequality):
        if stage == "pigeonhole":
            sizes = {**sizes, "yg": 0}
        return real(stage, sizes, inequality)

    monkeypatch.setattr(pipeline, "record", zero_yg)


def test_a_pigeonhole_miss_carries_its_partial_certificate(monkeypatch, capsys):
    _failing_pigeonhole(monkeypatch)
    x = generate("interval:50")
    with pytest.raises(StageFailedError, match="^pigeonhole bucket of size 17 misses") as info:
        product_free_extract(x)
    cert = info.value.certificate
    assert cert.params["status"] == "incomplete:pigeonhole"
    assert cert.guarantee is None and cert.achieved_size == 17
    assert [(r.stage, r.holds) for r in cert.trace[-2:]] == [
        ("pigeonhole", False),
        ("product-free-shift", True),
    ]
    assert main(["extract", "thm33", "interval:50"]) == 2
    out, err = capsys.readouterr()
    assert '"status": "incomplete:pigeonhole"' in out
    assert err.startswith("not found: pigeonhole bucket of size 17")


def test_extract_respects_custom_profile(int_group):
    x = MultSet(int_group, range(-50, 51))
    profile = compute_bounds_profile(Fraction(1, 3), HALF)
    cert = product_free_extract(x, profile)
    assert cert.params["delta"] == "1/3"
    assert cert.verified_product_free


def test_extract_stage_failure_carries_partial_certificate():
    # the full cyclic group has doubling 1 but no split survives wraparound
    g = build_group("cyclic:40")
    x = MultSet(g, range(40))
    with pytest.raises(StageFailedError) as info:
        product_free_extract(x)
    cert = info.value.certificate
    assert cert is not None
    assert cert.params["status"] == "incomplete:halving"
    assert cert.witness == []
    assert not cert.verified_product_free
    ok, problems = verify_certificate(cert, x)
    assert not ok


def test_extract_rejects_degenerate_inputs(int_group):
    with pytest.raises(PreconditionError):
        product_free_extract(MultSet(int_group, []))
    with pytest.raises(PreconditionError):
        product_free_extract(MultSet(int_group, [0]))


def test_extract_cyclic_small_set_singleton():
    g = build_group("cyclic:30")
    x = MultSet(g, [3, 7, 11, 29])
    cert = product_free_extract(x)
    assert cert.params["branch"] == "singleton"
    assert cert.witness == ["3"]
    assert cert.verified_product_free
