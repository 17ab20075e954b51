import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from prodfree import (
    BudgetExceededError,
    InvariantViolationError,
    MultSet,
    PreconditionError,
    SUMFREE_ALPHA,
    WeightedSet,
    alon_kleitman_weighted,
    build_group,
    closure_keys,
    cyclic_interval,
    derived_subnormal_series,
    interval_bounds,
    solvable_extract,
    verify_certificate,
)
from prodfree import sumfree
from prodfree.sumfree import _embedding_rows
from conftest import naive_is_product_free, naive_max_product_free_size


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_interval_bounds_formula():
    assert interval_bounds(2) == (1, 1)
    assert interval_bounds(3) == (2, 2)
    assert interval_bounds(7) == (3, 4)
    assert interval_bounds(9) == (4, 6)
    for n in range(2, 200):
        lo, hi = interval_bounds(n)
        assert 1 <= lo <= hi <= n - 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 12, 30, 31, 60])
def test_cyclic_interval_sum_free_and_subgroup_dense(n):
    x = cyclic_interval(n)
    lo, hi = interval_bounds(n)
    assert x.keys == tuple(range(lo, hi + 1))
    keys = set(x.keys)
    assert all((a + b) % n not in keys for a in keys for b in keys)
    for d in _divisors(n):
        sub = set(range(0, n, n // d))  # the subgroup of order d
        if d == 1:
            continue
        assert 4 * len(sub & keys) >= len(sub)


def test_cyclic_interval_rejects_tiny_n():
    with pytest.raises(PreconditionError):
        cyclic_interval(1)


def test_cyclic_interval_still_checks_every_subgroup(monkeypatch):
    # one point, 5, is sum-free in Z/12 but misses {0, 6}, the smallest
    # nonzero subgroup, and every larger one but Z/12 itself; in Z/13 the
    # whole group is the only one, and one point in 13 is too few
    monkeypatch.setattr(sumfree, "interval_bounds", lambda n: (5, 5))
    for n, order, hits in ((12, 2, 0), (13, 13, 1)):
        message = f"^subgroup of order {order} meets the interval only {hits} times in Z/{n}$"
        with pytest.raises(InvariantViolationError, match=message):
            cyclic_interval(n)


def test_sumfree_alpha_constant():
    assert SUMFREE_ALPHA == Fraction(1, 4)


def test_weighted_set_validation():
    g = build_group("cyclic:7")
    base = MultSet(g, [1, 2])
    assert WeightedSet(base, (3, 4)).total == 7
    with pytest.raises(PreconditionError):
        WeightedSet(base, (3,))  # misaligned
    with pytest.raises(PreconditionError):
        WeightedSet(base, (0, 1))  # weight below 1
    with pytest.raises(PreconditionError):
        WeightedSet(MultSet(g, [0, 1]), (1, 1))  # identity present


def test_weighted_set_constructors():
    g = build_group("cyclic:9")
    w = WeightedSet.from_mapping(g, {2: 5, 7: 1})
    assert w.base.keys == (2, 7)
    assert w.weights == (5, 1)
    assert w.weight_of_keys([7]) == 1
    u = WeightedSet.uniform(MultSet(g, [1, 3, 4]))
    assert u.weights == (1, 1, 1) and u.total == 3


def test_alon_kleitman_z7_first_qualifying_character():
    """Scan c = 0, 1, ... by hand; c = 1 already catures a quarter."""
    g = build_group("cyclic:7")
    lo, hi = interval_bounds(7)
    target = None
    for c in range(7):
        kept = [b for b in (1, 2, 3) if lo <= (c * b) % 7 <= hi]
        if 4 * sum(1 for _ in kept) >= 3:
            target = (c, kept)
            break
    assert target == (1, [3])
    got = alon_kleitman_weighted(WeightedSet.uniform(MultSet(g, [1, 2, 3])))
    assert got.keys == (3,)


@pytest.mark.parametrize(
    "spec", ["cyclic:100", "cyclic:128", "abelian:8,4", "abelian:2,2", "abelian:9,3,3"]
)
def test_alon_kleitman_quarter_bound_and_sum_freeness(spec):
    g = build_group(spec)
    rng = random.Random(spec.__hash__() & 0x3F)
    nonid = [k for k in g.enum_keys if k != g.identity_key]
    for trial in range(10):
        m = rng.randint(1, min(40, len(nonid)))
        ks = rng.sample(nonid, m)
        weights = {k: rng.randint(1, 30) for k in ks}
        w = WeightedSet.from_mapping(g, weights)
        kept = alon_kleitman_weighted(w)
        assert kept.key_set() <= w.base.key_set()
        assert naive_is_product_free(g, kept.keys)
        assert 4 * w.weight_of_keys(kept.keys) >= w.total


def test_alon_kleitman_deterministic():
    g = build_group("abelian:16,4")
    nonid = [k for k in g.enum_keys if k != g.identity_key]
    w = WeightedSet.uniform(MultSet(g, nonid[::3]))
    assert alon_kleitman_weighted(w).keys == alon_kleitman_weighted(w).keys


def test_alon_kleitman_scan_budget_above_enum_cap():
    # {1} first qualifies at c = n // 3 + 1, after about 3.3 * 10^6 pairs
    g = build_group("cyclic:10000000")
    w = WeightedSet.uniform(MultSet(g, [1]))
    assert alon_kleitman_weighted(w).keys == (1,)
    with pytest.raises(BudgetExceededError, match="^character scan: .* exceed budget 1000000$"):
        alon_kleitman_weighted(w, budget=10**6)


def test_alon_kleitman_preconditions():
    with pytest.raises(PreconditionError):
        alon_kleitman_weighted(
            WeightedSet.uniform(MultSet(build_group("sym:3"), [(1, 0, 2)]))
        )
    with pytest.raises(PreconditionError):
        alon_kleitman_weighted(
            WeightedSet.uniform(MultSet(build_group("int"), [3]))
        )
    g = build_group("cyclic:5")
    with pytest.raises(PreconditionError):
        alon_kleitman_weighted(WeightedSet(MultSet(g, []), ()))


def test_solvable_extract_s3_nonidentity():
    """|C| = 5 forces the quotient branch; the three transpositions win."""
    g = build_group("sym:3")
    nonid = [k for k in g.enum_keys if k != g.identity_key]
    c = MultSet(g, nonid)
    assert naive_max_product_free_size(g, nonid) == 3
    series = derived_subnormal_series(g)
    cert = solvable_extract(c, series)
    assert cert.achieved_size == 3
    assert cert.guarantee == Fraction(5, 8)
    assert cert.verified_product_free
    witness_keys = [g.kdecode(t) for t in cert.witness]
    assert naive_is_product_free(g, witness_keys)
    assert set(witness_keys) <= set(nonid)
    # quotient branch first: 3 of the 5 elements sit outside A3
    assert cert.trace[0].stage.startswith("quotient")
    ok, problems = verify_certificate(cert, c)
    assert ok and problems == []


def test_solvable_extract_builds_only_the_quotient_it_reads(monkeypatch):
    g = build_group("dihedral:200")
    series = derived_subnormal_series(g)
    assert series.exponent == 1
    calls = []
    real = sumfree.quotient_projection

    def spy(parent, subgroup):
        calls.append((parent, frozenset(subgroup)))
        return real(parent, subgroup)

    monkeypatch.setattr(sumfree, "quotient_projection", spy)
    nonid = [k for k in g.enum_keys if k != g.identity_key]
    cert = solvable_extract(MultSet(g, nonid), series)
    assert [t.stage for t in cert.trace] == ["quotient[0]", "weighted[0]"]
    assert calls == [(series.levels[0], frozenset(series.levels[1].enum_keys))]


def test_solvable_extract_descend_branch():
    g = build_group("sym:3")
    a3 = closure_keys(g, [(1, 2, 0)])
    c = MultSet(g, [k for k in a3 if k != g.identity_key])
    series = derived_subnormal_series(g)
    cert = solvable_extract(c, series)
    assert cert.trace[0].stage.startswith("descend")
    assert cert.achieved_size >= 1
    assert cert.verified_product_free


def test_solvable_extract_heisenberg_full():
    g = build_group("heisenberg:3")
    nonid = [k for k in g.enum_keys if k != g.identity_key]
    series = derived_subnormal_series(g)
    cert = solvable_extract(MultSet(g, nonid), series)
    assert cert.guarantee == Fraction(26, 8)
    assert cert.achieved_size >= math.ceil(Fraction(26, 8))
    assert naive_is_product_free(g, [g.kdecode(t) for t in cert.witness])


def test_solvable_extract_abelian_base_only():
    g = build_group("cyclic:12")
    series = derived_subnormal_series(g)  # exponent 0, straight to the base
    assert series.exponent == 0
    c = MultSet(g, [1, 2, 5, 7, 11])
    cert = solvable_extract(c, series)
    assert cert.achieved_size >= math.ceil(Fraction(len(c), 4))
    assert cert.trace[0].stage.startswith("abelian-base")


def test_solvable_extract_guarantee_scales_with_exponent():
    g = build_group("sym:4")
    series = derived_subnormal_series(g)
    assert series.exponent == 2
    nonid = [k for k in g.enum_keys if k != g.identity_key]
    cert = solvable_extract(MultSet(g, nonid), series)
    assert cert.guarantee == Fraction(23, 16)
    assert cert.achieved_size >= 2


def test_solvable_extract_preconditions():
    g = build_group("sym:3")
    series = derived_subnormal_series(g)
    with pytest.raises(PreconditionError):
        solvable_extract(MultSet(g, []), series)
    with pytest.raises(PreconditionError):
        solvable_extract(MultSet(g, [g.identity_key, (1, 0, 2)]), series)
    other = build_group("cyclic:6")
    with pytest.raises(PreconditionError):
        solvable_extract(MultSet(other, [1]), series)


def test_solvable_extract_random_subsets_meet_guarantee():
    rng = random.Random(77)
    for spec in ("sym:3", "dihedral:4", "heisenberg:3"):
        g = build_group(spec)
        series = derived_subnormal_series(g)
        nonid = [k for k in g.enum_keys if k != g.identity_key]
        for _ in range(20):
            c = MultSet(g, rng.sample(nonid, rng.randint(1, len(nonid))))
            cert = solvable_extract(c, series)
            need = math.ceil(Fraction(len(c), 4 * 2**series.exponent))
            assert cert.achieved_size >= need
            assert naive_is_product_free(g, [g.kdecode(t) for t in cert.witness])


def _reference_first_character(b):
    """Index and kept keys of the first character, in canonical order, whose
    middle-third pairing keeps a quarter of the weight: one character at a
    time over the whole space."""
    moduli, rows = _embedding_rows(b.base.oracle, b.base.keys)
    n = moduli[0]
    lo, hi = interval_bounds(n)
    for i, c in enumerate(itertools.product(range(n), repeat=rows.shape[1])):
        keep = [lo <= v <= hi for v in ((rows @ np.array(c)) % n).tolist()]
        if 4 * sum(w for w, k in zip(b.weights, keep) if k) >= b.total:
            return i, [k for k, ok in zip(b.base.keys, keep) if ok]
    raise AssertionError("no quarter-weight character")


def _minus_identity(spec):
    g = build_group(spec)
    return WeightedSet.uniform(
        MultSet(g, [k for k in g.enum_keys if k != g.identity_key])
    )


def _late_hit():
    # '0,k' embeds as (k, 0), so the first 40 characters (0, j) keep nothing
    g = build_group("abelian:40,40")
    return WeightedSet.from_mapping(
        g, {g.kdecode(t): w for t, w in (("0,7", 1), ("0,2", 9), ("0,18", 1))}
    )


@pytest.mark.parametrize(
    "make,first",
    [
        (lambda: _minus_identity("cyclic:1000"), 1),
        (lambda: _minus_identity("abelian:40,40"), 1),
        (lambda: _minus_identity("abelian:6,10"), 1),
        (lambda: _minus_identity("abelian:2,2,2,2,2,2,2,2,2,8"), 1),
        (_late_hit, 280),
    ],
    ids=[
        "cyclic:1000",
        "abelian:40,40",
        "abelian:6,10",
        "abelian:2,2,2,2,2,2,2,2,2,8",
        "weighted-late-hit",
    ],
)
def test_character_scan_returns_the_first_qualifying_character(make, first):
    b = make()
    index, kept = _reference_first_character(b)
    assert index == first  # 280 lies in the third batch (64 + 128 + 256)
    assert alon_kleitman_weighted(b).keys == tuple(kept)
