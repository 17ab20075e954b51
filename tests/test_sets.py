import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from prodfree import (
    BudgetExceededError,
    DomainMismatchError,
    Element,
    MultSet,
    PreconditionError,
    approx_report,
    build_group,
    count_incident_pairs,
    frac_str,
    inverse_set,
    is_product_free,
    power_set,
    product_set,
    triple_product,
)
from prodfree.families import generate
from prodfree.groups import LawTable, subgroup_view
from prodfree import sets
from prodfree.sets import (
    FOLD_GAIN,
    FOLD_MIN_LENGTH,
    _exact_cover_size,
    _fold_axes,
    _fold_modulus,
    _greedy_cover,
    _int_grid,
    _operands,
    _pair_counts,
    _product_counts,
    _rank_points,
    _translates,
)
from conftest import (
    kmul_oracles,
    law_oracles,
    naive_incident_pairs,
    naive_is_product_free,
    naive_product_keys,
    patch_irfft,
)


def test_multset_canonical_order_and_dedup(int_group):
    x = MultSet(int_group, [3, 1, 2, 1, 3])
    assert x.keys == (1, 2, 3)
    assert len(x) == 3
    assert 2 in x
    assert Element("int", 2) in x
    assert Element("cyclic:5", 2) not in x
    assert x.encoded() == ["1", "2", "3"]


def test_multset_equality_and_hash(int_group):
    a = MultSet(int_group, [1, 2])
    b = MultSet(int_group, [2, 1])
    assert a == b and hash(a) == hash(b)
    assert a != MultSet(build_group("cyclic:7"), [1, 2])


def test_from_elements_checks_domain(int_group):
    good = [Element("int", 4)]
    assert MultSet.from_elements(int_group, good).keys == (4,)
    with pytest.raises(DomainMismatchError):
        MultSet.from_elements(int_group, [Element("cyclic:7", 4)])


def test_set_algebra_helpers(int_group):
    x = MultSet(int_group, [1, 2, 3])
    y = MultSet(int_group, [3, 4])
    assert x.union(y).keys == (1, 2, 3, 4)
    assert x.restrict([2, 9]).keys == (2,)
    assert x.intersect_keys([2, 3, 8]).keys == (2, 3)
    assert x.minus_keys([1]).keys == (2, 3)
    with pytest.raises(DomainMismatchError):
        x.union(MultSet(build_group("cyclic:5"), [1]))


def test_sumset_of_first_ten_integers(int_group):
    x = MultSet(int_group, range(1, 11))
    s = product_set(x, x)
    assert s.keys == tuple(range(2, 21))
    assert len(s) == 19


@pytest.mark.parametrize("spec", ["int", "cyclic:13", "sym:3", "heisenberg:3"])
def test_product_set_matches_naive(spec):
    g = build_group(spec)
    rng = random.Random(hash(spec) & 0xFFFF)
    pool = list(g.enum_keys) if g.enum_keys else list(range(-30, 31))
    for _ in range(20):
        ka = rng.sample(pool, rng.randint(1, min(8, len(pool))))
        kb = rng.sample(pool, rng.randint(1, min(8, len(pool))))
        x, y = MultSet(g, ka), MultSet(g, kb)
        want = naive_product_keys(g, x.keys, y.keys)
        assert product_set(x, y).key_set() == frozenset(want)


def test_numpy_path_agrees_with_naive(int_group):
    # 71 * 71 = 5041 pairs, past the vectorisation threshold
    rng = random.Random(9)
    keys = rng.sample(range(-500, 500), 71)
    x = MultSet(int_group, keys)
    want = naive_product_keys(int_group, x.keys, x.keys)
    assert product_set(x, x).key_set() == frozenset(want)

    g = build_group("cyclic:997")
    xc = MultSet(g, rng.sample(range(997), 71))
    wantc = naive_product_keys(g, xc.keys, xc.keys)
    assert product_set(xc, xc).key_set() == frozenset(wantc)


# Inputs of the counting kernel and the path each takes: "fft" when the FFT
# length (key range rounded up to a power of two, or N in cyclic:N) is at
# most |A||B|, "exact" for sparser keys, at every size.
KERNEL_CASES = [
    ("int", "dense", lambda r: r.sample(range(-100, 300), 80), "fft"),
    ("int", "negative", lambda r: r.sample(range(-5000, -4400), 70), "fft"),
    ("int", "sparse", lambda r: r.sample(range(-10**9, 10**9), 70), "exact"),
    ("int", "odd", lambda r: range(-201, 200, 2), "fft"),
    ("int", "below-threshold", lambda r: r.sample(range(-100, 100), 22), "exact"),
    ("int", "above-threshold", lambda r: r.sample(range(-100, 100), 23), "fft"),
    ("cyclic:997", "prime", lambda r: r.sample(range(997), 70), "fft"),
    ("cyclic:1000", "composite", lambda r: r.sample(range(1000), 70), "fft"),
    ("cyclic:999", "middle-third", lambda r: range(333, 666), "fft"),
    ("cyclic:100000", "sparse", lambda r: r.sample(range(100000), 70), "exact"),
]


@pytest.mark.parametrize(
    "spec,shape,keys,path", KERNEL_CASES, ids=[f"{c[0]}-{c[1]}" for c in KERNEL_CASES]
)
def test_counting_kernel_matches_naive(spec, shape, keys, path, fft_calls):
    g = build_group(spec)
    x = MultSet(g, keys(random.Random(shape)))
    assert (_operands(x, x) is None) == (path == "kmul")
    half = MultSet(g, x.keys[::2])
    assert product_set(x, x).key_set() == frozenset(naive_product_keys(g, x.keys, x.keys))
    assert product_set(x, half).key_set() == frozenset(
        naive_product_keys(g, x.keys, half.keys)
    )
    assert is_product_free(x) == naive_is_product_free(g, x.keys)
    assert count_incident_pairs(x) == naive_incident_pairs(g, x.keys)
    assert bool(fft_calls) == (path == "fft")


def test_counting_kernel_guard_failure_falls_back_exactly(monkeypatch):
    rng = random.Random(5)
    sets = [
        MultSet(build_group("int"), rng.sample(range(-300, 300), 90)),
        MultSet(build_group("cyclic:997"), rng.sample(range(997), 90)),
        MultSet(build_group("cyclic:999"), range(333, 666)),
    ]
    want = [
        (product_set(x, x), is_product_free(x), count_incident_pairs(x)) for x in sets
    ]
    calls = patch_irfft(monkeypatch, 0.6)
    got = [
        (product_set(x, x), is_product_free(x), count_incident_pairs(x)) for x in sets
    ]
    assert len(calls) == 3 * len(sets)
    assert got == want
    for x, (square, free, incident) in zip(sets, got):
        g = x.oracle
        assert square.key_set() == frozenset(naive_product_keys(g, x.keys, x.keys))
        assert free == naive_is_product_free(g, x.keys)
        assert incident == naive_incident_pairs(g, x.keys)


def test_cyclic_subgroup_view_reduces_by_the_ambient_modulus():
    g = build_group("cyclic:1000")
    h = subgroup_view(g, range(0, 1000, 10))
    x = MultSet(h, range(0, 1000, 10))  # 10^4 pairs, past the threshold
    assert product_set(x, x).key_set() == frozenset(naive_product_keys(g, x.keys, x.keys))
    assert count_incident_pairs(x) == naive_incident_pairs(g, x.keys)


BOX_SPECS = [
    "abelian:1", "abelian:5,1", "abelian:2,2,2", "abelian:6,10", "abelian:40,40",
    "abelian:7,11,13", "cyclic:1", "cyclic:7", "cyclic:101",
]


def _naive_box_counts(g, ka, kb):
    """Pair counts of A B from the residue vectors in the keys' text, added
    coordinate-wise: neither kmul nor the kernel is used."""
    moduli = g.component_moduli
    vec = {k: tuple(map(int, g.kencode(k).split(","))) for k in {*ka, *kb}}
    out = Counter()
    for a in ka:
        for b in kb:
            s = (str((x + y) % m) for x, y, m in zip(vec[a], vec[b], moduli))
            out[g.kdecode(",".join(s))] += 1
    return out


@pytest.mark.parametrize("spec", BOX_SPECS)
def test_box_kernel_matches_naive_counter(spec):
    # the dense path runs when the box has at most |A||B| cells, the exact
    # outer-sum path otherwise
    g = build_group(spec)
    n = g.order
    rng = random.Random(spec)
    paths = Counter()
    for _ in range(60):
        ka = sorted(rng.sample(range(n), rng.randint(1, min(n, 120))))
        kb = sorted(rng.sample(range(n), rng.randint(1, min(n, 120))))
        sums, counts = _pair_counts(
            np.array(ka, dtype=np.int64), np.array(kb, dtype=np.int64), g.component_moduli
        )
        assert sums.tolist() == sorted(set(sums.tolist()))
        assert dict(zip(sums.tolist(), counts.tolist())) == _naive_box_counts(g, ka, kb)
        paths["fft" if n <= len(ka) * len(kb) else "exact"] += 1
    assert paths["fft"] and (paths["exact"] or n == 1)


# (spec, |X|, |Y|, path): "fft" when order <= |X||Y|; "direct" instead of
# "fft" on one axis Z_N when the shorter operand has at most
# max(8, min(N // 128, 255)) keys; "exact" in a larger box, at every size
BOX_GATE_CASES = [
    ("abelian:40,40", 50, 40, "fft"),
    ("abelian:40,40", 30, 30, "exact"),
    ("abelian:40,40", 20, 20, "exact"),
    ("abelian:7,11,13", 40, 30, "fft"),
    ("abelian:7,11,13", 20, 20, "exact"),
    ("abelian:100,100", 70, 70, "exact"),
    ("cyclic:101", 12, 10, "fft"),
    ("cyclic:101", 10, 10, "exact"),
    ("abelian:6,10", 8, 8, "fft"),
    ("cyclic:101", 20, 8, "direct"),
    ("cyclic:1000", 7, 200, "direct"),
    ("cyclic:1000", 200, 9, "fft"),
    ("abelian:1000", 200, 8, "direct"),
    ("cyclic:100000", 400, 255, "direct"),
    ("cyclic:100000", 400, 256, "fft"),
]


@pytest.mark.parametrize(
    "spec,nx,ny,path", BOX_GATE_CASES, ids=[f"{c[0]}-{c[1]}x{c[2]}" for c in BOX_GATE_CASES]
)
def test_box_products_take_the_gated_path(spec, nx, ny, path, fft_calls, monkeypatch):
    shift_calls = []
    shift_counts = sets._shift_counts
    monkeypatch.setattr(
        sets, "_shift_counts", lambda *args: shift_calls.append(1) or shift_counts(*args)
    )
    g = build_group(spec)
    rng = random.Random(f"{spec} {nx} {ny}")
    x = MultSet(g, rng.sample(range(g.order), nx))
    y = MultSet(g, rng.sample(range(g.order), ny))
    want = _naive_box_counts(g, x.keys, y.keys)
    assert _product_counts(x, y) == want
    assert product_set(x, y).key_set() == frozenset(want)
    assert len(fft_calls) == (2 if path == "fft" else 0)
    assert len(shift_calls) == (2 if path == "direct" else 0)
    pairs = len(x) * len(y)
    if g.order > pairs:
        assert path == "exact"
    elif len(g.component_moduli) == 1 and min(nx, ny) <= max(8, min(g.order // 128, 255)):
        assert path == "direct"
    else:
        assert path == "fft"


def test_box_kernel_guard_failure_falls_back_exactly(monkeypatch):
    rng = random.Random(6)
    sets = [
        MultSet(build_group("abelian:40,40"), rng.sample(range(1600), 90)),
        MultSet(build_group("abelian:7,11,13"), rng.sample(range(1001), 40)),
    ]
    calls = patch_irfft(monkeypatch, 0.6)
    for x in sets:
        g = x.oracle
        assert product_set(x, x).key_set() == frozenset(
            _naive_box_counts(g, x.keys, x.keys)
        )
        assert is_product_free(x) == naive_is_product_free(g, x.keys)
        assert count_incident_pairs(x) == naive_incident_pairs(g, x.keys)
    assert len(calls) == 3 * len(sets)


def test_abelian_subgroup_view_stays_on_kmul(fft_calls):
    g = build_group("abelian:6,10")
    h = subgroup_view(g, [k for k in g.enum_keys if g.kencode(k).endswith((",0", ",5"))])
    x = MultSet(h, h.enum_keys)  # 12 points: 144 pairs, a 12-element view
    assert product_set(x, x).key_set() == frozenset(naive_product_keys(g, x.keys, x.keys))
    assert not fft_calls


def test_product_set_empty_operand(int_group):
    x = MultSet(int_group, [1, 2])
    e = MultSet(int_group, [])
    assert len(product_set(x, e)) == 0
    assert len(product_set(e, x)) == 0


def test_product_budget_enforced(int_group):
    big = MultSet(int_group, range(3000))
    with pytest.raises(BudgetExceededError):
        product_set(big, big, budget=10**5)
    small = MultSet(int_group, range(40))
    with pytest.raises(BudgetExceededError):
        product_set(small, small, budget=10)  # 1600 pairs on the sums kernel


@pytest.mark.parametrize("spec", ["int", "cyclic:1000", "abelian:40,40"])
def test_product_budget_bounds_pairs_at_every_size(spec):
    # 20 keys: 400 pairs, 39 distinct products, on the sums kernel all the same
    g = build_group(spec)
    x = MultSet(g, range(20))
    assert len(product_set(x, x, budget=400)) == 39
    with pytest.raises(BudgetExceededError, match="^product pairs 400 exceed budget 100$"):
        product_set(x, x, budget=100)


def test_power_set(int_group):
    x = MultSet(int_group, [0, 1])
    assert power_set(x, 1) == x
    assert power_set(x, 3).keys == (0, 1, 2, 3)
    with pytest.raises(PreconditionError):
        power_set(x, 0)


def test_inverse_set(int_group):
    x = MultSet(int_group, [1, -4, 2])
    assert inverse_set(x).keys == (-2, -1, 4)
    g = build_group("sym:3")
    y = MultSet(g, [(1, 2, 0)])
    assert inverse_set(y).keys == ((2, 0, 1),)


def test_is_product_free_small_cases(int_group):
    assert is_product_free(MultSet(int_group, [2, 3]))
    assert not is_product_free(MultSet(int_group, [1, 2]))  # 1 + 1 = 2
    assert not is_product_free(MultSet(int_group, [1, 2, 3]))
    assert is_product_free(MultSet(int_group, []))


@pytest.mark.parametrize("spec", ["int", "cyclic:11", "sym:3"])
def test_product_freeness_matches_naive(spec):
    g = build_group(spec)
    rng = random.Random(len(spec))
    pool = list(g.enum_keys) if g.enum_keys else list(range(-20, 21))
    for _ in range(40):
        ks = rng.sample(pool, rng.randint(1, min(7, len(pool))))
        x = MultSet(g, ks)
        assert is_product_free(x) == naive_is_product_free(g, x.keys)
        assert count_incident_pairs(x) == naive_incident_pairs(g, x.keys)


def test_incident_pairs_tiny_example(int_group):
    # {1,2,3}: 1+1=2, 1+2=3, 2+1=3 are the incident pairs
    x = MultSet(int_group, [1, 2, 3])
    assert naive_incident_pairs(int_group, x.keys) == 3
    assert count_incident_pairs(x) == 3


def test_incident_pairs_numpy_path(int_group):
    x = MultSet(int_group, range(-40, 41))  # 81^2 pairs, vectorised
    assert count_incident_pairs(x) == naive_incident_pairs(int_group, x.keys)
    assert is_product_free(x) == naive_is_product_free(int_group, x.keys)


def _naive_min_cover(g, x_keys, square, side):
    """Smallest number of translates of X (from X) covering X^2."""
    import itertools

    cands = []
    for t in x_keys:
        if side in ("left", "two-sided"):
            cands.append(frozenset(g.kmul(t, b) for b in x_keys) & square)
        if side in ("right", "two-sided"):
            cands.append(frozenset(g.kmul(b, t) for b in x_keys) & square)
    for size in range(1, len(cands) + 1):
        for combo in itertools.combinations(cands, size):
            if frozenset().union(*combo) == square:
                return size
    raise AssertionError("translates never covered the square")


def test_approx_report_symmetric_interval(int_group):
    x = MultSet(int_group, [-1, 0, 1])
    rep = approx_report(x, k=2)
    assert rep.size == 3
    assert rep.doubling == Fraction(5, 3)
    assert rep.tripling == Fraction(7, 3)
    assert rep.symmetric and rep.has_identity
    square = naive_product_keys(int_group, x.keys, x.keys)
    want = _naive_min_cover(int_group, x.keys, frozenset(square), "left")
    assert rep.covering_exact == want == 2
    assert rep.covering_upper >= rep.covering_exact
    assert rep.is_k_approx is True
    assert approx_report(x, k=Fraction(3, 2)).is_k_approx is False


def test_approx_report_not_symmetric(int_group):
    rep = approx_report(MultSet(int_group, [1, 2]))
    assert not rep.symmetric and not rep.has_identity
    assert rep.k is None and rep.is_k_approx is None


@pytest.mark.parametrize("side", ["left", "right", "two-sided"])
def test_exact_cover_matches_brute_force(side):
    rng = random.Random(3)
    for spec in ("sym:3", "cyclic:12", "int"):
        g = build_group(spec)
        pool = list(g.enum_keys) if g.enum_keys is not None else list(range(-8, 9))
        for _ in range(12):
            ks = rng.sample(pool, rng.randint(2, 5))
            x = MultSet(g, ks)
            square = frozenset(naive_product_keys(g, ks, ks))
            want = _naive_min_cover(g, x.keys, square, side)
            rep = approx_report(x, translate_side=side)
            assert rep.covering_upper >= rep.covering_exact == want


def test_exact_cover_node_budget_aborts(int_group):
    # X^2 = {0,1,2,3,4,6} needs all three translates, above the root's
    # bound ceil(|X^2|/|X|) = 2, so the search must branch past one node
    x = MultSet(int_group, [0, 1, 3])
    square = product_set(x, x)
    masks = _translates(x, square, "left")
    full = (1 << len(square)) - 1
    upper = len(_greedy_cover(full, masks))
    assert upper == 3
    assert _exact_cover_size(full, masks, upper, node_budget=1) is None
    assert _exact_cover_size(full, masks, upper) == 3


def _naive_translates(g, x_keys, square_keys, side):
    """Masks and hitter lists from raw kmul: bit i of mask r is set iff
    translate r holds the i-th key of X^2; hitter lists increase."""
    where = {k: i for i, k in enumerate(square_keys)}
    masks = []
    for t in x_keys:
        for s in {"left": "L", "right": "R", "two-sided": "LR"}[side]:
            masks.append(
                sum(1 << where[g.kmul(t, b) if s == "L" else g.kmul(b, t)] for b in x_keys)
            )
    hitters = [[r for r, m in enumerate(masks) if m >> i & 1] for i in range(len(square_keys))]
    return masks, hitters


def _translate_cases():
    """(name, group, keys, kernel): kernel says whether X X takes the sums
    kernel."""
    rng = random.Random(9)
    cyc = build_group("cyclic:1000")
    return [
        ("int-dense", build_group("int"), range(-40, 40), True),
        ("int-sparse", build_group("int"), rng.sample(range(-10**6, 10**6), 70), True),
        ("int-huge", build_group("int"), [2**60 + k for k in rng.sample(range(500), 70)], False),
        ("int-small", build_group("int"), [0, 1, 3, 7, 12], True),
        ("cyclic:101", build_group("cyclic:101"), rng.sample(range(101), 30), True),
        ("cyclic:5003", build_group("cyclic:5003"), rng.sample(range(5003), 80), True),
        ("abelian:6,10", build_group("abelian:6,10"), rng.sample(range(60), 17), True),
        ("cyclic:1000-view", subgroup_view(cyc, range(0, 1000, 10)), range(0, 1000, 20), False),
        ("dihedral:6", build_group("dihedral:6"), None, False),
        ("heisenberg:5", build_group("heisenberg:5"), None, False),
    ]


@pytest.mark.parametrize("side", ["left", "right", "two-sided"])
@pytest.mark.parametrize("case", _translate_cases(), ids=lambda c: c[0])
def test_translates_match_naive_kmul(case, side):
    _, g, keys, kernel = case
    if keys is None:
        keys = random.Random(g.domain).sample(list(g.enum_keys), 9)
    x = MultSet(g, keys)
    operands = _operands(x, x)
    assert (operands is not None and operands.table is None) == kernel
    square = product_set(x, x)
    assert square.key_set() == frozenset(naive_product_keys(g, x.keys, x.keys))
    want_masks, want_hitters = _naive_translates(g, x.keys, square.keys, side)
    masks = _translates(x, square, side)
    assert masks == want_masks
    # the points renumbered by increasing hitter count, ties by position
    order = sorted(range(len(square)), key=lambda i: len(want_hitters[i]))
    full = (1 << len(square)) - 1
    assert _rank_points(full, masks) == (
        full,
        [sum(1 << j for j, i in enumerate(order) if m >> i & 1) for m in masks],
        [want_hitters[i] for i in order],
    )


def _shift_cases():
    """(name, keys or family spec, path) over ``int``, seeded: ``shift``
    where X + X fills the box of X's fold, ``index`` where it cannot, None
    where the path is not asserted."""
    rng = random.Random(25)
    cases = [
        ("one-point", [rng.randint(-99, 99)], "shift"),
        ("interval", "interval:50", "shift"),
        ("gap-2-10x10", "gap:2:10,10:1,100", "shift"),
        ("gap-2-7x7", "gap:2:7,7:1,1000", "shift"),
        # an interval of 25 in rows 100 apart: a rank-2 box of rank-3 keys
        ("gap-3-2x2x2", "gap:3:2,2,2:1,5,100", "shift"),
        # residues -5..5 mod 20: the sums' residues span 21 > 20
        ("gap-2-5x5-carry", "gap:2:5,5:1,20", "index"),
    ]
    for i in range(12):
        lo, step = rng.randint(-500, 500), rng.randint(1, 8)
        cases.append((f"ap-{i}", [lo + step * j for j in range(rng.randint(2, 80))], "shift"))
        # a box of rows r < width spaced m apart: no carry while 2 width - 1 <= m
        width, rows = rng.randint(2, 9), rng.randint(2, 9)
        m = rng.randint(2 * width - 1, 60)
        box = [lo + r + m * q for q in range(rows) for r in range(width)]
        cases.append((f"box-{i}", box, "shift"))
        # missing its first corner, X + X misses that corner's double
        cases.append((f"corner-{i}", box[1:], "index"))
        # missing the point at row 1, column 1 (inner from 3 x 3 on): X + X may still fill the box
        cases.append((f"inner-{i}", box[:width + 1] + box[width + 2 :], None))
        # rows of 3 or more spaced below 2 wide - 1 carry into the next row
        wide = width + 1
        stride = rng.randint(wide + 1, 2 * wide - 2)
        carry = [lo + r + stride * q for q in range(rows) for r in range(wide)]
        cases.append((f"carry-{i}", carry, "index"))
        cases.append((f"random-{i}", rng.sample(range(-3000, 3000), rng.randint(2, 90)), "index"))
    return cases


def _shift_id(case):
    # inputs of at most 22 keys keep the ids they had while their path went
    # unasserted: name-spec- rather than name-spec-path
    name, keys, path = case
    spec = keys if isinstance(keys, str) else ""
    shown = path if path and (spec or len(keys) > 22) else ""
    return f"{name}-{spec}-{shown}"


SHIFT_CASES = _shift_cases()


@pytest.mark.parametrize("name,keys,path", SHIFT_CASES, ids=[_shift_id(c) for c in SHIFT_CASES])
def test_shift_masks_match_naive_translates(name, keys, path, monkeypatch):
    g = build_group("int")
    x = generate(keys) if isinstance(keys, str) else MultSet(g, keys)
    square = product_set(x, x)
    ran = []

    def spy(*args, _shift=sets._shift_masks):
        masks = _shift(*args)
        ran.append("index" if masks is None else "shift")
        return masks

    monkeypatch.setattr(sets, "_shift_masks", spy)
    for side in ("left", "right", "two-sided"):
        ran.clear()
        assert _translates(x, square, side) == _naive_translates(g, x.keys, square.keys, side)[0]
        if path is not None:
            assert ran == [path]
        else:
            assert len(ran) == 1


@pytest.mark.parametrize(
    "spec,path",
    [
        ("interval:30", "sums"),
        ("gap:2:5,5:1,20", "sums"),
        ("random:cyclic:128:20", "sums"),
        ("heisenberg-ball:11:1", "law"),
        ("random:dihedral:30:16", "law"),
        ("random:sym:5:20", "kmul"),
    ],
)
def test_tripling_counts_the_cube_product_set(spec, path):
    x = generate(spec, seed=7)
    square = product_set(x, x)
    operands = _operands(square, x)
    taken = "kmul" if operands is None else "sums" if operands.table is None else "law"
    assert taken == path
    cube = product_set(square, x)
    assert cube.key_set() == frozenset(naive_product_keys(x.oracle, square.keys, x.keys))
    assert approx_report(x).tripling == Fraction(len(cube), len(x))


def test_exact_cover_root_bound_settles_without_hitters(monkeypatch):
    # on interval:300 the root's bound ceil(|X^2|/|X|) = 2 meets the greedy
    # cover, so the points are never ranked nor hitter lists built
    x = MultSet(build_group("int"), range(-300, 301))
    square = product_set(x, x)
    masks = _translates(x, square, "left")
    full = (1 << len(square)) - 1
    upper = len(_greedy_cover(full, masks))

    def unexpected(*args):
        raise AssertionError("hitter lists built")

    monkeypatch.setattr("prodfree.sets._rank_points", unexpected)
    assert _exact_cover_size(full, masks, upper) == upper == 2
    assert _exact_cover_size(full, masks, upper, node_budget=0) is None


@pytest.mark.parametrize(
    "spec,seed,budget,want",
    [("heisenberg-ball:11:2", None, 17, 16), ("random:cyclic:128:20", 7, 696, 12)],
)
def test_exact_cover_keeps_its_branching(spec, seed, budget, want):
    # the node count at which each search settles: the branching point and
    # child order at every node fix it, so the search must keep both
    x = generate(spec, seed=seed)
    square = product_set(x, x)
    masks = _translates(x, square, "left")
    full = (1 << len(square)) - 1
    upper = len(_greedy_cover(full, masks))
    assert upper > want
    assert _exact_cover_size(full, masks, upper, node_budget=budget - 1) is None
    assert _exact_cover_size(full, masks, upper, node_budget=budget) == want


def test_exact_cover_rejects_masks_missing_a_point():
    with pytest.raises(PreconditionError):
        _exact_cover_size(0b1111, [0b0011, 0b0100], 3)
    with pytest.raises(PreconditionError):
        _exact_cover_size(0b1, [], 1)


def test_approx_report_rejects_empty(int_group):
    with pytest.raises(PreconditionError):
        approx_report(MultSet(int_group, []))
    with pytest.raises(PreconditionError):
        approx_report(MultSet(int_group, [1]), translate_side="up")


def test_frac_str():
    assert frac_str(Fraction(5, 8)) == "5/8"
    assert frac_str(Fraction(3)) == "3/1"


@pytest.mark.parametrize("name", [*law_oracles(), *kmul_oracles()])
def test_table_path_matches_raw_kmul(name):
    # the law groups read every product from their law, the others multiply
    # on kmul, and both give the naive counts, products and translates
    laws = law_oracles()
    g = laws.get(name) or kmul_oracles()[name]
    rng = random.Random(name)
    keys = list(g.enum_keys)
    top = len(keys) if len(keys) <= 125 else 60  # any size, up to 60 points in a large group
    for _ in range(25):
        x = MultSet(g, rng.sample(keys, rng.randint(1, top)))
        y = MultSet(g, rng.sample(keys, rng.randint(1, top)))
        operands = _operands(x, y)
        assert operands.table is g.law if name in laws else operands is None
        want = Counter(g.kmul(a, b) for a in x.keys for b in y.keys)
        assert _product_counts(x, y) == want
        assert product_set(x, y).key_set() == frozenset(want)
        assert count_incident_pairs(x) == naive_incident_pairs(g, x.keys)
        square = product_set(x, x)
        for side in ("left", "right", "two-sided"):
            want_masks, _ = _naive_translates(g, x.keys, square.keys, side)
            assert _translates(x, square, side) == want_masks


def test_table_path_budget_and_empty_sets():
    g = build_group("dihedral:6")
    x = MultSet(g, range(12))
    assert _operands(x, x).table is g.law
    # 144 pairs, 12 distinct products: the budget bounds the products
    assert len(product_set(x, x, budget=12)) == 12
    with pytest.raises(BudgetExceededError, match="^product set grew past budget 11$"):
        product_set(x, x, budget=11)
    # an empty operand gives empty answers on every kernel
    for g in (g, build_group("int"), build_group("cyclic:1000"), build_group("abelian:40,40")):
        x, empty = MultSet(g, range(12)), MultSet(g, [])
        assert _product_counts(x, empty) == Counter() == _product_counts(empty, x)
        assert count_incident_pairs(empty) == 0 and is_product_free(empty)
        assert len(product_set(x, empty)) == 0 == len(product_set(empty, x))
        for triple in ((empty, x, x), (x, empty, x), (x, x, empty)):
            assert len(triple_product(*triple)) == 0


def test_table_gate_follows_the_pair_count():
    # no pair count opens a table path in sym:6 (order 720), which has no
    # law: 20 points, the 6400 pairs of 80 points and their cube all take kmul
    s6 = build_group("sym:6")
    assert s6.law is None
    keys = random.Random(6).sample(s6.enum_keys, 100)
    small = MultSet(s6, keys[:20])
    big = MultSet(s6, keys[20:])
    assert _operands(small, small) is None
    assert _operands(big, big) is None
    square = product_set(big, big)
    assert square.key_set() == frozenset(naive_product_keys(s6, big.keys, big.keys))
    assert _operands(square, big) is None
    assert product_set(square, big).key_set() == frozenset(
        naive_product_keys(s6, square.keys, big.keys)
    )
    # a law is there from the start, so even the 27-point ball reads it
    ball = generate("heisenberg-ball:11:1")
    assert _operands(ball, ball).table is ball.oracle.law is not None


def test_table_path_falls_back_to_kmul_off_the_enumeration():
    # a set on a subgroup view holding a key of the parent outside the view
    s4 = build_group("sym:4")
    view = subgroup_view(s4, [(0, 1, 2, 3), (1, 0, 2, 3)])
    x = MultSet(view, [(1, 0, 2, 3), (0, 2, 1, 3)])
    assert _operands(x, x) is None
    assert product_set(x, x).key_set() == frozenset(naive_product_keys(s4, x.keys, x.keys))


def _int_keys(keys):
    return np.array(sorted(keys), dtype=np.int64)


def _fold_cases():
    """(name, A, B) int key lists that :func:`_int_grid` folds onto two
    axes: the low and high blocks that halving takes from a GAP (its first
    and last 40% of keys), a random subset, and negative keys."""
    rng = random.Random(17)
    cases = []
    for spec in ("gap:2:15,15:1,1000", "gap:2:10,10:1,300", "gap:3:4,4,4:1,50,5000"):
        keys = list(generate(spec).keys)
        cut = len(keys) * 2 // 5
        low, high = keys[:cut], keys[-cut:]
        subset = rng.sample(keys, len(keys) // 2)
        negative = [-k - 7 for k in high]
        cases += [
            (f"{spec} low x high", low, high),
            (f"{spec} high x low", high, low),
            (f"{spec} subset x low", subset, low),
            (f"{spec} negative x negative", negative, negative),
            (f"{spec} negative x low", negative, low),
        ]
    return cases


FOLD_CASES = _fold_cases()


@pytest.mark.parametrize("name,ka,kb", FOLD_CASES, ids=[c[0] for c in FOLD_CASES])
def test_fold_matches_naive_counter(name, ka, kb):
    a, b = _int_keys(ka), _int_keys(kb)
    grid = _int_grid(a, b)
    assert len(grid.shape) == 2 and grid.stride > 0
    values, counts = _pair_counts(a, b)
    want = Counter(x + y for x in ka for y in kb)
    assert values.tolist() == sorted(want)
    assert counts.tolist() == [want[v] for v in sorted(want)]


def _drifting_rows():
    """32 rows of 20 keys a row stride of 1000 apart, the last 16 shifted
    492 to the right: the residues mod 1000 span 512, so a sum's residue
    spans 1023 > 1000 and a fold would map two sums to one cell."""
    return [1000 * j + 492 * (j >= 16) + i for j in range(32) for i in range(20)]


def test_fold_needs_residues_within_the_stride(monkeypatch):
    a = _int_keys(_drifting_rows())
    assert _fold_modulus(a) == 1000
    # with the cost gate open the fold's grid would be small enough, so only
    # the exactness guard keeps the pair on one axis
    monkeypatch.setattr("prodfree.sets.FOLD_GAIN", 1)
    assert _int_grid(a, a).shape == (65536,)
    values, counts = _pair_counts(a, a)
    want = Counter(x + y for x in a.tolist() for y in a.tolist())
    assert dict(zip(values.tolist(), counts.tolist())) == want
    assert values.tolist() == sorted(want)


def test_fold_guard_failure_falls_back_exactly(monkeypatch):
    x = generate("gap:2:10,10:1,300")
    cut = len(x) * 2 // 5
    blocks = [(x, x), (MultSet(x.oracle, x.keys[:cut]), MultSet(x.oracle, x.keys[-cut:]))]
    for u, v in blocks:
        assert len(_int_grid(_int_keys(u.keys), _int_keys(v.keys)).shape) == 2
    want = [(_product_counts(u, v), product_set(u, v)) for u, v in blocks]
    free, incident = is_product_free(x), count_incident_pairs(x)
    calls = patch_irfft(monkeypatch, 0.6)
    got = [(_product_counts(u, v), product_set(u, v)) for u, v in blocks]
    assert (is_product_free(x), count_incident_pairs(x)) == (free, incident)
    assert len(calls) == 2 * len(blocks) + 2
    assert got == want
    for (u, v), (counts, square) in zip(blocks, got):
        naive = Counter(a + b for a in u.keys for b in v.keys)
        assert counts == naive and square.keys == tuple(sorted(naive))
    assert incident == naive_incident_pairs(x.oracle, x.keys)


def _transform_ranks(monkeypatch):
    """From now on, record the rank of every inverse real FFT: 1 for the
    kernel's one-axis grid, 2 for a folded or two-factor box grid."""
    ranks = []
    for name in ("irfft", "irfftn"):

        def spy(*args, _inverse=getattr(np.fft, name), **kwargs):
            out = _inverse(*args, **kwargs)
            ranks.append(out.ndim)
            return out

        monkeypatch.setattr(np.fft, name, spy)
    return ranks


def test_sparse_gap_square_takes_the_fold(monkeypatch):
    gap, interval = generate("gap:2:15,15:1,1000"), generate("interval:300")
    ranks = _transform_ranks(monkeypatch)
    assert len(product_set(gap, gap)) == 61 * 61
    assert ranks == [2]
    ranks.clear()
    assert len(product_set(interval, interval)) == 1201
    assert ranks == [1]


def test_sparse_table_path_sorts_instead_of_counting(monkeypatch):
    # the 1-ball in heisenberg:97 (order 912673): every product, the incident
    # pairs and the translates have fewer pairs than the group has positions
    x = generate("heisenberg-ball:97:1")
    g = x.oracle
    assert isinstance(g.law, LawTable) and g.law.order == 97**3
    lengths, sorts = [], []

    def bincount(values, *args, _count=np.bincount, **kwargs):
        lengths.append(kwargs.get("minlength"))
        return _count(values, *args, **kwargs)

    def unique(values, *args, _unique=np.unique, **kwargs):
        sorts.append(len(values))
        return _unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", bincount)
    monkeypatch.setattr(np, "unique", unique)
    tracemalloc.start()
    square = product_set(x, x)
    cube = product_set(square, x)
    counts = _product_counts(square, x)
    incident = count_incident_pairs(square)
    masks = _translates(x, square, "two-sided")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert g.order not in lengths and len(x) ** 2 in sorts
    # the edge, in dihedral:6 (order 12): 12 pairs count, 9 pairs sort
    d6 = build_group("dihedral:6")
    lengths.clear(), sorts.clear()
    assert _product_counts(MultSet(d6, [1, 4, 7]), MultSet(d6, [0, 2, 5, 11])) == Counter(
        d6.kmul(a, b) for a in (1, 4, 7) for b in (0, 2, 5, 11)
    )
    assert (lengths, sorts) == ([12], [])
    small = product_set(MultSet(d6, [1, 4, 7]), MultSet(d6, [0, 2, 5]))
    assert small.key_set() == naive_product_keys(d6, [1, 4, 7], [0, 2, 5])
    assert lengths == [12] and sorts == [9]
    # a dict over the enumeration's 912673 keys alone would take over 40 MB
    assert peak < 8 << 20
    want = Counter(g.kmul(a, b) for a in square.keys for b in x.keys)
    assert counts == want and cube.key_set() == frozenset(want)
    assert square.key_set() == frozenset(naive_product_keys(g, x.keys, x.keys))
    assert incident == naive_incident_pairs(g, square.keys)
    assert masks == _naive_translates(g, x.keys, square.keys, "two-sided")[0]


def _int_grid_folding_both(a, b):
    """:func:`_int_grid` as it was before the larger operand could reject a
    fold on its own: both operands folded, then one gate."""
    a0, b0 = int(a[0]), int(b[0])
    length = int(a[-1] + b[-1]) - a0 - b0 + 1
    n = 1 << (length - 1).bit_length()
    if n > len(a) * len(b):
        return None
    if n >= FOLD_MIN_LENGTH and n >= FOLD_GAIN * (len(a) + len(b) - 1):
        m = _fold_modulus(a if len(a) >= len(b) else b)
        if m is not None:
            ca, qa, ra = _fold_axes(a, m)
            cb, qb, rb = _fold_axes(b, m)
            rows = int(qa[-1] + qb[-1]) + 1
            cols = int(ra.max() + rb.max()) + 1
            width = 1 << (cols - 1).bit_length()
            shape = (1 << (rows - 1).bit_length(), width)
            if cols <= m and FOLD_GAIN * math.prod(shape) <= n:
                return (shape, qa * width + ra, qb * width + rb, ca + cb, width, m)
    return ((n,), a - a0, b - b0, a0 + b0, 0, 0)


def _grid_operands():
    """Int operand pairs for :func:`_int_grid`: the GAP blocks of
    FOLD_CASES, random sparse sets, intervals, and a fold whose grid is
    exactly n / FOLD_GAIN cells, as are the larger operand's spans alone."""
    rng = random.Random(29)
    pairs = [(_int_keys(ka), _int_keys(kb)) for _, ka, kb in FOLD_CASES]
    edge = _int_keys(generate("gap:2:8,16:1,128").keys)
    pairs.append((edge, edge[:16]))
    for size in (50, 300, 1000, 3000):
        for span in (10**4, 10**6):
            pairs.append(tuple(
                _int_keys(rng.sample(range(-span // 3, span), size)) for _ in range(2)
            ))
    pairs += [(_int_keys(range(0, 3000, 3)), _int_keys(range(100, 600)))] * 2
    return pairs


def test_int_grid_rejects_a_fold_from_the_larger_operand(monkeypatch):
    folds = []

    def fold_axes(keys, m, _fold=_fold_axes):
        folds.append(len(keys))
        return _fold(keys, m)

    monkeypatch.setattr("prodfree.sets._fold_axes", fold_axes)
    seen = Counter()
    for a, b in _grid_operands():
        folds.clear()
        got, want = _int_grid(a, b), _int_grid_folding_both(a, b)
        if want is None:
            assert got is None
            continue
        assert (got.shape, got.base, got.width, got.stride) == (want[0], *want[3:])
        assert np.array_equal(got.cells[0], want[1]) and np.array_equal(got.cells[1], want[2])
        if folds:
            assert folds[0] == max(len(a), len(b))
        seen[len(folds), len(got.shape)] += 1
    # folds taken, folds rejected from the larger operand alone, no fold tried
    assert seen[2, 2] and seen[1, 1] and seen[0, 1]


def _product_inputs():
    """(name, X, Y): every KERNEL_CASES input times itself and its every
    other key, and random pairs in every BOX_SPECS group."""
    out = []
    for spec, shape, keys, _ in KERNEL_CASES:
        g = build_group(spec)
        x = MultSet(g, keys(random.Random(shape)))
        half = MultSet(g, x.keys[::2])
        out += [(f"{spec}-{shape}", x, x), (f"{spec}-{shape}-half", x, half)]
    for spec in BOX_SPECS:
        g = build_group(spec)
        rng = random.Random(spec)
        for i in range(4):
            ka = rng.sample(range(g.order), rng.randint(1, min(g.order, 120)))
            kb = rng.sample(range(g.order), rng.randint(1, min(g.order, 120)))
            out.append((f"{spec}-{i}", MultSet(g, ka), MultSet(g, kb)))
    return out


PRODUCT_INPUTS = _product_inputs()


@pytest.mark.parametrize("name,x,y", PRODUCT_INPUTS, ids=[c[0] for c in PRODUCT_INPUTS])
def test_kernel_products_match_the_sorting_constructor(name, x, y):
    g = x.oracle
    want = MultSet(g, naive_product_keys(g, x.keys, y.keys))
    got = product_set(x, y)
    assert got == want and got.key_set() == want.key_set()
    assert MultSet._from_sorted(g, list(want.keys)) == want


def _eager_greedy_cover(full, masks):
    """The greedy cover by recounting every mask at every pick."""
    remaining = full
    picks = []
    while remaining:
        best, best_gain = -1, 0
        for i, m in enumerate(masks):
            gain = (remaining & m).bit_count()
            if gain > best_gain:
                best, best_gain = i, gain
        if best < 0:
            return None
        picks.append(best)
        remaining &= ~masks[best]
    return picks


def test_lazy_greedy_cover_picks_as_the_eager_one():
    rng = random.Random(40)
    for trial in range(400):
        width = rng.randint(1, 48)
        full = (1 << width) - 1
        # few distinct masks and gains, so ties are everywhere
        pool = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randint(1, 6))]
        masks = [rng.choice(pool) for _ in range(rng.randint(0, 30))]
        want = _eager_greedy_cover(full, masks)
        if want is None:
            with pytest.raises(PreconditionError):
                _greedy_cover(full, masks)
        else:
            assert _greedy_cover(full, masks) == want
