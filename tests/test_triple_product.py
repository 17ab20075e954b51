"""triple_product against the two-step chain and a naive (A B) C.

The inputs are drawn with a seeded numpy generator: dense and sparse
``int`` sets, GAP blocks that take the two-axis fold, keys near +-2^59,
``cyclic:N`` and ``abelian:*`` boxes, and ``dihedral:n``, which has no sums
kernel and always runs the chain.
"""

from collections import Counter

import numpy as np
import pytest

from prodfree import (
    BudgetExceededError,
    MultSet,
    build_group,
    inverse_set,
    product_set,
    triple_product,
)
from prodfree import sets
from prodfree.families import generate
from conftest import naive_product_keys, patch_irfft

BIG = 2**59


def _subset(rng, keys, size):
    keys = np.asarray(keys)
    return sorted(rng.choice(keys, size=min(size, len(keys)), replace=False).tolist())


def _gap_blocks(spec):
    """The low and the high 40% of a GAP's keys, the halving's parts."""
    keys = list(generate(spec).keys)
    cut = len(keys) * 2 // 5
    return keys[:cut], keys[-cut:]


def _triple_cases():
    """(kind, oracle, X, Y, Z) key lists, from one seeded generator."""
    rng = np.random.default_rng(2028)
    cases = []
    z = build_group("int")
    for _ in range(6):
        n = int(rng.integers(20, 120))
        lo = int(rng.integers(-500, 500))
        dense = np.arange(lo, lo + 2 * n)
        cases.append(("int-dense", z, *(_subset(rng, dense, n) for _ in range(3))))
    for _ in range(6):
        span = int(rng.choice([10**3, 10**4, 10**6]))
        pool = np.arange(-span, span)
        sizes = rng.integers(25, 90, size=3)
        cases.append(("int-sparse", z, *(_subset(rng, pool, int(s)) for s in sizes)))
    for spec in ("gap:2:15,15:1,1000", "gap:2:10,10:1,300", "gap:3:4,4,4:1,50,5000"):
        low, high = _gap_blocks(spec)
        cases.append(("int-gap", z, low, low, low))
        cases.append(("int-gap", z, high, high, high))
        cases.append(("int-gap", z, low, high, _subset(rng, high, len(high) // 2)))
    for shift in (BIG - 300, -BIG - 100):
        keys = np.arange(shift, shift + 400)
        cases.append(("int-big", z, *(_subset(rng, keys, 60) for _ in range(3))))
    # a key of Z past int64: X Y would take a grid, but (X Y) Z runs the chain
    cases.append(("int-big", z, list(range(40)), list(range(30)), [0, 2**63]))
    for spec, sizes in (
        ("cyclic:1000", (40, 40, 30)),
        ("cyclic:1000", (25, 25, 20)),  # X Y below the box: the chain
        ("cyclic:5003", (90, 80, 40)),
        ("abelian:40,40", (50, 40, 30)),
        ("abelian:40,40", (30, 30, 30)),  # the chain
        ("abelian:7,11,13", (40, 30, 20)),
    ):
        g = build_group(spec)
        cases.append(("box", g, *(_subset(rng, np.arange(g.order), s) for s in sizes)))
    for n in (6, 50):
        g = build_group(f"dihedral:{n}")
        cases.append(("dihedral", g, *(_subset(rng, np.arange(g.order), 24) for _ in range(3))))
    # a 12 x 12 block about 0: each digit of X Y lies on an arc of 23 of 30
    g = build_group("abelian:30,30")
    block = sorted(a % 30 * 30 + b % 30 for a in range(-6, 6) for b in range(-6, 6))
    cases.append(("box-arc", g, block, block, _subset(rng, block, 100)))
    return cases


CASES = _triple_cases()
IDS = [f"{i}-{c[0]}" for i, c in enumerate(CASES)]


def _sets(case):
    _, g, *keys = case
    return [MultSet(g, k) for k in keys]


def _outcome(fn):
    try:
        return fn().keys
    except BudgetExceededError as exc:
        return str(exc)


def _chain(x, y, z, budget):
    return product_set(product_set(x, y, budget=budget), z, budget=budget)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_triple_product_matches_naive_keys(case):
    x, y, z = _sets(case)
    g = x.oracle
    want = naive_product_keys(g, naive_product_keys(g, x.keys, y.keys), z.keys)
    got = triple_product(x, y, z)
    assert got.keys == tuple(sorted(want))
    assert got == _chain(x, y, z, sets.DEFAULT_PRODUCT_BUDGET)


def test_the_fuzz_reaches_every_path():
    seen = Counter()
    for case in CASES:
        grid = sets._triple_grid(*_sets(case), sets.DEFAULT_PRODUCT_BUDGET)
        seen[case[0], "chain" if grid is None else f"grid{len(grid.shape)}"] += 1
    assert seen["int-dense", "grid1"] and seen["int-sparse", "chain"]
    assert seen["int-gap", "grid2"] and seen["int-big", "grid1"] and seen["int-big", "chain"]
    assert seen["box", "grid1"] and seen["box", "grid2"] and seen["box", "chain"]
    assert seen["dihedral", "chain"] == 2


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_budget_errors_match_the_chain(case):
    x, y, z = _sets(case)
    xy = product_set(x, y, budget=10**9)
    edges = {len(x) * len(y), len(xy) * len(z), len(triple_product(x, y, z))}
    if sets._triple_grid(x, y, z, 10**9) is not None:
        operands = sets._operands(x, y)
        a, b = operands.a, operands.b
        reach = x.oracle.order if operands.moduli else int(a[-1] + b[-1] - a[0] - b[0]) + 1
        edges.add(reach * len(z))
        edges.add(sets._reach_cells(a, b, operands.moduli) * len(z))
    for edge in edges:
        for budget in (edge - 1, edge, edge + 1):
            want = _outcome(lambda: _chain(x, y, z, budget))
            assert _outcome(lambda: triple_product(x, y, z, budget)) == want


def test_guard_failure_gives_the_exact_answer(monkeypatch):
    fused = [c for c in CASES if sets._triple_grid(*_sets(c), sets.DEFAULT_PRODUCT_BUDGET)]
    want = [triple_product(*_sets(c)) for c in fused]
    calls = patch_irfft(monkeypatch, 0.6)
    for case, expected in zip(fused, want):
        before = len(calls)
        x, y, z = _sets(case)
        got = triple_product(x, y, z)
        assert got == expected
        g = x.oracle
        assert got.key_set() == naive_product_keys(
            g, naive_product_keys(g, x.keys, y.keys), z.keys
        )
        assert len(calls) > before


def test_a_wide_third_operand_keeps_the_chain():
    # X + Y is 200 cells wide, Z spreads over 10^6: one grid over the whole
    # range would be far larger than the |X + Y||Z| pairs of the chain's
    # second product
    g = build_group("int")
    x = y = MultSet(g, range(100))
    z = MultSet(g, range(0, 10**6, 5000))
    assert sets._triple_grid(x, y, z, sets.DEFAULT_PRODUCT_BUDGET) is None
    assert triple_product(x, y, z) == _chain(x, y, z, sets.DEFAULT_PRODUCT_BUDGET)


def test_a_triple_whose_first_product_sorts_keeps_the_chain():
    # A + B spans 2001 keys for 4 pairs, so A B sorts its pairs; the whole
    # triple's grid of 8192 cells would still be below its 4 * 3000 pairs
    g = build_group("int")
    x = y = MultSet(g, [0, 1000])
    z = MultSet(g, range(3000))
    a, c = np.array(x.keys), np.arange(3000)
    assert sets._plan((a, a)) is None and sets._plan((a, a, c)) is None
    assert sets._triple_grid(x, y, z, sets.DEFAULT_PRODUCT_BUDGET) is None
    assert triple_product(x, y, z).keys == _chain(x, y, z, sets.DEFAULT_PRODUCT_BUDGET).keys


def test_the_fuzz_has_reach_bounds_below_the_range():
    # the budget edges above then check _reach_cells where it admits a
    # triple that the key range or the box's order would send to the chain
    finer = Counter()
    for case in CASES:
        x, y, z = _sets(case)
        operands = sets._operands(x, y)
        if operands is None or operands.table is not None:
            continue
        a, b, moduli = operands.a, operands.b, operands.moduli
        reach = x.oracle.order if moduli else int(a[-1] + b[-1] - a[0] - b[0]) + 1
        cells = sets._reach_cells(a, b, moduli)
        assert len(product_set(x, y)) <= cells <= reach
        if cells < reach and sets._triple_grid(x, y, z, 10**9) is not None:
            finer[case[0]] += 1
    assert finer["int-gap"] and finer["box-arc"]


def _transforms(monkeypatch):
    """From now on, count the forward and the inverse real FFTs."""
    calls = Counter()
    for name, kind in (("rfft", "forward"), ("rfftn", "forward"), ("irfft", "inverse"), ("irfftn", "inverse")):

        def spy(*args, _transform=getattr(np.fft, name), _kind=kind, **kwargs):
            calls[_kind] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    return calls


def _grid_sets():
    """A set whose X X and X X X take each kind of FFT grid, by name: the
    one-axis ``int`` grid, the ``int`` fold, ``cyclic:N`` and a two-factor
    box."""
    rng = np.random.default_rng(33)
    block = _gap_blocks("gap:2:10,10:1,300")[0]
    return {
        "int-line": (build_group("int"), _subset(rng, np.arange(-100, 200), 150), 1),
        "int-fold": (build_group("int"), block, 2),
        "cyclic": (build_group("cyclic:1009"), _subset(rng, np.arange(1009), 60), 1),
        "box": (build_group("abelian:12,15"), _subset(rng, np.arange(180), 40), 2),
    }


def _naive_counts(g, *operands):
    """How many tuples of the operands' keys give each product, by a tally
    of one operand at a time."""
    counts = Counter({g.identity_key: 1})
    for keys in operands:
        step = Counter()
        for p, c in counts.items():
            for k in keys:
                step[g.kmul(p, k)] += c
        counts = step
    return counts


@pytest.mark.parametrize("name", ["int-line", "int-fold", "cyclic", "box"])
def test_each_distinct_operand_is_transformed_once(name, monkeypatch):
    g, keys, rank = _grid_sets()[name]
    x = MultSet(g, keys)
    z_inv = inverse_set(x)
    copies = [MultSet(g, keys) for _ in range(3)]
    calls = _transforms(monkeypatch)
    budget = sets.DEFAULT_PRODUCT_BUDGET
    cases = {
        "X X": ((x, x), 1),
        "A A A": ((x, x, x), 1),
        "Z^-1 Z Z^-1": ((z_inv, x, z_inv), 2),
        "three copies": (tuple(copies), 3),
        "two copies": (tuple(copies[:2]), 2),
    }
    answers = {}
    for label, (operands, forward) in cases.items():
        calls.clear()
        if len(operands) == 2:
            got = sets._product_counts(*operands)
        else:
            grid = sets._triple_grid(*operands, budget)
            assert isinstance(grid, sets._Grid) and len(grid.shape) == rank, label
            got = sets._grid_counts(grid)
        assert calls == {"forward": forward, "inverse": 1}, label
        want = _naive_counts(g, *(s.keys for s in operands))
        assert dict(zip(got[0].tolist(), got[1].tolist())) == want, label
        answers[label] = got
    # repeats of one set and equal copies give bitwise the same answer
    for shared, copied in (("A A A", "three copies"), ("X X", "two copies")):
        for a, b in zip(answers[shared], answers[copied]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
