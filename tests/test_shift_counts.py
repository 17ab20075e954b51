"""The shifted adds of the sums kernel on one-axis boxes, against naive
``kmul`` counts and the FFT over the whole box.

The operands are drawn with a seeded numpy generator in ``cyclic:N``: for
each N, a shorter operand of 8, N // 128, 255 and 256 keys (at most N, and
at least one), a longer one large enough that the box takes a grid
(N <= |A||B|), both holding the keys 0 and N - 1 where there is room.  A
spy records which path ran: the shifted adds while the shorter operand has
at most max(8, min(N // 128, 255)) keys, else the FFT.
"""

from collections import Counter

import numpy as np
import pytest

from prodfree import build_group
from prodfree import sets

ORDERS = (2, 3, 128, 1000, 10007, 100000)


def _operand(rng, n, size):
    """``size`` distinct sorted keys of Z_n with 0 and n - 1 among them."""
    ends = [0, n - 1][: min(size, 2)] if rng.integers(2) else [n - 1, 0][: min(size, 2)]
    rest = np.setdiff1d(np.arange(n), ends)
    picked = rng.choice(rest, size=size - len(ends), replace=False)
    return np.sort(np.concatenate([ends, picked]).astype(np.int64))


def _shift_cases():
    """(N, a, b) with the shorter operand first or second, from one seeded
    generator."""
    rng = np.random.default_rng(2029)
    cases = []
    for n in ORDERS:
        for short in sorted({min(s, n) for s in (8, n // 128, 255, 256)} - {0}):
            long = min(n, max(short, -(-n // short)) + int(rng.integers(0, 50)))
            a, b = _operand(rng, n, short), _operand(rng, n, long)
            cases.append((n, a, b) if rng.integers(2) else (n, b, a))
    return cases


CASES = _shift_cases()
IDS = [f"cyclic:{n}-{len(a)}x{len(b)}" for n, a, b in CASES]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_shifted_adds_match_kmul_and_the_fft(case, monkeypatch):
    n, a, b = case
    assert n <= len(a) * len(b)
    paths = []
    for name in ("_shift_counts", "_grid_counts"):
        inner = getattr(sets, name)
        monkeypatch.setattr(
            sets, name, lambda *args, name=name, inner=inner: paths.append(name) or inner(*args)
        )
    values, counts = sets._pair_counts(a, b, (n,))
    short = min(len(a), len(b))
    direct = short <= max(8, min(n // 128, 255))
    assert paths == ["_shift_counts" if direct else "_grid_counts"]
    kmul = build_group(f"cyclic:{n}").kmul
    want = Counter(kmul(x, y) for x in a.tolist() for y in b.tolist())
    assert dict(zip(values.tolist(), counts.tolist())) == want
    assert values.tolist() == sorted(want)
    fft = sets._grid_counts(sets._Grid((n,), (a, b)))
    assert np.array_equal(values, fft[0]) and np.array_equal(counts, fft[1])
    assert values.dtype == fft[0].dtype and counts.dtype == fft[1].dtype


def test_the_fuzz_reaches_both_paths_and_every_gate_edge():
    seen = Counter()
    for n, a, b in CASES:
        short = min(len(a), len(b))
        gate = max(8, min(n // 128, 255))
        seen["direct" if short <= gate else "fft"] += 1
        seen["at the gate"] += short == gate
    assert seen["direct"] and seen["fft"] and seen["at the gate"] >= 2
    # 255 keys is the most any cell of a uint8 count may hold
    assert any(min(len(a), len(b)) == 255 for n, a, b in CASES if n == 100000)


def test_a_triple_whose_first_product_takes_the_shifted_adds_runs_the_chain():
    g = build_group("cyclic:1000")
    rng = np.random.default_rng(7)
    x = sets.MultSet(g, rng.choice(1000, 300, replace=False).tolist())
    y = sets.MultSet(g, rng.choice(1000, 8, replace=False).tolist())
    z = sets.MultSet(g, rng.choice(1000, 20, replace=False).tolist())
    assert sets._triple_grid(x, y, z, sets.DEFAULT_PRODUCT_BUDGET) is None
    chain = sets.product_set(sets.product_set(x, y), z)
    assert sets.triple_product(x, y, z) == chain
    # one more key in Y sends X Y, and so the triple, to the FFT grid
    y9 = sets.MultSet(g, [*y.keys, next(k for k in range(1000) if k not in y)])
    assert sets._triple_grid(x, y9, z, sets.DEFAULT_PRODUCT_BUDGET) is not None
