"""Shared brute-force references and fixtures.

Every helper here recomputes facts straight from an oracle's raw key
operations (kmul, kinv), independently of the library's set calculus, so
tests can freeze expected values derived outside the code under test.
The trace helpers read sizes off trace records alone.
"""

import itertools

import pytest


def naive_product_keys(oracle, keys_a, keys_b):
    kmul = oracle.kmul
    return {kmul(a, b) for a in keys_a for b in keys_b}


def naive_triple_product_keys(oracle, k1, k2, k3):
    kmul = oracle.kmul
    return {kmul(kmul(a, b), c) for a in k1 for b in k2 for c in k3}


def naive_is_product_free(oracle, keys):
    kmul = oracle.kmul
    member = set(keys)
    return all(kmul(a, b) not in member for a in keys for b in keys)


def naive_incident_pairs(oracle, keys):
    kmul = oracle.kmul
    member = set(keys)
    return sum(1 for a in keys for b in keys if kmul(a, b) in member)


def naive_max_product_free_size(oracle, keys):
    """Max size over all subsets, scanning large sizes first."""
    keys = sorted(set(keys))
    for size in range(len(keys), 0, -1):
        for combo in itertools.combinations(keys, size):
            if naive_is_product_free(oracle, combo):
                return size
    return 0


def naive_closure(oracle, seeds):
    kmul, kinv = oracle.kmul, oracle.kinv
    done = {oracle.identity_key}
    frontier = [oracle.identity_key] + [kinv(s) for s in seeds] + list(seeds)
    while frontier:
        nxt = []
        for a in frontier:
            for s in list(seeds):
                for c in (kmul(a, s), kmul(a, kinv(s))):
                    if c not in done:
                        done.add(c)
                        nxt.append(c)
        frontier = nxt
    return done


def naive_derived_orders(oracle):
    """Orders along the derived series, computed from commutators only."""
    keys = list(oracle.enum_keys)
    kmul, kinv = oracle.kmul, oracle.kinv
    orders = [len(keys)]
    current = set(keys)
    while len(current) > 1:
        comms = {
            kmul(kmul(kinv(a), kinv(b)), kmul(a, b))
            for a in current
            for b in current
        }
        sub = _closure_within(oracle, comms)
        if len(sub) == len(current):
            raise AssertionError("series stalled; group not solvable")
        orders.append(len(sub))
        current = sub
    return orders


def _closure_within(oracle, seeds):
    kmul = oracle.kmul
    done = set(seeds) | {oracle.identity_key}
    changed = True
    while changed:
        changed = False
        for a in list(done):
            for b in list(done):
                c = kmul(a, b)
                if c not in done:
                    done.add(c)
                    changed = True
    return done


def bitset_triple_sum_size(akeys, bkeys, ckeys):
    """|A+B+C| for integer key sets: each sumset ORs the bitset of one
    summand shifted by every key of the other, and the bits are counted."""

    def sumset(mask, keys):
        lo = min(keys)
        out = 0
        for k in keys:
            out |= mask << (k - lo)
        return out

    lo = min(akeys)
    a = 0
    for k in akeys:
        a |= 1 << (k - lo)
    return sumset(sumset(a, bkeys), ckeys).bit_count()


def trace_sizes(trace, stage):
    """The sizes of the one record of *stage* in a trace."""
    (sizes,) = [r.sizes for r in trace if r.stage == stage]
    return sizes


def halving_stage_sizes(trace, y3_size):
    """|UVW| at each halving stage, read off the halving trace alone:
    |Y^3|, then each step's ``next``, or the fallback's ``uvw``."""
    return [y3_size] + [
        r.sizes["uvw"] if r.stage == "halving-fallback" else r.sizes["next"]
        for r in trace[:-1]  # the last record is halving-final
    ]


def planned_halving_steps(y_size, y3_size, alpha):
    """The halving plan n = t + 1, t the least with 2^t alpha |Y| >= |Y^3|."""
    t = 0
    while (alpha.numerator * y_size << t) < alpha.denominator * y3_size:
        t += 1
    return t + 1


@pytest.fixture
def int_group():
    from prodfree import build_group

    return build_group("int")


def patch_irfft(monkeypatch, offset=0.0):
    """From now on, count np.fft.irfft and np.fft.irfftn calls (one per FFT
    pass of the counting kernel) and add ``offset`` to every result; 0.6
    makes the kernel's rounding guard reject each pass, and rounds every
    count one too high if the guard does not run."""
    import numpy as np

    calls = []

    def counting(inverse):
        def counted(*args, **kwargs):
            calls.append(1)
            return inverse(*args, **kwargs) + offset

        return counted

    monkeypatch.setattr(np.fft, "irfft", counting(np.fft.irfft))
    monkeypatch.setattr(np.fft, "irfftn", counting(np.fft.irfftn))
    return calls


@pytest.fixture
def fft_calls(monkeypatch):
    return patch_irfft(monkeypatch)


def law_oracles():
    """Oracles that read their products from a product law, by name:
    heisenberg:17 has 4913 elements."""
    from prodfree import build_group

    names = ("dihedral:6", "heisenberg:5", "dihedral:1024", "heisenberg:17")
    return {name: build_group(name) for name in names}


def kmul_oracles():
    """Enumerated oracles without a law, which multiply on ``kmul``, by
    name: sym:4, a subgroup view (A4 in sym:4) and a quotient (sym:4 / V4)."""
    from prodfree import build_group, quotient_projection
    from prodfree.groups import derived_subgroup_keys, subgroup_view

    s4 = build_group("sym:4")
    a4 = subgroup_view(s4, derived_subgroup_keys(s4))
    v4 = derived_subgroup_keys(a4)
    return {"sym:4": s4, "A4-view": a4, "S4/V4": quotient_projection(s4, v4)[0]}
