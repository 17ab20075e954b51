"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Every expected value here is either recomputed independently inside the
test (numpy sumsets, mixed-radix arithmetic, brute-force enumeration) or
is exact integer arithmetic on recorded sizes.  Timing limits are part
of the criteria that state them.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from prodfree import (
    ExtractionCertificate,
    MultSet,
    PreconditionError,
    SearchExhaustedError,
    WeightedSet,
    alon_kleitman_weighted,
    build_group,
    cyclic_interval,
    derived_subnormal_series,
    exhaustive_max_product_free,
    generate,
    generated_subgroup,
    greedy_product_free,
    interval_bounds,
    inverse_set,
    localize_small_triple,
    petridis_subset,
    power_set,
    product_free_extract,
    product_set,
    seh_halving,
    solvable_extract,
    verify_certificate,
)
from prodfree.cli import main as cli_main
from conftest import (
    bitset_triple_sum_size,
    halving_stage_sizes,
    naive_is_product_free,
    naive_product_keys,
    planned_halving_steps,
    trace_sizes,
)

Q8_GENS = [(0, 2, 1, 0), (1, 1, 1, 2)]


def test_criterion_01_cyclic_intervals_all_moduli():
    start = time.perf_counter()
    for n in range(2, 2001):
        result = cyclic_interval(n)
        lo, hi = interval_bounds(n)
        assert list(result.keys) == list(range(lo, hi + 1))

        vals = np.arange(lo, hi + 1, dtype=np.int64)
        sums = (vals[:, None] + vals[None, :]).ravel() % n
        assert not np.any((sums >= lo) & (sums <= hi)), n

        for d in range(1, n):
            if n % d:
                continue
            k_size = n // d  # subgroup generated by d
            if k_size < 2:
                continue
            hits = hi // d - (lo - 1) // d
            assert 4 * hits >= k_size, (n, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_weighted_abelian_quarter_bound():
    start = time.perf_counter()
    rng = random.Random(202608)
    moduli_list = [(2, 2, 128), (512,), (8, 8, 8)]
    while len(moduli_list) < 500:
        r = rng.randint(1, 3)
        if r == 1:
            ms = (rng.randint(2, 512),)
        elif r == 2:
            m1 = rng.randint(2, 256)
            ms = (m1, rng.randint(2, 512 // m1))
        else:
            m1 = rng.randint(2, 128)
            m2 = rng.randint(2, 256 // m1)
            ms = (m1, m2, rng.randint(2, 512 // (m1 * m2)))
        moduli_list.append(ms)

    for ms in moduli_list:
        oracle = build_group("abelian:" + ",".join(map(str, ms)))
        nonid = [k for k in oracle.enum_keys if k != oracle.identity_key]
        size = rng.randint(1, min(len(nonid), 40))
        bkeys = sorted(rng.sample(nonid, size))
        base = MultSet(oracle, bkeys)
        weights = tuple(rng.randint(1, 10_000 // size) for _ in base.keys)
        assert sum(weights) <= 10_000
        kept = alon_kleitman_weighted(WeightedSet(base, weights))

        kept_keys = set(kept.keys)
        assert kept_keys <= set(base.keys)
        # independent sum-free check in the chosen coordinates, read from
        # each key's text
        kept_vecs = {tuple(map(int, oracle.kencode(k).split(","))) for k in kept_keys}
        for va, vb in itertools.product(kept_vecs, repeat=2):
            s = tuple((x + y) % m for x, y, m in zip(va, vb, ms))
            assert s not in kept_vecs, (ms, va, vb)
        weight_of = dict(zip(base.keys, weights))
        kept_weight = sum(weight_of[k] for k in kept_keys)
        assert 4 * kept_weight >= sum(weights), ms
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_03_solvable_quarter_bound_six_groups():
    q8 = generated_subgroup(build_group("matrix:2:3"), Q8_GENS)
    cases = [
        (build_group("sym:3"), 1),
        (build_group("sym:4"), 2),
        (build_group("dihedral:4"), 1),
        (build_group("dihedral:6"), 1),
        (q8, 1),
        (build_group("heisenberg:3"), 1),
    ]
    rng = random.Random(33)
    for oracle, expected_n in cases:
        series = derived_subnormal_series(oracle)
        assert series.exponent == expected_n
        nonid = [k for k in oracle.enum_keys if k != oracle.identity_key]
        for _ in range(100):
            size = rng.randint(1, len(nonid))
            ckeys = sorted(rng.sample(nonid, size), key=oracle.kencode)
            c = MultSet(oracle, ckeys)
            cert = solvable_extract(c, series)
            witness = [oracle.kdecode(t) for t in cert.witness]
            assert set(witness) <= set(ckeys)
            assert naive_is_product_free(oracle, witness)
            floor_bound = math.ceil(Fraction(len(ckeys), 4 * 2**expected_n))
            assert len(witness) >= floor_bound
            ok, problems = verify_certificate(cert, c)
            assert ok, problems

    # full non-identity instance in the 6-element symmetric group: the
    # brute-force optimum over all 2^5 subsets is 3, and the algorithm hits it
    s3 = cases[0][0]
    nonid = [k for k in s3.enum_keys if k != s3.identity_key]
    best = 0
    for r in range(len(nonid), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(nonid, r):
            if naive_is_product_free(s3, combo):
                best = r
                break
        if best:
            break
    assert best == 3
    cert = solvable_extract(MultSet(s3, nonid), derived_subnormal_series(s3))
    assert cert.achieved_size == 3


def test_criterion_04_symmetrized_product_bound():
    rng = random.Random(44)
    int_group = build_group("int")
    sym4 = build_group("sym:4")
    heis = build_group("heisenberg:3")
    gap_pool = [
        generate("gap:2:1,5:1,5"),
        generate("gap:2:2,8:1,7"),
        generate("gap:3:1,1,4:1,5,25"),
        generate("gap:2:3,3:1,7"),
    ]

    def draw(family):
        if family == "interval":
            n = rng.randint(5, 30)
            size = rng.randint(3, 24)
            keys = rng.sample(range(-n, n + 1), min(size, 2 * n + 1))
            return MultSet(int_group, keys)
        if family == "gap":
            pool = rng.choice(gap_pool)
            size = rng.randint(3, min(24, len(pool)))
            return MultSet(int_group, rng.sample(list(pool.keys), size))
        if family == "sym":
            size = rng.randint(3, 20)
            return MultSet(sym4, rng.sample(list(sym4.enum_keys), size))
        size = rng.randint(3, 24)
        return MultSet(heis, rng.sample(list(heis.enum_keys), size))

    for family in ("interval", "gap", "sym", "heis"):
        for _ in range(1000):
            x = draw(family)
            oracle = x.oracle
            square = product_set(x, x)
            sym_diff = product_set(x, inverse_set(x))
            # independent recomputation of both product sets
            naive_sq = naive_product_keys(oracle, x.keys, x.keys)
            naive_diff = {
                oracle.kmul(a, oracle.kinv(b))
                for a in x.keys
                for b in x.keys
            }
            assert len(square) == len(naive_sq)
            assert len(sym_diff) == len(naive_diff)
            assert len(sym_diff) * len(x) <= len(square) ** 2, family


def test_criterion_05_small_scale_subset_search_is_total():
    int_group = build_group("int")
    misses = 0
    checked = 0

    def run_one(keys):
        nonlocal misses, checked
        x = MultSet(int_group, keys)
        sq = naive_product_keys(int_group, x.keys, x.keys)
        k = Fraction(len(sq), len(x))
        try:
            y, _ = petridis_subset(x, product_set(x, x), k)
        except SearchExhaustedError:
            misses += 1
            return
        checked += 1
        assert set(y.keys) <= set(x.keys)
        assert len(y) * len(sq) >= len(x) ** 2  # |Y| >= |X| / k
        cube = set()
        for a in y.keys:
            for b in y.keys:
                for c in y.keys:
                    cube.add(a + b + c)
        # |Y^3| <= k^3 |Y| with k = |X^2| / |X|
        assert len(cube) * len(x) ** 3 <= len(sq) ** 3 * len(y)

    universe = range(-6, 7)
    for r in range(1, 9):
        for combo in itertools.combinations(universe, r):
            run_one(combo)

    rng = random.Random(55)
    wide = list(range(-8, 9))
    for _ in range(1000):
        size = rng.randint(1, 10)
        run_one(tuple(rng.sample(wide, size)))

    assert misses == 0
    assert checked == 7098 + 1000


def _halving_matrix():
    specs = [f"interval:{n}" for n in range(8, 1000, 10)]  # 100
    specs += [f"gap:1:{n}:3" for n in range(9, 300, 10)]  # 30
    rank2 = [
        (1, 3), (1, 6), (1, 10), (1, 15), (1, 25), (1, 40), (1, 80),
        (1, 150), (1, 300), (2, 2), (2, 4), (2, 8), (2, 16), (2, 30),
        (2, 60), (2, 120), (2, 190), (3, 3), (3, 7), (3, 15), (3, 30),
        (3, 60), (4, 4), (4, 10), (4, 25), (4, 50),
        (5, 5), (5, 12), (5, 30), (6, 6), (6, 20),
    ]
    specs += [f"gap:2:{a},{b}:1,{2 * a + 1}" for a, b in rank2]  # 31
    specs += [f"gap:2:1,{n}:1,5" for n in (3, 6, 12, 25, 50, 100, 150, 200, 300)]  # 9
    specs += [f"gap:2:2,{n}:1,7" for n in (2, 5, 12, 30, 60, 120, 190)]  # 7
    specs += [f"gap:3:{n},{n},{n}:1,{2 * n + 1},{(2 * n + 1) ** 2}" for n in range(1, 6)]  # 5
    specs += [f"gap:3:1,1,{n}:1,3,9" for n in (2, 5, 12, 25, 50, 100)]  # 6
    specs += [f"gap:3:1,2,{n}:1,3,15" for n in (3, 10, 30, 60)]  # 4
    specs += [f"gap:3:2,2,{n}:1,5,25" for n in (2, 8, 20, 39)]  # 4
    specs += ["gap:3:1,1,15:1,5,25", "gap:3:1,2,20:1,5,25"]  # 2 sparse
    fallback = ["gap:3:1,1,1:1,5,25", "gap:3:1,1,1:1,7,49"]
    # gap:2:1,3:1,5 also plans 5 steps on 21 points: 2 * 5^3 > 2^3 * 21
    return specs + fallback, set(fallback) | {"gap:2:1,3:1,5"}


def test_criterion_06_iterated_halving_invariants():
    specs, fallback_specs = _halving_matrix()
    assert len(specs) == 200
    delta = Fraction(2, 5)
    fallbacks_seen = set()

    for spec in specs:
        y = generate(spec)
        assert len(y) <= 2000, spec
        y3 = power_set(y, 3, budget=40_000_000)
        res = seh_halving(y, y3, Fraction(1, 2), delta, budget=40_000_000)

        first = res.stages[0]
        assert list(first.u.keys) == list(y.keys)
        sizes = [
            bitset_triple_sum_size(st.u.keys, st.v.keys, st.w.keys)
            for st in res.stages
        ]
        assert halving_stage_sizes(res.trace, len(y3)) == sizes, spec

        for prev, cur in zip(res.stages, res.stages[1:]):
            for new, old in ((cur.u, prev.u), (cur.v, prev.v), (cur.w, prev.w)):
                assert new.key_set() <= old.key_set(), spec  # (i)

        if res.trace[0].stage == "halving-fallback":
            fallbacks_seen.add(spec)
            assert len(res.u) == len(res.v) == len(res.w) == 2, spec
            assert sizes[-1] <= 8, spec
        else:
            for i in range(len(res.stages) - 1):
                prev, cur = res.stages[i], res.stages[i + 1]
                for new, old in ((cur.u, prev.u), (cur.v, prev.v), (cur.w, prev.w)):
                    assert (
                        len(new) * delta.denominator
                        >= delta.numerator * len(old)
                    ), spec  # (ii)
                assert 2 * sizes[i + 1] <= sizes[i], spec  # (iii)

        assert 2 * sizes[-1] <= len(y), spec  # |UVW| <= |Y| / 2
        assert len(res.stages) <= planned_halving_steps(len(y), len(y3), Fraction(1, 2)) + 1

    assert fallbacks_seen == fallback_specs


def test_criterion_07_triple_localization_identity():
    int_group = build_group("int")
    calls = []

    for spec in (
        "interval:8", "interval:12", "interval:20", "interval:35",
        "interval:60", "interval:100", "interval:150", "interval:200",
        "gap:2:1,12:1,5", "gap:2:2,12:1,7", "gap:3:1,1,5:1,5,25",
        "gap:3:1,1,1:1,5,25",
    ):
        y = generate(spec)
        res = seh_halving(y, power_set(y, 3), Fraction(1, 2), Fraction(2, 5))
        calls.append((y, res.u, res.v, res.w))

    y16 = MultSet(int_group, range(1, 17))
    two = MultSet(int_group, [1, 2])
    calls.append((y16, two, two, two))

    heis = build_group("heisenberg:5")
    hy = MultSet(heis, heis.enum_keys)
    hu = MultSet(heis, [heis.identity_key, heis.kdecode("1,1,0;0,1,0;0,0,1")])
    calls.append((hy, hu, hu, hu))

    for y, u, v, w in calls:
        oracle = y.oracle
        uvw = product_set(product_set(u, v), w)
        res = localize_small_triple(y, u, v, w, uvw)
        pair_total = trace_sizes(res.trace, "localize-count")["pair_sum"]
        assert pair_total == len(u) * len(v) * len(w)

        if len(u) * len(v) * len(w) <= 250_000:
            buckets: dict = {}
            for z in v.keys:
                for a in u.keys:
                    for b in w.keys:
                        gh = (oracle.kmul(a, z), oracle.kmul(z, b))
                        buckets[gh] = buckets.get(gh, 0) + 1
            assert sum(buckets.values()) == pair_total
            assert buckets[(res.g.key, res.h.key)] == len(res.z)
            assert len(res.z) == max(buckets.values())

        assert res.z.key_set() <= v.key_set()
        assert len(res.z) * len(y) ** 2 >= 4 * len(u) * len(v) * len(w)
        zzz = {
            oracle.kmul(oracle.kmul(oracle.kinv(a), b), oracle.kinv(c))
            for a in res.z.keys
            for b in res.z.keys
            for c in res.z.keys
        }
        assert zzz == res.zzz.key_set()
        assert len(zzz) <= len(uvw)
        assert 2 * len(zzz) <= len(y)


def test_criterion_08_end_to_end_extraction():
    start = time.perf_counter()
    main_specs = [
        "interval:50", "interval:100", "interval:200", "interval:300",
        "gap:1:25:3", "gap:2:4,4:1,9", "gap:3:2,2,2:1,11,121",
    ]
    for spec in main_specs:
        x = generate(spec)
        sq = product_set(x, x)
        assert len(x) ** 2 >= 16 * len(sq), spec  # main branch applies
        cert = product_free_extract(x)
        assert cert.params["branch"] == "main"
        assert cert.verified_product_free

        witness = [x.oracle.kdecode(t) for t in cert.witness]
        assert set(witness) <= set(x.keys)
        assert naive_is_product_free(x.oracle, witness)

        k = Fraction(cert.params["k"])
        assert k == Fraction(len(sq), len(x))
        rec = next(r for r in cert.trace if r.stage == "pigeonhole")
        assert rec.holds
        yg, z = rec.sizes["yg"], rec.sizes["z"]
        assert yg == cert.achieved_size
        assert 2 * yg * k.numerator**3 >= z * k.denominator**3, spec

        if cert.guarantee is not None:
            assert cert.achieved_size >= math.ceil(Fraction(cert.guarantee))
        ok, problems = verify_certificate(cert, x)
        assert ok, (spec, problems)

    # singleton branch exactly when |X|^2 < 16 |X^2|
    x8 = generate("interval:8")
    assert len(x8) ** 2 == 289 and 16 * len(product_set(x8, x8)) == 528
    cert8 = product_free_extract(x8)
    assert cert8.params["branch"] == "singleton"
    assert cert8.achieved_size == 1
    ok, problems = verify_certificate(cert8, x8)
    assert ok, problems

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def _c9_instance_pool():
    fixed = [f"interval:{n}" for n in range(0, 7)]
    fixed += [f"gap:1:{n}:2" for n in range(1, 7)]
    fixed += ["gap:2:1,1:1,3", "gap:2:1,1:1,5", "gap:2:1,1:1,4"]
    fixed += ["heisenberg-ball:3:0", "heisenberg-ball:5:0"]
    fixed += ["coset-union:cyclic:12:4:2", "coset-union:cyclic:12:6:3"]
    fixed += [f"full-group:cyclic:{n}" for n in range(2, 15)]
    fixed += [
        "full-group-minus-identity(cyclic:13)",
        "full-group-minus-identity(cyclic:8)",
        "full-group-minus-identity(sym:3)",
        "full-group-minus-identity(dihedral:4)",
        "full-group-minus-identity(abelian:4,3)",
        "full-group-minus-identity(abelian:2,2,2)",
    ]
    groups = [
        ("int", 14), ("cyclic:12", 12), ("cyclic:97", 14), ("sym:3", 6),
        ("sym:4", 14), ("dihedral:4", 8), ("dihedral:6", 12),
        ("heisenberg:3", 14), ("abelian:6,4", 14), ("abelian:2,2,2", 8),
    ]
    rng = random.Random(99)
    specs = list(fixed)
    while len(specs) < 500:
        g, cap = rng.choice(groups)
        m = rng.randint(1, cap)
        specs.append(f"random:{g}:{m}:seed={rng.randrange(10**6)}")
    return specs


def test_criterion_09_oracle_agreement_small_sets():
    # independent optimum for the positive interval, by full enumeration
    elems = list(range(1, 11))
    best = 0
    for mask in range(1, 1 << 10):
        chosen = [elems[i] for i in range(10) if mask >> i & 1]
        members = set(chosen)
        if any(a + b in members for a in chosen for b in chosen):
            continue
        best = max(best, len(chosen))
    assert best == 5
    ten = MultSet(build_group("int"), elems)
    assert len(exhaustive_max_product_free(ten)) == 5

    series_cache: dict = {}
    abelian_kinds = {"cyclic", "abelian"}
    for spec in _c9_instance_pool():
        x = generate(spec)
        oracle = x.oracle
        assert 1 <= len(x) <= 14, spec
        opt_set = exhaustive_max_product_free(x)
        assert naive_is_product_free(oracle, opt_set.keys)
        opt = len(opt_set)

        def check(witness_keys):
            assert set(witness_keys) <= set(x.keys), spec
            assert naive_is_product_free(oracle, witness_keys), spec
            assert len(set(witness_keys)) <= opt, spec

        check(greedy_product_free(x).keys)

        only_identity = set(x.keys) == {oracle.identity_key}
        if only_identity:
            with pytest.raises(PreconditionError):
                product_free_extract(x)
        else:
            cert = product_free_extract(x)
            assert cert.params["branch"] == "singleton"
            assert cert.achieved_size == 1
            check([oracle.kdecode(t) for t in cert.witness])

        identity_free = oracle.identity_key not in set(x.keys)
        if oracle.enum_keys is not None and identity_free:
            if oracle.domain not in series_cache:
                series_cache[oracle.domain] = derived_subnormal_series(oracle)
            cert = solvable_extract(x, series_cache[oracle.domain])
            check([oracle.kdecode(t) for t in cert.witness])

        if oracle.kind in abelian_kinds and identity_free:
            kept = alon_kleitman_weighted(WeightedSet(x, (1,) * len(x)))
            check(kept.keys)
            assert 4 * len(kept) >= len(x)

        if spec.startswith("full-group:cyclic:"):
            n = int(spec.rsplit(":", 1)[1])
            check(cyclic_interval(n).keys)


def test_criterion_10_certificate_round_trip_and_tampering(tmp_path):
    emitted = []
    for name, algorithm, source in [
        ("main", "thm33", "interval:50"),
        ("singleton", "thm33", "interval:8"),
        ("solvable", "solvable", "full-group-minus-identity(sym:3)"),
        ("ak", "alon-kleitman", "full-group-minus-identity(cyclic:13)"),
        ("interval", "interval", "full-group(cyclic:10)"),
        ("greedy", "greedy", "interval:6"),
        ("exhaustive", "exhaustive", "interval:4"),
        ("random", "greedy", "random:sym:4:10:seed=5"),
    ]:
        path = tmp_path / f"{name}.json"
        assert cli_main(["extract", algorithm, source, "--out", str(path)]) == 0
        cert = ExtractionCertificate.load(path)
        x = generate(source)
        ok, problems = verify_certificate(cert, x)
        assert ok, (name, problems)
        assert cli_main(["verify", str(path), source]) == 0
        emitted.append((name, path))
    assert len(emitted) == 8

    base = json.loads((tmp_path / "main.json").read_text())
    x50 = generate("interval:50")

    def expect_fail(tag, data, needle):
        path = tmp_path / f"tampered-{tag}.json"
        path.write_text(json.dumps(data))
        ok, problems = verify_certificate(
            ExtractionCertificate.load(path), x50
        )
        assert not ok
        assert any(needle in p for p in problems), problems
        assert cli_main(["verify", str(path), "interval:50"]) == 1

    # 1: swap a witness element for one whose square stays in the witness
    witness = [int(t) for t in base["witness"]]
    wset = set(witness)
    xkeys = set(x50.keys)
    bad = next(e for e in sorted(xkeys) if e not in wset and e + e in wset)
    victim = next(w for w in witness if w != bad + bad)
    tampered = dict(base)
    tampered["witness"] = [
        str(bad if w == victim else w) for w in witness
    ]
    expect_fail("witness", tampered, "not product-free")

    # 2: break one trace inequality
    tampered = json.loads(json.dumps(base))
    rec = next(r for r in tampered["trace"] if r["stage"] == "pigeonhole")
    rec["inequality"] = "0 >= 1"
    expect_fail("trace", tampered, "evaluates False")

    # 3: claim a guarantee above the achieved size
    tampered = dict(base)
    tampered["guarantee"] = f"{base['achieved_size'] * 2 + 1}/1"
    expect_fail("guarantee", tampered, "guarantee")
