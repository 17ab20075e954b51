import copy
import itertools
import json
import operator
import random
from fractions import Fraction

import pytest

from prodfree import (
    BudgetExceededError,
    CertificateError,
    ExtractionCertificate,
    InvariantViolationError,
    MultSet,
    build_certificate,
    build_group,
    eval_inequality,
    generate,
    input_digest,
    record,
    require,
    verify_certificate,
)
from prodfree import certificates, sets
from prodfree.cli import main as cli_main
from conftest import kmul_oracles, naive_incident_pairs, naive_is_product_free


def test_eval_inequality_basic():
    assert eval_inequality("2 * next <= prev", {"next": 3, "prev": 6})
    assert not eval_inequality("2 * next <= prev", {"next": 4, "prev": 6})
    assert eval_inequality("a == b", {"a": 5, "b": 5})
    assert eval_inequality("a < b", {"a": 5, "b": 6})
    assert eval_inequality("a > b", {"a": 7, "b": 6})
    assert eval_inequality("4 * a >= c", {"a": 2, "c": 8})


def test_eval_inequality_rational_and_negative_factors():
    assert eval_inequality("1/2 * a >= b", {"a": 10, "b": 5})
    assert eval_inequality("-1 * a <= 0", {"a": 3})
    assert eval_inequality("21 <= 3 * 7", {})


def test_eval_inequality_rejects_malformed():
    with pytest.raises(CertificateError):
        eval_inequality("a <= b <= c", {"a": 1, "b": 2, "c": 3})
    with pytest.raises(CertificateError):
        eval_inequality("a b <= c", {"a": 1, "b": 2, "c": 3})
    with pytest.raises(CertificateError):
        eval_inequality("a * <= c", {"a": 1, "c": 3})
    with pytest.raises(CertificateError):
        eval_inequality("a <= missing", {"a": 1})
    with pytest.raises(CertificateError):
        eval_inequality("a + b <= c", {"a": 1, "b": 1, "c": 3})
    with pytest.raises(CertificateError):
        eval_inequality("a", {"a": 1})
    with pytest.raises(CertificateError):
        eval_inequality("1/0 * a >= b", {"a": 1, "b": 1})
    # literals past Python's 4300-digit int conversion limit
    with pytest.raises(CertificateError, match="integer literal too long"):
        eval_inequality("1" * 5000 + " >= a", {"a": 1})
    with pytest.raises(CertificateError, match="integer literal too long"):
        eval_inequality("a >= 1/" + "1" * 5000, {"a": 1})


_COMPARISONS = {
    "<=": operator.le, ">=": operator.ge, "==": operator.eq,
    "<": operator.lt, ">": operator.gt,
}


def _reference_tokens(text):
    """Tokens of the module docstring's grammar, read one character at a
    time; None at a character no token can start with."""
    tokens, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text[i : i + 2] in ("<=", ">=", "=="):
            j = i + 2
        elif c in "<>*":
            j = i + 1
        elif c == "_" or (c.isascii() and c.isalpha()):
            j = i + 1
            while j < n and (text[j] == "_" or (text[j].isascii() and text[j].isalnum())):
                j += 1
        else:
            j = i + (c == "-")
            start = j
            while j < n and text[j].isdecimal():
                j += 1
            if j == start:
                return None
            if text[j : j + 1] == "/" and text[j + 1 : j + 2].isdecimal():
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
        tokens.append(text[i:j])
        i = j
    return tokens


def _reference_eval(text, sizes):
    """The docstring grammar evaluated with Fraction products: a bool, or
    None where the text is malformed, names an unknown key or has q = 0."""
    tokens = _reference_tokens(text)
    cmps = [t for t in tokens or () if t in _COMPARISONS]
    if len(cmps) != 1:
        return None
    cut = tokens.index(cmps[0])
    values = []
    for side in (tokens[:cut], tokens[cut + 1 :]):
        factors, stars = side[::2], side[1::2]
        if len(side) % 2 == 0 or any(t != "*" for t in stars) or "*" in factors:
            return None
        value = Fraction(1)
        for t in factors:
            if t[0] == "-" or t[0].isdecimal():
                p, _, q = t.partition("/")
                if q and not int(q):
                    return None
                value *= Fraction(int(p), int(q or 1))
            elif t in sizes:
                value *= sizes[t]
            else:
                return None
        values.append(value)
    return _COMPARISONS[cmps[0]](*values)


_FUZZ_SIZES = {"a": 3, "b": 5, "yg": 17, "z": 0, "y3": 1030301, "_k": -2, "a1": 7}
_FUZZ_FACTORS = [
    "a", "b", "yg", "z", "y3", "_k", "a1", "0", "1", "2", "-1", "-0", "8000000",
    "1/2", "3/4", "-5/3", "0/7", "\u0663", "\u0663/\u0664",
]
_FUZZ_BAD = ["missing", "1/0", "0/0", "+1", "x\u0663", "\u00b2", "1_0", "1.5", "-"]
_FUZZ_NOISE = ["*", "**", "<=", ">=", "==", "<", ">", "=", "/", " ", "\t", "\u00a0", ""]


def _fuzz_inequality(rng):
    if rng.random() < 0.3:
        pool = _FUZZ_FACTORS + _FUZZ_BAD + _FUZZ_NOISE
        return "".join(rng.choice(pool) for _ in range(rng.randint(0, 8)))
    gap = lambda: rng.choice(["", " ", " ", "\t", "\u00a0 "])
    factor = lambda: rng.choice(_FUZZ_BAD if rng.random() < 0.03 else _FUZZ_FACTORS)
    join = lambda: rng.choice(["**", " "]) if rng.random() < 0.03 else "*"

    def side():
        out = factor()
        for _ in range(rng.randint(0, 3)):
            out += gap() + join() + gap() + factor()
        return out

    cmp = rng.choice(list(_COMPARISONS) * 10 + ["<==", "=", "= ="])
    return gap() + side() + gap() + cmp + gap() + side() + gap()


def test_eval_inequality_matches_a_fraction_reference():
    rng = random.Random(20240613)
    outcomes = {True: 0, False: 0, None: 0}
    for _ in range(20000):
        text = _fuzz_inequality(rng)
        want = _reference_eval(text, _FUZZ_SIZES)
        if want is None:
            with pytest.raises(CertificateError):
                eval_inequality(text, _FUZZ_SIZES)
        else:
            assert eval_inequality(text, _FUZZ_SIZES) is want, text
        outcomes[want] += 1
    assert min(outcomes.values()) > 2000, outcomes


def test_record_evaluates_on_the_spot():
    r = record("stage", {"x": 4, "y": 9}, "2 * x <= y")
    assert r.holds is True
    assert record("stage", {"x": 5, "y": 9}, "2 * x <= y").holds is False


def test_require_is_a_record_that_raises_when_it_fails():
    assert require("stage", {"x": 4, "y": 9}, "2 * x <= y") == record(
        "stage", {"x": 4, "y": 9}, "2 * x <= y"
    )
    with pytest.raises(InvariantViolationError) as info:
        require("halving-2", {"prev": 9, "next": 5}, "2 * next <= prev")
    assert str(info.value) == (
        "halving-2: '2 * next <= prev' fails at {'prev': 9, 'next': 5}"
    )


def test_input_digest_is_order_independent(int_group):
    a = MultSet(int_group, [3, 1, 2])
    b = MultSet(int_group, [2, 3, 1])
    assert input_digest(a) == input_digest(b)
    assert input_digest(a) != input_digest(MultSet(int_group, [1, 2]))
    # same keys in a different group must not collide
    c = MultSet(build_group("cyclic:7"), [1, 2, 3])
    assert input_digest(a) != input_digest(c)


def _sample_cert(int_group):
    x = MultSet(int_group, [1, 2, 3, 5])
    witness = MultSet(int_group, [2, 3])
    trace = [record("pick", {"w": 2, "x": 4}, "4 * w >= x")]
    return x, build_certificate(
        x, "demo", {"note": "t"}, witness, Fraction(1, 1), trace
    )


def test_build_certificate_fields(int_group):
    x, cert = _sample_cert(int_group)
    assert cert.algorithm == "demo"
    assert cert.witness == ["2", "3"]
    assert cert.achieved_size == 2
    assert cert.verified_product_free is True
    assert cert.guarantee == 1
    assert cert.input_digest == input_digest(x)


def test_empty_witness_never_counts_as_verified(int_group):
    x = MultSet(int_group, [1, 2])
    cert = build_certificate(x, "demo", {}, MultSet(int_group, []), None, [])
    assert cert.verified_product_free is False
    ok, problems = verify_certificate(cert, x)
    assert not ok and problems


def test_round_trip_through_json(tmp_path, int_group):
    x, cert = _sample_cert(int_group)
    path = tmp_path / "cert.json"
    cert.save(path)
    loaded = ExtractionCertificate.load(path)
    assert loaded.to_json_dict() == cert.to_json_dict()
    assert loaded.guarantee == Fraction(1, 1)
    ok, problems = verify_certificate(loaded, x)
    assert ok and problems == []


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CertificateError):
        ExtractionCertificate.load(path)
    path.write_text(json.dumps({"witness": []}))
    with pytest.raises(CertificateError):
        ExtractionCertificate.load(path)
    path.write_text('{"achieved_size": ' + "1" * 5000 + "}")
    with pytest.raises(CertificateError, match="cannot read certificate"):
        ExtractionCertificate.load(path)


def test_verify_flags_digest_mismatch(int_group):
    x, cert = _sample_cert(int_group)
    other = MultSet(int_group, [1, 2, 3])
    ok, problems = verify_certificate(cert, other)
    assert not ok
    assert any("digest" in p for p in problems)


def test_verify_flags_foreign_witness(int_group):
    x, cert = _sample_cert(int_group)
    cert.witness[0] = "99"
    cert.achieved_size = 2
    ok, problems = verify_certificate(cert, x)
    assert not ok
    assert any("not in the input set" in p for p in problems)


def test_verify_flags_duplicate_witness(int_group):
    x, cert = _sample_cert(int_group)
    cert.witness = ["2", "2"]
    ok, problems = verify_certificate(cert, x)
    assert not ok
    assert any("repeated" in p for p in problems)


def test_verify_flags_size_mismatch(int_group):
    x, cert = _sample_cert(int_group)
    cert.achieved_size = 3
    ok, problems = verify_certificate(cert, x)
    assert not ok
    assert any("achieved_size" in p for p in problems)


def test_verify_flags_product_free_break(int_group):
    # 2 + 3 = 5, so {2,3,5} is not product-free
    x = MultSet(int_group, [1, 2, 3, 5])
    cert = build_certificate(x, "demo", {}, MultSet(int_group, [2, 3]), None, [])
    cert.witness = ["2", "3", "5"]
    cert.achieved_size = 3
    ok, problems = verify_certificate(cert, x)
    assert not ok
    assert any("not product-free" in p for p in problems)


def test_verify_reevaluates_trace(int_group):
    x, cert = _sample_cert(int_group)
    cert.trace[0].holds = False  # stored verdict contradicts the numbers
    ok, problems = verify_certificate(cert, x)
    assert not ok
    assert any("evaluates" in p for p in problems)

    x2, cert2 = _sample_cert(int_group)
    cert2.trace[0].inequality = "5 * w >= x"  # rewritten bound now fails
    ok2, problems2 = verify_certificate(cert2, x2)
    assert ok2 is True  # 5 * 2 >= 4 still holds, verdict matches
    cert2.trace[0].inequality = "w >= x"
    ok3, problems3 = verify_certificate(cert2, x2)
    assert not ok3


def test_verify_flags_guarantee_above_achieved(int_group):
    x, cert = _sample_cert(int_group)
    cert.guarantee = Fraction(7, 2)  # ceiling 4 > witness size 2
    ok, problems = verify_certificate(cert, x)
    assert not ok
    assert any("guarantee" in p for p in problems)


def test_verify_flags_failed_stage(int_group):
    x = MultSet(int_group, [1, 2, 3, 5])
    bad = record("pick", {"w": 1, "x": 40}, "4 * w >= x")
    assert bad.holds is False
    cert = build_certificate(x, "demo", {}, MultSet(int_group, [2, 3]), None, [bad])
    ok, problems = verify_certificate(cert, x)
    assert not ok
    assert any("stage bound failed" in p for p in problems)


# -- the digit-vector freeness recheck ----------------------------------------


def _claimed_free_cert(x, witness_keys):
    """A certificate for the witness that claims product-freeness whether or
    not it holds, so that only the recheck can fail it."""
    cert = build_certificate(
        x, "demo", {}, MultSet(x.oracle, witness_keys), None, []
    )
    cert.verified_product_free = True
    return cert


def _greedy_free(oracle, keys):
    # a product-free subset of keys, grown one key at a time by raw kmul
    kept = []
    for k in keys:
        if naive_is_product_free(oracle, kept + [k]):
            kept.append(k)
    return kept


def _fuzz_witnesses(spec, rng):
    g = build_group(spec)
    out = []
    if spec == "int":
        for scale in (1, 7, 2**59, 2**60):
            for _ in range(6):
                small = rng.sample(range(-3, 4), rng.randint(1, 5))
                out.append([scale * t for t in small])
        for _ in range(6):
            keys = rng.sample(range(-60, 61), rng.randint(1, 30))
            out.append(keys)
            out.append(_greedy_free(g, keys))
            sparse = [2**20 * t for t in keys]  # past the bitset's gate
            out.append(sparse)
            out.append(_greedy_free(g, sparse))
        # dense windows far from 0: their sums miss them, with no shift by -lo
        out.append([2**70 + t for t in range(-80, 81)])
        out.append([-(2**70) + t for t in range(-80, 81)])
    elif spec == "cyclic:100000000":
        for _ in range(6):
            near = rng.sample(range(60), rng.randint(1, 30))
            out.append(near)
            out.append(_greedy_free(g, near))
            sparse = rng.sample(range(g.order), rng.randint(1, 30))  # past the gate
            out.append(sparse)
            out.append(_greedy_free(g, sparse))
    else:
        keys = list(g.enum_keys)
        for _ in range(8):
            pick = rng.sample(keys, rng.randint(1, min(len(keys), 40)))
            out.append(pick)
            out.append(_greedy_free(g, pick))
    return g, out


def _spy_bitset(monkeypatch):
    # the witnesses the bitset gave a verdict on; past its gate it gives None
    calls = []
    bitset_free = certificates._bitset_free

    def spy(keys, moduli):
        free = bitset_free(keys, moduli)
        if free is not None:
            calls.append(keys)
        return free

    monkeypatch.setattr(certificates, "_bitset_free", spy)
    return calls


def _circular_span(keys, n):
    # the fewest steps up from some key that reach every key, mod n
    return min(max((k - lo) % n for k in keys) for lo in keys)


def _bitset_route(g, keys):
    # the bitset runs while its largest cell is below VERIFY_BITS_PER_KEY per
    # key: in cyclic:N the span of the keys' shortest arc
    moduli = g.component_moduli
    if moduli is None:
        top = keys[-1] - keys[0]
    elif len(moduli) == 1:
        top = _circular_span(keys, moduli[0])
    else:
        top = certificates._cell(keys[-1], moduli)
    return top < certificates.VERIFY_BITS_PER_KEY * len(keys)


@pytest.mark.parametrize("block", [1, 7, 64, None])
@pytest.mark.parametrize(
    "spec",
    ["int", "cyclic:1", "cyclic:1000", "cyclic:100000000", "abelian:6,10",
     "abelian:2,2,4", "abelian:3,1,5", "abelian:40,40"],
)
def test_digit_vector_recheck_matches_raw_kmul(spec, block, monkeypatch):
    if block is not None:
        # a gate of `block` bits per key moves witnesses from the bitset to raw kmul
        monkeypatch.setattr(certificates, "VERIFY_BITS_PER_KEY", block)
    calls = _spy_bitset(monkeypatch)
    g, witnesses = _fuzz_witnesses(spec, random.Random(f"{spec}/{block}"))
    verdicts, routes = set(), set()
    for keys in filter(None, witnesses):
        x = MultSet(g, set(keys) | {g.identity_key})
        free = naive_is_product_free(g, set(keys))
        verdicts.add(free)
        ok, problems = verify_certificate(_claimed_free_cert(x, keys), x)
        assert ok == free, (keys, problems)
        assert ("witness is not product-free on recomputation" in problems) != free
        keys = tuple(sorted(set(keys)))
        route = _bitset_route(g, keys)
        routes.add(route)
        assert calls == ([keys] if route else [])
        calls.clear()
    # every group but the trivial one sees both verdicts
    assert verdicts == ({False} if spec == "cyclic:1" else {True, False})
    if block is None:
        # at the default gate every group runs the bitset; the sparse picks run raw kmul
        assert True in routes
        assert False in routes or spec not in ("int", "cyclic:100000000")


@pytest.mark.parametrize("n", [7, 1000, 10**7])
def test_cyclic_recheck_reads_cells_from_the_shortest_arc(n, monkeypatch):
    # witnesses inside a short arc that wraps past 0, one that ends at N - 1,
    # and one anywhere: each drawn set and a product-free subset of it.  All
    # take the bitset, however large their keys, and agree with raw kmul
    calls = _spy_bitset(monkeypatch)
    g = build_group(f"cyclic:{n}")
    rng = random.Random(f"arc/{n}")
    width = min(n, 60)
    verdicts, wraps = set(), 0  # wraps: arcs through both N - 1 and 0
    for start in (n - width // 2, n - width, rng.randrange(n)):
        for _ in range(4):
            drawn = [(start + t) % n for t in rng.sample(range(width), rng.randint(1, 30 if n > 7 else 5))]
            for keys in (drawn, _greedy_free(g, drawn)):
                keys = sorted(set(keys))
                x = MultSet(g, set(keys) | {g.identity_key})
                free = naive_is_product_free(g, keys)
                verdicts.add(free)
                ok, problems = verify_certificate(_claimed_free_cert(x, keys), x)
                assert ok == free, (keys, problems)
                assert calls == [tuple(keys)]
                calls.clear()
                wraps += _circular_span(keys, n) < keys[-1] - keys[0]
    assert verdicts == {True, False} and wraps


def test_an_arc_at_the_top_of_a_large_cyclic_group_takes_the_bitset(monkeypatch):
    # 2000 keys just below N = 10^7: the last key's cell, about 1024 * 4883
    # bits, is past the gate, but the arc spans 1999 cells
    calls = _spy_bitset(monkeypatch)
    n = 10**7
    g = build_group(f"cyclic:{n}")
    arc = list(range(n - 5000, n - 3000))  # its sums fill [n - 10000, n - 6002]
    for keys, free in ((arc, True), ([n - 10000, *arc], False), ([*arc, 0], False)):
        x = MultSet(g, keys)
        ok, problems = verify_certificate(_claimed_free_cert(x, keys), x)
        assert ok == free, problems
        assert len(calls) == 1
        calls.clear()


# -- the generator walk -----------------------------------------------------


def _grow_free(oracle, order):
    """A product-free set grown greedily along *order*: a candidate joins
    when it is no product of two kept keys and none of its products with
    the kept keys and itself is kept or is the candidate."""
    kmul, kept, products = oracle.kmul, set(), set()
    for k in order:
        new = {kmul(k, k)} | {kmul(k, w) for w in kept} | {kmul(w, k) for w in kept}
        if k not in products and k not in new and not new & kept:
            kept.add(k)
            products |= new
    return sorted(kept)


def _one_product_inside(oracle, order, a, b):
    """Keys a, b, a b and more, grown greedily along *order*, of which a b
    is the only product of two keys that is again a key."""
    kept = [a, b, oracle.kmul(a, b)]
    if naive_incident_pairs(oracle, kept) != 1:
        return None
    for k in order:
        if k not in kept and naive_incident_pairs(oracle, kept + [k]) == 1:
            kept.append(k)
    return kept


def _walk_witnesses(g, rng):
    """Free witnesses, each also with a product of two of its keys
    appended, and witnesses with one product of two keys inside."""
    keys = list(g.enum_keys)
    free = [_grow_free(g, keys), _grow_free(g, keys[::-1])]
    for _ in range(6):
        rng.shuffle(keys)
        grown = _grow_free(g, keys)
        free += [grown, rng.sample(grown, rng.randint(1, len(grown)))]
    out = []
    for w in free:
        a, b = rng.choice(w), rng.choice(w)
        out += [w, w + [g.kmul(a, b)]]
    for _ in range(4):
        rng.shuffle(keys)
        out.append(_one_product_inside(g, keys, *rng.sample(keys, 2)))
    return list(filter(None, out))


def _walk_group(spec):
    return kmul_oracles()[spec] if spec in ("A4-view", "S4/V4") else build_group(spec)


def _spy_walk(monkeypatch):
    calls = []
    walk_free = certificates._walk_free

    def spy(oracle, keys, pos):
        calls.append(keys)
        return walk_free(oracle, keys, pos)

    monkeypatch.setattr(certificates, "_walk_free", spy)
    return calls


@pytest.mark.parametrize("cost", [0, 4, None])
@pytest.mark.parametrize(
    "spec",
    ["sym:4", "dihedral:5", "dihedral:12", "dihedral:60", "heisenberg:3",
     "heisenberg:5", "A4-view", "S4/V4"],
)
def test_generator_walk_matches_raw_kmul(spec, cost, monkeypatch):
    if cost is not None:
        # a gate of `cost` |G| <= n^2 moves witnesses from raw kmul to the walk
        monkeypatch.setattr(certificates, "VERIFY_WALK_COST", cost)
    calls = _spy_walk(monkeypatch)
    g = _walk_group(spec)
    verdicts, routes = set(), set()
    for keys in _walk_witnesses(g, random.Random(f"{spec}/{cost}")):
        x = MultSet(g, set(keys) | {g.identity_key})
        free = naive_is_product_free(g, set(keys))
        verdicts.add(free)
        ok, problems = verify_certificate(_claimed_free_cert(x, keys), x)
        assert ok == free, (keys, problems)
        assert ("witness is not product-free on recomputation" in problems) != free
        keys = tuple(sorted(set(keys)))
        route = certificates.VERIFY_WALK_COST * g.order <= len(keys) ** 2
        routes.add(route)
        assert calls == ([keys] if route else [])
        calls.clear()
    assert verdicts == {True, False}
    if cost == 0:
        assert routes == {True}
    elif cost is None:
        # at the default gate only the 60 reflections of dihedral:60 and the
        # 50-key witness of heisenberg:5 are large enough for the walk
        assert (True in routes) == (spec in ("dihedral:60", "heisenberg:5"))


def test_generator_walk_skips_small_witnesses_and_foreign_keys(monkeypatch):
    calls = _spy_walk(monkeypatch)
    g = build_group("heisenberg:11")
    x = MultSet(g, [g.identity_key, g.kdecode("1,1,0;0,1,0;0,0,1")])
    # one point: 16 |G| > 1, so the pair loop runs
    assert verify_certificate(_claimed_free_cert(x, x.keys[1:]), x) == (True, [])
    assert calls == []
    # an odd permutation decodes in the A4 view but has no position there:
    # the pair loop runs even with the walk's gate open, and raises nothing
    monkeypatch.setattr(certificates, "VERIFY_WALK_COST", 0)
    a4 = kmul_oracles()["A4-view"]
    x = MultSet(a4, a4.enum_keys)
    cert = _claimed_free_cert(x, [(1, 2, 0, 3)])
    cert.witness.append("1,0,2,3")
    cert.achieved_size += 1
    ok, problems = verify_certificate(cert, x)
    assert not ok
    assert problems == ["witness element '1,0,2,3' not in the input set"]
    assert calls == []
    assert verify_certificate(_claimed_free_cert(x, [(1, 2, 0, 3)]), x) == (True, [])
    assert calls == [((1, 2, 0, 3),)]


def test_generator_walk_gate_is_16_group_orders_per_squared_witness_size(monkeypatch):
    calls = _spy_walk(monkeypatch)
    g = build_group("dihedral:200")
    x = MultSet(g, g.enum_keys[1:])
    free = _grow_free(g, g.enum_keys)  # the 200 reflections
    assert len(free) == 200
    for n, walks in ((79, False), (80, True)):  # 16 * 400 == 80^2
        assert verify_certificate(_claimed_free_cert(x, free[:n]), x) == (True, [])
        assert calls == ([tuple(free[:n])] if walks else [])
        calls.clear()


@pytest.fixture(scope="module")
def real_certificates(tmp_path_factory):
    out = {}
    for algorithm, source in [
        ("thm33", "interval:300"),
        ("alon-kleitman", "full-group-minus-identity:cyclic:1000"),
        ("alon-kleitman", "full-group-minus-identity:abelian:40,40"),
    ]:
        path = tmp_path_factory.mktemp("certs") / "cert.json"
        assert cli_main(["extract", algorithm, source, "--out", str(path)]) == 0
        out[source] = (json.loads(path.read_text()), generate(source))
    return out


def _append_product(data, x):
    """The certificate with one more witness element of X that breaks only
    freeness: a product a b of two witness elements, or failing that (as in
    an interval, whose witness sums leave X) a quotient w a^-1, which times
    a gives w."""
    o = x.oracle
    keys = [o.kdecode(t) for t in data["witness"]]
    candidates = itertools.chain(
        (o.kmul(a, b) for a in keys for b in keys),
        (o.kmul(w, o.kinv(a)) for a in keys for w in keys),
    )
    extra = next(p for p in candidates if p in x.key_set() and p not in keys)
    tampered = json.loads(json.dumps(data))
    tampered["witness"].append(o.kencode(extra))
    tampered["achieved_size"] += 1
    return tampered


@pytest.mark.parametrize(
    "source",
    [
        "interval:300",
        "full-group-minus-identity:cyclic:1000",
        "full-group-minus-identity:abelian:40,40",
    ],
)
def test_bitset_recheck_is_independent_of_the_kernel(
    source, real_certificates, monkeypatch
):
    data, x = real_certificates[source]
    tampered = _append_product(data, x)
    expected = [
        verify_certificate(ExtractionCertificate.from_json_dict(d), x)
        for d in (data, tampered)
    ]
    assert expected[0] == (True, [])
    assert expected[1] == (False, ["witness is not product-free on recomputation"])

    def unreachable(*args, **kwargs):
        raise AssertionError("verify reached the counting kernel")

    for name in ("_pair_counts", "_outer_sums", "_operands", "count_incident_pairs"):
        monkeypatch.setattr(sets, name, unreachable)
    for d, want in zip((data, tampered), expected):
        assert verify_certificate(ExtractionCertificate.from_json_dict(d), x) == want


def test_box_group_tamper_appended_product(tmp_path):
    source = "full-group-minus-identity:abelian:6,10"
    path = tmp_path / "ab.json"
    assert cli_main(["extract", "alon-kleitman", source, "--out", str(path)]) == 0
    x = generate(source)
    tampered = _append_product(json.loads(path.read_text()), x)
    ok, problems = verify_certificate(ExtractionCertificate.from_json_dict(tampered), x)
    assert not ok
    assert problems == ["witness is not product-free on recomputation"]


def test_box_group_tamper_appended_product_through_the_cli(
    tmp_path, real_certificates, capsys
):
    source = "full-group-minus-identity:cyclic:1000"
    data, x = real_certificates[source]
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps(_append_product(data, x)))
    capsys.readouterr()
    assert cli_main(["verify", str(path), source]) == 1
    assert capsys.readouterr().out == (
        "FAIL\n  - witness is not product-free on recomputation\n"
    )


@pytest.fixture(scope="module")
def interval50_certificate(tmp_path_factory):
    path = tmp_path_factory.mktemp("interval50") / "cert.json"
    assert cli_main(["extract", "thm33", "interval:50", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _verify_cli(data, tmp_path, capsys, *flags):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = cli_main(["verify", str(path), "interval:50", *flags])
    return (code, *capsys.readouterr())


# each breaks one JSON type of a real certificate; the last three used to be
# coerced into a PASS, the others to end verify in a traceback
_MALFORMED = {
    "sizes-list": lambda d: d["trace"][0].update(sizes=[101, 101]),
    "params-list": lambda d: d.update(params=["2/5"]),
    "numeric-inequality": lambda d: d["trace"][0].update(inequality=1),
    "zero-guarantee": lambda d: d.update(guarantee="1/0"),
    "integer-guarantee": lambda d: d.update(guarantee="3"),
    "long-guarantee": lambda d: d.update(guarantee="1" * 5000 + "/1"),
    "int-witness-item": lambda d: d["witness"].append(51),
    "bool-size": lambda d: d["trace"][0]["sizes"].update(x=True),
    "float-size": lambda d: d["trace"][0]["sizes"].update(x=101.9),
    "string-holds": lambda d: d["trace"][0].update(holds="false"),
    "string-achieved-size": lambda d: d.update(achieved_size="17"),
}


@pytest.mark.parametrize("tamper", list(_MALFORMED))
def test_verify_rejects_malformed_certificate_with_a_reason(
    tamper, interval50_certificate, tmp_path, capsys
):
    data = copy.deepcopy(interval50_certificate)
    assert _verify_cli(data, tmp_path, capsys) == (0, "PASS\n", "")
    _MALFORMED[tamper](data)
    code, out, err = _verify_cli(data, tmp_path, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed certificate: ") and err.count("\n") == 1


def test_verify_reports_a_zero_denominator_as_a_failed_stage(
    interval50_certificate, tmp_path, capsys
):
    data = copy.deepcopy(interval50_certificate)
    data["trace"][0]["inequality"] = "1/0 * y >= x"
    assert _verify_cli(data, tmp_path, capsys) == (
        1,
        "FAIL\n  - trace[0] petridis-size: zero denominator in '1/0 * y >= x'\n",
        "",
    )


def test_verify_reports_a_too_long_literal_as_a_failed_stage(
    interval50_certificate, tmp_path, capsys
):
    data = copy.deepcopy(interval50_certificate)
    data["trace"][0]["inequality"] = "1" * 5000 + " * y >= x"
    assert _verify_cli(data, tmp_path, capsys) == (
        1,
        "FAIL\n  - trace[0] petridis-size: integer literal too long in an "
        "inequality of 5009 characters\n",
        "",
    )


def test_verify_budget_bounds_the_witness_recheck(
    interval50_certificate, tmp_path, capsys
):
    assert interval50_certificate["achieved_size"] == 17
    code, out, err = _verify_cli(
        interval50_certificate, tmp_path, capsys, "--budget", "288"
    )
    assert (code, out, err) == (1, "", "error: 17^2 pairs exceed budget 288\n")
    assert _verify_cli(
        interval50_certificate, tmp_path, capsys, "--budget", "289"
    ) == (0, "PASS\n", "")


def test_verify_budget_bounds_the_walk_recheck(tmp_path, capsys, monkeypatch):
    calls = _spy_walk(monkeypatch)
    source = "full-group-minus-identity:dihedral:200"
    path = tmp_path / "d.json"
    assert cli_main(["extract", "solvable", source, "--out", str(path)]) == 0
    assert json.loads(path.read_text())["achieved_size"] == 200
    capsys.readouterr()
    assert cli_main(["verify", str(path), source, "--budget", "39999"]) == 1
    assert capsys.readouterr() == ("", "error: 200^2 pairs exceed budget 39999\n")
    assert calls == []
    assert cli_main(["verify", str(path), source, "--budget", "40000"]) == 0
    assert capsys.readouterr() == ("PASS\n", "")
    assert [len(keys) for keys in calls] == [200]  # 16 * 400 <= 200^2: the walk ran


@pytest.mark.parametrize("scale", [1, 2**40], ids=["bitset", "raw-kmul"])
def test_verify_witness_ceiling_is_3162_points_on_both_paths(scale, int_group):
    def cert_for(keys):
        x = MultSet(int_group, [scale * k for k in keys])
        return x, ExtractionCertificate(
            input_digest(x), "demo", {}, x.encoded(), True, len(x), None
        )

    x, cert = cert_for(range(3163, 6326))
    # keys k * 2^40 lie past the bitset's gate, on the raw kmul loop
    assert _bitset_route(int_group, x.keys) == (scale == 1)
    with pytest.raises(BudgetExceededError):
        verify_certificate(cert, x)
    if scale == 1:
        # {3162, ..., 6323} is product-free: every sum is at least 6324
        x, cert = cert_for(range(3162, 6324))
        assert verify_certificate(cert, x) == (True, [])
