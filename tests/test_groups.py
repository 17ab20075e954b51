import dataclasses
import hashlib
import itertools
import math
import random
import time

import pytest

from prodfree import (
    Element,
    GroupAxiomError,
    GroupSpecError,
    NotASubgroupError,
    NotEnumerableError,
    NotNormalError,
    NotSolvableError,
    PreconditionError,
    abelian_basis,
    abelian_coords,
    build_group,
    closure_keys,
    cyclic_subgroups,
    derived_subnormal_series,
    element_order,
    generated_subgroup,
    group_spec_token_count,
    quotient_projection,
    subnormal_series_from_chain,
    verify_group_axioms,
)
from prodfree import groups
from prodfree.groups import (
    DIHEDRAL_MAX,
    GroupOracle,
    LawTable,
    _mat_inv,
    _mat_mul,
    _perm_inv,
    _perm_mul,
    derived_subgroup_keys,
    generating_keys,
    subgroup_view,
)
from conftest import kmul_oracles, naive_closure, naive_derived_orders

Q8_GENS = [(0, 2, 1, 0), (1, 1, 1, 2)]  # i and j inside GL2(F3)


def test_int_oracle_basics():
    g = build_group("int")
    assert g.kind == "int"
    assert g.order is None and g.enum_keys is None
    assert g.identity_key == 0
    assert g.kmul(2, 3) == 5
    assert g.kinv(7) == -7
    assert g.kdecode(g.kencode(-12)) == -12


def test_int_oracle_samples():
    import numpy as np

    g = build_group("int")
    rng = np.random.Generator(np.random.Philox(key=1))
    vals = {g.ksample(rng) for _ in range(50)}
    assert len(vals) > 10
    assert all(isinstance(v, int) for v in vals)


@pytest.mark.parametrize(
    "spec,order",
    [
        ("cyclic:6", 6),
        ("abelian:4,2", 8),
        ("sym:3", 6),
        ("dihedral:4", 8),
        ("heisenberg:3", 27),
    ],
)
def test_axioms_exhaustive(spec, order):
    g = build_group(spec)
    assert g.order == order
    assert len(g.enum_keys) == order
    tested = verify_group_axioms(g)
    assert tested == len(generating_keys(g)) * order**2


def test_axioms_sampled_on_infinite_groups():
    assert verify_group_axioms(build_group("int")) > 0
    assert verify_group_axioms(build_group("matrix:2:3")) > 0


@pytest.mark.parametrize(
    "spec,order",
    [
        ("cyclic:17", 17),
        ("sym:4", math.factorial(4)),
        ("dihedral:7", 14),
        ("heisenberg:5", 125),
        ("abelian:6,10", 60),
    ],
)
def test_orders(spec, order):
    assert build_group(spec).order == order


def test_identity_key_shapes():
    assert build_group("cyclic:9").identity_key == 0
    assert build_group("sym:3").identity_key == (0, 1, 2)
    g = build_group("abelian:3,3")
    assert g.identity_key == 0
    assert g.kencode(g.identity_key) == "0,0"
    h = build_group("heisenberg:3")
    assert h.identity_key == 0
    assert h.kencode(h.identity_key) == "1,0,0;0,1,0;0,0,1"


@pytest.mark.parametrize(
    "spec", ["cyclic:12", "abelian:4,3", "sym:4", "dihedral:5", "heisenberg:3"]
)
def test_encode_decode_round_trip(spec):
    g = build_group(spec)
    for k in g.enum_keys[:: max(1, len(g.enum_keys) // 20)]:
        assert g.kdecode(g.kencode(k)) == k
        el = g.decode(g.kencode(k))
        assert el == Element(g.domain, k)


def test_matrix_group_round_trip_and_inverse():
    g = build_group("matrix:2:5")
    a = (1, 2, 0, 1)
    assert g.kdecode(g.kencode(a)) == a
    assert g.kmul(a, g.kinv(a)) == g.identity_key


def test_bad_specs_rejected():
    for bad in ("nosuch:3", "cyclic", "cyclic:1:2", "sym:0", "heisenberg:4",
                "dihedral:2", "matrix:2", "abelian:", "cyclic:x", "int:5",
                "matrix:2:3:4"):
        with pytest.raises(GroupSpecError):
            build_group(bad)


def test_spec_token_counts():
    assert group_spec_token_count("int") == 1
    for name in ("cyclic", "abelian", "sym", "dihedral", "heisenberg"):
        assert group_spec_token_count(name) == 2
    assert group_spec_token_count("matrix") == 3
    with pytest.raises(GroupSpecError):
        group_spec_token_count("nosuch")


def test_closure_matches_naive():
    g = build_group("sym:4")
    seeds = [(1, 0, 2, 3), (1, 2, 3, 0)]  # a transposition and a 4-cycle
    got = closure_keys(g, seeds)
    assert got == frozenset(naive_closure(g, seeds))
    assert len(got) == 24


def test_generated_subgroup_cyclic():
    g = build_group("cyclic:12")
    h = generated_subgroup(g, [4])
    assert h.order == 3
    assert set(h.enum_keys) == {0, 4, 8}
    # subgroup elements live in the parent domain
    assert h.domain == g.domain


def test_generated_subgroup_q8():
    """The quaternion group realised as 2x2 matrices over F3."""
    m = build_group("matrix:2:3")
    q8 = generated_subgroup(m, Q8_GENS)
    assert q8.order == 8
    assert not q8.abelian
    orders = sorted(element_order(q8, k) for k in q8.enum_keys)
    # 1, the central involution, and six elements of order 4
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    verify_group_axioms(q8)


def test_element_order_matches_naive():
    g = build_group("sym:4")
    for k in g.enum_keys[::5]:
        n = 1
        acc = k
        while acc != g.identity_key:
            acc = g.kmul(acc, k)
            n += 1
        assert element_order(g, k) == n


def test_quotient_projection_is_homomorphism():
    g = build_group("sym:3")
    a3 = closure_keys(g, [(1, 2, 0)])
    assert len(a3) == 3
    q, key_map = quotient_projection(g, a3)
    assert q.order == 2
    assert "/" in q.domain
    for a in g.enum_keys:
        for b in g.enum_keys:
            lhs = q.kmul(key_map[a], key_map[b])
            assert lhs == key_map[g.kmul(a, b)]


def test_quotient_rejects_non_normal_subgroup():
    for spec, reflection in [("sym:3", "1,0,2"), ("dihedral:6", "0,5,4,3,2,1")]:
        g = build_group(spec)
        h = closure_keys(g, [g.kdecode(reflection)])  # order 2, not normal
        assert len(h) == 2
        with pytest.raises(NotNormalError):
            quotient_projection(g, h)


@pytest.mark.parametrize("spec", ["cyclic:2", "sym:4", "dihedral:150"])
def test_quotient_rejects_a_projection_entry_in_the_wrong_coset(spec, monkeypatch):
    # every entry of cyclic:2 and sym:4 in turn, and every 12th of
    # dihedral:150 (order 300); on cyclic:2 the derived subgroup is {0}, and
    # moving entry 1 gives the constant map, which only the fiber count sees
    g = build_group(spec)
    h = derived_subgroup_keys(g)
    real = groups._quotient_build
    for y in g.enum_keys[:: max(1, g.order // 24)]:

        def corrupted(parent, h_keys, y=y):
            quotient, key_map = real(parent, h_keys)
            right = key_map[y]
            key_map[y] = next(r for r in quotient.enum_keys if r != right)
            return quotient, key_map

        monkeypatch.setattr(groups, "_quotient_build", corrupted)
        with pytest.raises(GroupAxiomError, match="not a homomorphism"):
            quotient_projection(g, h)
    monkeypatch.undo()
    quotient_projection(g, h)


def test_abelian_basis_and_coords():
    # Z6 x Z4 has invariant factors (12, 2)
    g = build_group("abelian:6,4")
    basis = abelian_basis(g)
    assert [t for _, t in basis] == [12, 2]
    moduli, lookup = abelian_coords(g)
    assert moduli == (12, 2)
    seen = {lookup(k) for k in g.enum_keys}
    assert len(seen) == 24
    # coordinates are a homomorphism
    for a in g.enum_keys[::5]:
        for b in g.enum_keys[::7]:
            va, vb = lookup(a), lookup(b)
            want = tuple((x + y) % m for x, y, m in zip(va, vb, moduli))
            assert lookup(g.kmul(a, b)) == want


def test_abelian_coords_on_cyclic():
    g = build_group("cyclic:10")
    moduli, lookup = abelian_coords(g)
    assert moduli == (10,)
    assert len({lookup(k) for k in g.enum_keys}) == 10


@pytest.mark.parametrize(
    "spec,orders",
    [
        ("sym:3", [6, 3, 1]),
        ("sym:4", [24, 12, 4, 1]),
        ("dihedral:4", [8, 2, 1]),
        ("dihedral:6", [12, 3, 1]),
        ("heisenberg:3", [27, 3, 1]),
        ("cyclic:8", [8, 1]),
    ],
)
def test_derived_series_matches_commutator_closure(spec, orders):
    g = build_group(spec)
    assert naive_derived_orders(g) == orders
    series = derived_subnormal_series(g)
    assert [lvl.order for lvl in series.levels] == orders
    assert series.exponent == len(orders) - 2
    for lvl, nxt in zip(series.levels, series.levels[1:]):
        assert quotient_projection(lvl, nxt.enum_keys)[0].abelian


def test_derived_series_q8():
    q8 = generated_subgroup(build_group("matrix:2:3"), Q8_GENS)
    assert naive_derived_orders(q8) == [8, 2, 1]
    series = derived_subnormal_series(q8)
    assert [lvl.order for lvl in series.levels] == [8, 2, 1]
    assert series.exponent == 1


@pytest.mark.parametrize("spec", ["sym:4", "dihedral:12", "heisenberg:5", "q8"])
def test_series_levels_and_quotients_carry_the_right_abelian_flag(spec):
    if spec == "q8":
        g = generated_subgroup(build_group("matrix:2:3"), Q8_GENS)
    else:
        g = build_group(spec)
    series = derived_subnormal_series(g)
    quotients = [
        quotient_projection(lvl, nxt.enum_keys)[0]
        for lvl, nxt in zip(series.levels, series.levels[1:])
    ]
    oracles = list(series.levels) + quotients
    assert not series.levels[0].abelian
    for o in oracles:
        ks = o.enum_keys
        commutes = all(o.kmul(a, b) == o.kmul(b, a) for a in ks for b in ks)
        assert o.abelian == commutes, o.domain
        verify_group_axioms(o)


def test_dihedral_decoder_accepts_only_rotations_and_reflections():
    g = build_group("dihedral:6")
    assert [g.kdecode(g.kencode(k)) for k in g.enum_keys] == list(g.enum_keys)
    for text in ("2,3,4,5,0,1", "2,1,0,5,4,3"):  # rotation, reflection
        assert g.kencode(g.kdecode(text)) == text
        assert g.kdecode(text) in g.enum_keys
    for bad in ("1,0,2,3,4,5", "0,2,1,3,4,5", "0,1,2,3,4", "0,1,2,3,4,5,6"):
        with pytest.raises(GroupSpecError):
            g.kdecode(bad)


@pytest.mark.parametrize("n", [*range(3, 65), 200, DIHEDRAL_MAX])
def test_dihedral_text_matches_naive_image_words(n):
    # the rotation i -> k + i and the reflection i -> k - i, written out
    # one residue at a time; key a is the rank of its word in sorted order
    g = build_group(f"dihedral:{n}")
    naive = [
        ",".join(str((k + sign * i) % n) for i in range(n))
        for k in range(n)
        for sign in (1, -1)
    ]
    naive.sort(key=lambda text: tuple(map(int, text.split(","))))
    assert [g.kencode(a) for a in g.enum_keys] == naive
    assert [g.kdecode(text) for text in naive] == list(g.enum_keys)


# what the decoder made of texts that parse but are not canonical before its
# digit strings were precomputed: int() is lenient about zeros, signs and
# blanks, and everything else is rejected as before
@pytest.mark.parametrize(
    "text,expected",
    [
        ("2,3,4,5,0,1", 5),
        ("02,3,4,5,0,1", 5),
        (" 2,3,4,5,0,1", 5),
        ("+2,3,4,5,0,1", 5),
        ("2,3,4,5,0,1 ", 5),
        ("2, 1,0,5,4,3", 4),
        ("2,03,4,5,0,1", 5),
        ("2,3,4,5,0,01", 5),
        ("2_0,3,4,5,0,1", GroupSpecError),
        ("2,3,4,5,0", GroupSpecError),
        ("8,3,4,5,0,1", GroupSpecError),
        ("-4,3,4,5,0,1", GroupSpecError),
        ("2,3,4,5,0,1,", ValueError),
        ("a,3,4,5,0,1", ValueError),
        ("", ValueError),
    ],
)
def test_dihedral_decoder_on_non_canonical_texts(text, expected):
    g = build_group("dihedral:6")
    if isinstance(expected, int):
        assert g.kdecode(text) == expected
    else:
        with pytest.raises(expected) as info:
            g.kdecode(text)
        assert type(info.value) is expected


def _joined_text(g, key):
    """A key's text joined entry by entry: a dihedral image word rotated
    out of "0,...,n-1" or "n-1,...,0", or a matrix written row by row."""
    if g.domain.startswith("dihedral:"):
        n = g.order // 2
        up = [str(i) for i in range(n)]
        down, k = up[::-1], key >> 1
        if key & 1 ^ (0 < k < n - 1):  # a reflection (the builder's sign)
            return ",".join(down[n - 1 - k :] + down[: n - 1 - k])
        return ",".join(up[k:] + up[:k])
    if g.domain.startswith("heisenberg:"):
        key = _heis_matrix(g, key)
    d = math.isqrt(len(key))
    rows = [key[i * d : (i + 1) * d] for i in range(d)]
    return ";".join(",".join(str(v) for v in row) for row in rows)


@pytest.mark.parametrize(
    "spec",
    ["dihedral:3", "dihedral:4", "dihedral:5", "dihedral:12", "dihedral:200",
     "heisenberg:3", "heisenberg:5", "matrix:2:5"],
)
def test_codecs_match_the_per_entry_joins(spec):
    g = build_group(spec)
    if g.enum_keys is None:  # matrix:2:5: every invertible 2 x 2 matrix mod 5
        keys = [k for k in itertools.product(range(5), repeat=4)
                if (k[0] * k[3] - k[1] * k[2]) % 5]
        assert len(keys) == 480
    else:
        keys = g.enum_keys
    assert [g.kencode(k) for k in keys] == [_joined_text(g, k) for k in keys]
    if spec.startswith("dihedral:"):
        assert [g.kdecode(g.kencode(k)) for k in keys] == list(keys)


@pytest.mark.parametrize(
    "spec,digest",
    [
        ("sym:4", "66dd0e8c8f2e9e6c7a6352fc7b5b8c62a14f29d013ebab9cb2f669a61b3d9583"),
        ("heisenberg:5", "3f8c538f7dfcc8c0f92cb860dac26cef21d0f9b5b85f0d48f5f99f8a6a5d224a"),
        ("dihedral:200", "2fbd5f6d6d96d06d1be83e37f40446bb76b5dd1e6a5d8d3840c31105788f8925"),
    ],
)
def test_vector_and_matrix_encodings_are_frozen(spec, digest):
    # sha256 of every element's text in enumeration order, one per line
    g = build_group(spec)
    text = "\n".join(g.kencode(k) for k in g.enum_keys)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_derived_series_rejects_non_solvable():
    with pytest.raises(NotSolvableError):
        derived_subnormal_series(build_group("sym:5"))


def test_generators_are_searched_once_per_oracle(monkeypatch):
    searched = []
    real = groups._greedy_generators

    def spy(oracle):
        if oracle._gens is None:
            searched.append(oracle)
        return real(oracle)

    monkeypatch.setattr(groups, "_greedy_generators", spy)
    g = build_group("sym:4")
    gens = generating_keys(g)
    verify_group_axioms(g)
    assert generating_keys(g) is gens and searched == [g]
    # a copy searches its own, and finds the same generators
    assert generating_keys(_with(g)) == gens and len(searched) == 2


# {e, (0 1), (2 3)} in sym:4 holds the identity and its inverses, and
# (0 1)(2 3) is outside it
S4_NOT_CLOSED = ["0,1,2,3", "1,0,2,3", "0,1,3,2"]


@pytest.mark.parametrize(
    "spec,texts,message",
    [
        ("cyclic:12", ["4", "8"], "identity missing"),
        ("cyclic:12", ["0", "3", "6"], "inverse of 3 missing"),
        ("sym:4", S4_NOT_CLOSED, "not closed under multiplication"),
        ("sym:4", [], "identity missing"),
    ],
)
def test_subgroup_view_rejects_a_non_subgroup(spec, texts, message):
    g = build_group(spec)
    members = [g.kdecode(t) for t in texts]
    with pytest.raises(NotASubgroupError, match=message):
        subgroup_view(g, members)
    with pytest.raises(NotASubgroupError, match=message):
        quotient_projection(g, members)


@pytest.mark.parametrize(
    "spec,members", [("int", [-1, 0, 1]), ("cyclic:1000000", [0, 1, 999999])]
)
def test_a_non_closed_view_fails_at_its_first_outside_product(spec, members):
    # -1 + -1 and 1 + 1 leave the members at once; the closure of 1 inside
    # the whole group is infinite, or a million keys
    g = build_group(spec)
    start = time.perf_counter()
    with pytest.raises(NotASubgroupError, match="not closed under multiplication"):
        subgroup_view(g, members)
    assert time.perf_counter() - start < 0.05


def test_a_non_subgroup_link_breaks_the_series():
    g = build_group("sym:4")
    e = g.identity_key
    not_closed = [g.kdecode(t) for t in S4_NOT_CLOSED]
    with pytest.raises(NotASubgroupError, match="not closed"):
        subnormal_series_from_chain(g, [g.enum_keys, not_closed, [e]])
    with pytest.raises(NotASubgroupError, match="identity missing"):
        subnormal_series_from_chain(g, [g.enum_keys, not_closed[1:], [e]])


def test_subgroup_views_check_every_subgroup_of_a_small_group():
    # every subset of dihedral:4 (order 8) is a view iff it is a subgroup,
    # judged here on all its pairs
    g = build_group("dihedral:4")
    ks, kmul = g.enum_keys, g.kmul
    subgroups = 0
    for mask in range(1, 1 << len(ks)):
        keys = {k for i, k in enumerate(ks) if mask >> i & 1}
        if all(kmul(a, b) in keys for a in keys for b in keys):
            subgroups += 1
            assert subgroup_view(g, keys).order == len(keys)
        else:
            with pytest.raises(NotASubgroupError):
                subgroup_view(g, keys)
    assert subgroups == 10


def test_series_from_explicit_chain():
    g = build_group("cyclic:12")
    chain = [set(range(12)), {0, 4, 8}, {0}]
    series = subnormal_series_from_chain(g, chain)
    assert [lvl.order for lvl in series.levels] == [12, 3, 1]
    assert series.exponent == 1


def test_series_chain_validation():
    g = build_group("cyclic:12")
    with pytest.raises(PreconditionError):
        subnormal_series_from_chain(g, [{0, 4, 8}, {0}])  # not the whole group
    with pytest.raises(PreconditionError):
        subnormal_series_from_chain(g, [set(range(12)), {0, 4, 8}])  # no bottom


def test_series_chain_rejects_a_non_normal_level_and_a_non_abelian_factor():
    g = build_group("sym:3")
    e, swap = g.identity_key, g.kdecode("1,0,2")
    with pytest.raises(NotNormalError):
        subnormal_series_from_chain(g, [g.enum_keys, {e, swap}, {e}])
    with pytest.raises(PreconditionError, match="not abelian"):
        subnormal_series_from_chain(g, [g.enum_keys, {e}])


@pytest.mark.parametrize(
    "spec,kinds",
    [
        ("sym:4", {"not normal", "a non-abelian factor"}),
        ("dihedral:6", {"not normal", "abelian factors", "a non-abelian factor"}),
        ("heisenberg:3", {"not normal", "abelian factors"}),
    ],
)
def test_series_checks_on_generators_agree_with_the_definitions(spec, kinds):
    # every chain G > N > {1} with N generated by two elements: the checks
    # on generators accept it iff N is normal and G/N and N are abelian,
    # each tested here on all elements
    g = build_group(spec)
    ks, kmul, kinv = g.enum_keys, g.kmul, g.kinv
    top, bottom = frozenset(ks), frozenset({g.identity_key})

    def commutators_inside(keys, inside):
        return all(
            kmul(kmul(kinv(a), kinv(b)), kmul(a, b)) in inside
            for a in keys for b in keys
        )

    subgroups = {closure_keys(g, pair) for pair in itertools.combinations(ks, 2)}
    verdicts = set()
    for n_keys in subgroups - {top, bottom}:
        chain = [top, n_keys, bottom]
        if not all(kmul(kmul(x, h), kinv(x)) in n_keys for x in ks for h in n_keys):
            verdicts.add("not normal")
            with pytest.raises(NotNormalError):
                subnormal_series_from_chain(g, chain)
        elif commutators_inside(ks, n_keys) and commutators_inside(n_keys, bottom):
            verdicts.add("abelian factors")
            series = subnormal_series_from_chain(g, chain)
            assert [lvl.order for lvl in series.levels] == [g.order, len(n_keys), 1]
        else:
            verdicts.add("a non-abelian factor")
            with pytest.raises(PreconditionError, match="not abelian"):
                subnormal_series_from_chain(g, chain)
    assert verdicts == kinds


def test_derived_series_builds_no_quotient(monkeypatch):
    calls = []
    real = groups._quotient_build

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groups, "_quotient_build", spy)
    for spec in ("sym:4", "dihedral:200", "heisenberg:5"):
        assert derived_subnormal_series(build_group(spec)).exponent >= 1
    assert calls == []


def test_cyclic_subgroups_are_the_divisor_lattice():
    g = build_group("cyclic:12")
    subs = cyclic_subgroups(g)
    assert [len(s) for s in subs] == [1, 2, 3, 4, 6, 12]
    for sub in subs:
        keys = {el.key for el in sub}
        assert all((a + b) % 12 in keys for a in keys for b in keys)


def test_derived_series_needs_enumeration():
    with pytest.raises(NotEnumerableError):
        derived_subnormal_series(build_group("int"))


def _with(source, **changes):
    """A copy of the oracle *source* (or of the group that spec names) with
    *changes*, made as ``dataclasses.replace`` makes it: the copy starts
    without the source's cached facts."""
    g = build_group(source) if isinstance(source, str) else source
    return dataclasses.replace(g, **changes)


def _searched(g):
    """*g* after its greedy generators were searched and cached."""
    generating_keys(g)
    return g


# the smallest loop that is not a group: identity 0, every element its own
# inverse, every row and column a permutation, and not associative
LOOP5 = ["01234", "10342", "24013", "32401", "43120"]


BROKEN_ORACLES = [
    _with("cyclic:6", kmul=lambda a, b: (a + b + 1) % 6),
    GroupOracle(
        domain="loop5",
        kind="table",
        kmul=lambda a, b: int(LOOP5[a][b]),
        kinv=lambda a: a,
        identity_key=0,
        abelian=False,
        order=5,
        enum_keys=tuple(range(5)),
    ),
    # an enumeration that is not closed: 0..5 inside Z/12
    _with("cyclic:12", order=6, enum_keys=tuple(range(6))),
    # the same cut of an oracle whose generators were searched first
    _with(_searched(build_group("cyclic:12")), order=6, enum_keys=range(6)),
    # {0, 4, 8} widened to {0, 1, 4, 5, 8, 9}, not closed (1 + 1 = 2): the
    # view's cached generator 4 maps it onto itself, so only the copy's own
    # search, whose closure is all of Z/12, catches it
    _with(
        generated_subgroup(build_group("cyclic:12"), [4]),
        order=6,
        enum_keys=(0, 1, 4, 5, 8, 9),
    ),
    # a wrong abelian flag, both ways, also on a group of order 400
    _with("cyclic:6", abelian=False),
    _with("abelian:20,20", abelian=False),
    _with("sym:3", abelian=True),
]


def test_axiom_checker_catches_broken_oracle():
    for broken in BROKEN_ORACLES:
        with pytest.raises(GroupAxiomError):
            verify_group_axioms(broken)


def _word(g, key):
    return tuple(int(t) for t in g.kencode(key).split(","))


def _check_dihedral_pairs(g, pairs):
    for a, b in pairs:
        assert _word(g, g.kmul(a, b)) == _perm_mul(_word(g, a), _word(g, b))


@pytest.mark.parametrize("n", range(3, 13))
def test_dihedral_arithmetic_matches_image_words(n):
    g = build_group(f"dihedral:{n}")
    _check_dihedral_pairs(g, itertools.product(g.enum_keys, repeat=2))
    assert _word(g, g.identity_key) == tuple(range(n))
    for a in g.enum_keys:
        assert _word(g, g.kinv(a)) == _perm_inv(_word(g, a))


@pytest.mark.parametrize("n", [200, DIHEDRAL_MAX])
def test_dihedral_arithmetic_matches_image_words_sampled(n):
    g = build_group(f"dihedral:{n}")
    rng = random.Random(n)
    _check_dihedral_pairs(
        g, [(rng.randrange(2 * n), rng.randrange(2 * n)) for _ in range(2000)]
    )


@pytest.mark.parametrize("n", [*range(3, 65), 1024])
def test_dihedral_keys_follow_image_word_order(n):
    # sorted keys, coset representatives and seeded picks, and so the
    # certificate bytes, are those of the image words
    g = build_group(f"dihedral:{n}")
    words = [_word(g, k) for k in g.enum_keys]
    assert words == sorted(set(words)) and len(words) == 2 * n


def _heis_matrix(g, key):
    """The row-major 3 x 3 matrix [[1, a, c], [0, 1, b], [0, 0, 1]] of the
    heisenberg:p key a p^2 + c p + b."""
    p = int(g.domain.split(":")[1])
    a, rest = divmod(key, p * p)
    c, b = divmod(rest, p)
    return (1, a, c, 0, 1, b, 0, 0, 1)


def _check_heisenberg_pairs(g, pairs):
    p = int(g.domain.split(":")[1])
    for x, y in pairs:
        mx, my = _heis_matrix(g, x), _heis_matrix(g, y)
        assert _heis_matrix(g, g.kmul(x, y)) == _mat_mul(mx, my, 3, p)
        assert _heis_matrix(g, g.kinv(x)) == _mat_inv(mx, 3, p)


@pytest.mark.parametrize("p", [3, 5])
def test_heisenberg_product_matches_matrix_product(p):
    g = build_group(f"heisenberg:{p}")
    _check_heisenberg_pairs(g, itertools.product(g.enum_keys, repeat=2))


@pytest.mark.parametrize("p", [97, 211])
def test_heisenberg_product_matches_matrix_product_on_seeded_keys(p):
    # heisenberg:211 has no enumeration and no law, only kmul and kinv
    g = build_group(f"heisenberg:{p}")
    assert (g.enum_keys is None) == (g.law is None) == (p == 211)
    rng = random.Random(p)
    keys = [rng.randrange(p**3) for _ in range(4000)]
    _check_heisenberg_pairs(g, zip(keys[::2], keys[1::2]))


def test_heisenberg_product_matches_matrix_product_sampled():
    import numpy as np

    g = build_group("heisenberg:31")
    rng = np.random.Generator(np.random.Philox(key=31))
    pairs = [(g.ksample(rng), g.ksample(rng)) for _ in range(2000)]
    assert all(0 <= k < 31**3 for pair in pairs for k in pair)
    _check_heisenberg_pairs(g, pairs)


def test_heisenberg_keys_sort_as_their_entries():
    # sorted keys, digests and certificate bytes follow (a, c, b) order
    for p, keys in (
        (5, range(5**3)),
        (97, sorted(random.Random(97).sample(range(97**3), 500))),
    ):
        g = build_group(f"heisenberg:{p}")
        entries = [(m[1], m[2], m[5]) for m in (_heis_matrix(g, k) for k in keys)]
        assert entries == sorted(set(entries))
    assert build_group("heisenberg:5").enum_keys == range(125)


@pytest.mark.parametrize("p", [5, 97, 211])
def test_heisenberg_codec_round_trip(p):
    g = build_group(f"heisenberg:{p}")
    if p == 5:
        keys = g.enum_keys
    else:  # seeded keys, with no enumeration or law built for them
        rng = random.Random(p)
        keys = [rng.randrange(p**3) for _ in range(2000)] + [0, p**3 - 1]
    for k in keys:
        text = g.kencode(k)
        assert text == _joined_text(g, k)
        assert g.kdecode(text) == k


def test_heisenberg_decoder_accepts_noncanonical_and_rejects_malformed_texts():
    g = build_group("heisenberg:11")
    key = lambda a, c, b: (a * 11 + c) * 11 + b
    # entries are reduced mod p, and empty rows are skipped
    assert g.kdecode("1,12,0;0,1,0;0,0,1") == key(1, 0, 0)
    assert g.kdecode("1,-1,3;0,1,25;0,0,1") == key(10, 3, 3)
    assert g.kdecode("1,2,3;0,1,4;0,0,1;") == key(2, 3, 4)
    assert g.kdecode("12,0,0;11,1,0;0,0,1") == 0
    for bad in (
        "1,2;0,1,4;0,0,1",  # ragged
        "1,2,3;0,1;0,0,1",
        "2,2,3;0,1,4;0,0,1",  # not unitriangular
        "1,2,3;1,1,4;0,0,1",
        "1,2,3;0,1,4;0,0,2",
        "1,2,3;0,1,4",  # wrong row count
        "1,2,3;0,1,4;0,0,1;0,0,0",
    ):
        with pytest.raises(GroupSpecError):
            g.kdecode(bad)


def _parsed_heisenberg_key(p, text):
    """The key of a heisenberg:p text by the general matrix parser alone,
    or the type and message of the error it raises."""
    try:
        m = groups._matrix_decode_factory(3, p, unitriangular=True)(text)
    except (GroupSpecError, ValueError) as exc:
        return type(exc), str(exc)
    return (m[1] * p + m[2]) * p + m[5]


@pytest.mark.parametrize("p", [2, 11, 17])
def test_heisenberg_decoder_matches_the_general_parser(p):
    # canonical texts take one match; entries at or past p, leading zeros,
    # signs, spaces and malformed rows take the full parse
    g = build_group(f"heisenberg:{p}")
    rng = random.Random(p)
    entries = ["0", "1", str(p - 1), str(p), str(p + 1), "00", "01", f"0{p - 1}", "-1", " 1", "1 ", "", "x"]
    texts = [g.kencode(k) for k in g.enum_keys]
    for _ in range(3000):
        a, c, b = (rng.choice(entries) for _ in range(3))
        texts.append(f"1,{a},{c};0,1,{b};0,0,1")
        texts.append(rng.choice([f"1,{a},{c};0,1,{b};0,0,{c}", f"1,{a},{c};0,1,{b};0,0,1;", f"{a},{c};0,1,{b};0,0,1"]))
    for text in texts:
        try:
            got = g.kdecode(text)
        except (GroupSpecError, ValueError) as exc:
            got = type(exc), str(exc)
        assert got == _parsed_heisenberg_key(p, text), text
    assert [g.kdecode(t) for t in texts[: g.order]] == list(g.enum_keys)


def _check_abelian_pairs(g, moduli, pairs):
    for a, b in pairs:
        want = tuple((x + y) % m for x, y, m in zip(_word(g, a), _word(g, b), moduli))
        assert _word(g, g.kmul(a, b)) == want


ABELIAN_SMALL = [(1,), (5, 1), (4, 3), (2, 2, 2), (6, 10)]


def _abelian(moduli):
    return build_group("abelian:" + ",".join(map(str, moduli)))


@pytest.mark.parametrize("moduli", ABELIAN_SMALL, ids=str)
def test_abelian_arithmetic_matches_residue_vectors(moduli):
    g = _abelian(moduli)
    _check_abelian_pairs(g, moduli, itertools.product(g.enum_keys, repeat=2))
    assert _word(g, g.identity_key) == (0,) * len(moduli)
    for a in g.enum_keys:
        assert _word(g, g.kinv(a)) == tuple((-x) % m for x, m in zip(_word(g, a), moduli))


@pytest.mark.parametrize("moduli", [(40, 40), (7, 11, 13)], ids=str)
def test_abelian_arithmetic_matches_residue_vectors_sampled(moduli):
    g = _abelian(moduli)
    rng = random.Random(str(moduli))
    pairs = [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(2000)]
    _check_abelian_pairs(g, moduli, pairs)
    for a, _ in pairs:
        assert _word(g, g.kinv(a)) == tuple((-x) % m for x, m in zip(_word(g, a), moduli))


@pytest.mark.parametrize("moduli", [*ABELIAN_SMALL, (40, 40), (7, 11, 13)], ids=str)
def test_abelian_keys_follow_residue_vector_order(moduli):
    # sorted keys, coset representatives and seeded picks, and so the
    # certificate bytes, are those of the residue vectors
    g = _abelian(moduli)
    words = [_word(g, k) for k in g.enum_keys]
    assert words == list(itertools.product(*(range(m) for m in moduli)))
    assert [g.kdecode(g.kencode(k)) for k in g.enum_keys] == list(g.enum_keys)


def test_abelian_decoder_rejections():
    g = build_group("abelian:4,3")
    assert g.kdecode("3,2") == 11 and g.kencode(11) == "3,2"
    for bad in ("1", "1,2,0", "4,0", "0,3", "-1,0"):
        with pytest.raises(GroupSpecError):
            g.kdecode(bad)
    with pytest.raises(ValueError):
        g.kdecode("a,0")


@pytest.mark.parametrize("moduli", [(4, 3), (7, 11, 13), (2000, 1000)], ids=str)
def test_abelian_sampler_draws_the_residue_vectors(moduli):
    import numpy as np

    g = _abelian(moduli)
    rng = np.random.Generator(np.random.Philox(key=5))
    ref = np.random.Generator(np.random.Philox(key=5))
    for _ in range(200):
        want = tuple(int(ref.integers(0, m)) for m in moduli)
        assert _word(g, g.ksample(rng)) == want


@pytest.mark.parametrize("moduli", ABELIAN_SMALL, ids=str)
def test_abelian_element_order_matches_brute_force(moduli):
    g = _abelian(moduli)
    for a in g.enum_keys:
        v = _word(g, a)
        n = 1
        while any(n * x % m for x, m in zip(v, moduli)):
            n += 1
        assert element_order(g, a) == n


def test_only_dihedral_and_enumerated_heisenberg_carry_a_law():
    for spec in ("dihedral:3", "dihedral:1024", "heisenberg:2", "heisenberg:5"):
        assert isinstance(build_group(spec).law, LawTable)
    # heisenberg:101 has 1030301 elements, more than ENUM_CAP: no enumeration
    for spec in (
        "int", "cyclic:12", "abelian:6,10", "matrix:2:5", "sym:4", "sym:7", "heisenberg:101"
    ):
        assert build_group(spec).law is None
    assert all(g.law is None for g in kmul_oracles().values())


def test_axiom_check_catches_a_broken_law_oracle():
    # a law comes with its oracle and reads no kmul, so a dihedral:6 whose
    # enumeration or kmul is broken keeps its law and fails the axiom check
    for broken in (
        _with("dihedral:6", order=6, enum_keys=tuple(range(6))),
        _with("dihedral:6", kmul=lambda a, b: b),
    ):
        assert isinstance(broken.law, LawTable)
        with pytest.raises(GroupAxiomError):
            verify_group_axioms(broken)


LAW_EVERY_PAIR = [
    *(f"dihedral:{n}" for n in range(3, 13)),
    "dihedral:200",
    *(f"heisenberg:{p}" for p in (2, 3, 5, 7)),
]


@pytest.mark.parametrize("spec", LAW_EVERY_PAIR)
def test_law_matches_kmul_on_every_pair(spec):
    g = build_group(spec)
    table = g.law
    assert isinstance(table, LawTable) and table.order == g.order
    # keys are their own positions in the sorted enumeration
    keys = g.enum_keys
    assert list(keys) == list(range(g.order))
    cells = table.outer(keys, keys)
    assert cells.shape == (g.order, g.order)
    for a, row in zip(keys, cells):
        assert row.tolist() == [g.kmul(a, b) for b in keys]


@pytest.mark.parametrize("spec", ["dihedral:6", "heisenberg:5"])
def test_cayley_table_matches_kmul_on_every_pair(spec):
    # the law's cells on every pair form the Cayley table: a Latin square of
    # positions, with the identity's row and column the enumeration itself
    g = build_group(spec)
    table = g.law
    assert isinstance(table, LawTable) and table is g.law
    cells = table.outer(g.enum_keys, g.enum_keys)
    every = list(range(g.order))
    assert all(sorted(row) == every for row in cells.tolist())
    assert all(sorted(col) == every for col in cells.T.tolist())
    e = g.enum_keys.index(g.identity_key)
    assert cells[e].tolist() == every == cells[:, e].tolist()
    assert cells.tolist() == [
        [g.kmul(a, b) for b in g.enum_keys] for a in g.enum_keys
    ]


@pytest.mark.parametrize(
    "spec", ["heisenberg:11", "heisenberg:17", "heisenberg:97", "dihedral:1024"]
)
def test_law_matches_kmul_on_random_blocks(spec):
    g = build_group(spec)
    table = g.law
    rng = random.Random(spec)
    for _ in range(8):
        # unsorted operands, with fewer and with more rows than groups
        xs = rng.sample(g.enum_keys, rng.randint(1, 200))
        ys = rng.sample(g.enum_keys, rng.randint(1, 60))
        cells = table.outer(xs, ys)
        assert cells.shape == (len(xs), len(ys))
        assert cells.tolist() == [[g.kmul(x, y) for y in ys] for x in xs]
    assert table.outer([], ys).shape == (0, len(ys))


@pytest.mark.parametrize("spec", ["dihedral:6", "heisenberg:11"])
def test_axiom_check_compares_the_law_with_kmul(spec):
    g = build_group(spec)
    verify_group_axioms(g)
    # the opposite group is a group, so only the law comparison fails: on
    # every pair in dihedral:6, on the sampled pairs in heisenberg:11
    opposite = _with(spec, kmul=lambda a, b, _mul=g.kmul: _mul(b, a))
    with pytest.raises(GroupAxiomError, match="disagrees with kmul"):
        verify_group_axioms(opposite)
