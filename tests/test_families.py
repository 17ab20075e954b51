import itertools

import pytest

from prodfree import (
    FAMILY_NAMES,
    FamilySpec,
    GroupSpecError,
    NotEnumerableError,
    PreconditionError,
    build_group,
    closure_keys,
    generate,
    generate_with_info,
    parse_family,
)


def test_parse_family_colon_form():
    spec = parse_family("gap:2:3,3:1,7")
    assert spec.name == "gap"
    assert spec.tokens == ("2", "3,3", "1,7")
    assert spec.seed is None
    assert spec.text == "gap:2:3,3:1,7"


def test_parse_family_paren_alias():
    assert parse_family("interval(5)") == parse_family("interval:5")
    assert parse_family("full-group(sym:3)") == parse_family("full-group:sym:3")


def test_parse_family_seed_token():
    spec = parse_family("random:cyclic:20:6:seed=9")
    assert spec.tokens == ("cyclic", "20", "6")
    assert spec.seed == 9
    assert spec.text == "random:cyclic:20:6:seed=9"
    with pytest.raises(GroupSpecError):
        parse_family("random:cyclic:20:6:seed=x")


def test_parse_family_rejects_unknown():
    with pytest.raises(GroupSpecError):
        parse_family("blob:3")
    assert "interval" in FAMILY_NAMES and len(FAMILY_NAMES) == 7


def test_interval_family(int_group):
    x, info = generate_with_info("interval:3")
    assert x.keys == (-3, -2, -1, 0, 1, 2, 3)
    assert x.oracle.domain == "int"
    assert info == {"family": "interval", "nominal_size": 7, "size": 7, "group": "int"}
    assert generate("interval:0").keys == (0,)
    with pytest.raises(GroupSpecError):
        generate("interval:-1")
    with pytest.raises(GroupSpecError):
        generate("interval:1:2")


def test_gap_family_collision_free():
    x, info = generate_with_info("gap:2:1,1:1,3")
    want = {n1 * 1 + n2 * 3 for n1 in (-1, 0, 1) for n2 in (-1, 0, 1)}
    assert set(x.keys) == want and len(x) == 9
    assert info["collisions"] == 0


def test_gap_family_with_collisions():
    x, info = generate_with_info("gap:2:1,1:1,1")
    assert x.keys == (-2, -1, 0, 1, 2)
    assert info["nominal_size"] == 9
    assert info["collisions"] == 4


@pytest.mark.parametrize(
    "spec",
    [
        "gap:3:5,5,5:1,11,121",
        "gap:2:4,4:2,2",
        "gap:3:2,3,1:6,-4,10",
        "gap:2:0,3:7,-3",
        "gap:2:2,2:0,0",
        # sums past int64: the outer sums run on Python ints
        "gap:2:3,3:4611686018427387904,5",
        "gap:1:4:-100000000000000000000",
    ],
)
def test_gap_family_matches_coefficient_sums(spec):
    _, _, radii, steps = spec.split(":")
    radii = [int(r) for r in radii.split(",")]
    steps = [int(a) for a in steps.split(",")]
    want = {
        sum(n * a for n, a in zip(combo, steps))
        for combo in itertools.product(*(range(-r, r + 1) for r in radii))
    }
    x, info = generate_with_info(spec)
    assert x.keys == tuple(sorted(want))
    assert all(type(k) is int for k in x.keys)
    assert info["collisions"] == info["nominal_size"] - len(want)


def test_gap_family_validation():
    for bad in ("gap:2:1:1,3", "gap:0:1:1", "gap:2:1,-1:1,3", "gap:1:1"):
        with pytest.raises(GroupSpecError):
            generate(bad)


def test_heisenberg_ball_family():
    x, info = generate_with_info("heisenberg-ball:5:1")
    small = {0, 1, 4}  # residues with representative magnitude <= 1
    assert len(x) == 27
    for key in x.keys:
        m = [int(t) for t in x.oracle.kencode(key).replace(";", ",").split(",")]
        a, c, b = m[1], m[2], m[5]
        assert {a, b, c} <= small
    full, _ = generate_with_info("heisenberg-ball:3:1")
    assert len(full) == 27  # radius 1 mod 3 already covers every residue


def test_coset_union_family():
    g = build_group("cyclic:12")
    h = closure_keys(g, [4])
    x, info = generate_with_info("coset-union:cyclic:12:4:2")
    assert h == frozenset({0, 4, 8})
    # first two cosets in least-representative order: 0+H and 1+H
    assert set(x.keys) == {0, 4, 8, 1, 5, 9}
    assert info["nominal_size"] == 6
    with pytest.raises(GroupSpecError):
        generate("coset-union:cyclic:12:4:9")  # only 4 cosets exist


def test_coset_union_nonabelian():
    x, info = generate_with_info("coset-union:sym:3:1,0,2:2")
    assert len(x) == 4
    g = x.oracle
    h_keys = closure_keys(g, [(1, 0, 2)])
    assert frozenset(g.enum_keys[0:1]) <= h_keys  # identity in the subgroup


def test_coset_union_generators_must_lie_in_the_group():
    # a transposition of the hexagon's vertices is no symmetry of it, so it
    # cannot generate a subgroup of dihedral:6 (it would generate Sym(6))
    with pytest.raises(GroupSpecError):
        generate("coset-union:dihedral:6:1,0,2,3,4,5|1,2,3,4,5,0:1")


def test_random_family_determinism():
    a = generate("random:cyclic:50:8:seed=4")
    b = generate("random:cyclic:50:8:seed=4")
    c = generate("random:cyclic:50:8:seed=5")
    assert a.keys == b.keys
    assert len(a) == 8
    assert a.keys != c.keys
    # explicit seed argument is overridden by the seed token
    assert generate("random:cyclic:50:8:seed=4", seed=99).keys == a.keys


def test_random_family_int_sampler():
    x = generate("random:int:6:seed=3")
    assert len(x) == 6
    assert x.oracle.kind == "int"
    assert generate("random:int:6:seed=3").keys == x.keys


def test_random_family_size_checks():
    with pytest.raises(GroupSpecError):
        generate("random:cyclic:10:11")
    with pytest.raises(GroupSpecError):
        generate("random:cyclic:10:0")


def test_full_group_families():
    x, info = generate_with_info("full-group:dihedral:4")
    assert len(x) == 8
    y, _ = generate_with_info("full-group-minus-identity:dihedral:4")
    assert len(y) == 7
    assert x.oracle.identity_key not in y.key_set()
    with pytest.raises(NotEnumerableError):
        generate("full-group:int")
    with pytest.raises(GroupSpecError):
        generate("full-group:sym:3:extra")


def test_family_size_cap():
    with pytest.raises(PreconditionError):
        generate("interval:200000")


def test_family_spec_dataclass_text():
    spec = FamilySpec("random", ("cyclic", "9", "3"), seed=2)
    assert spec.text == "random:cyclic:9:3:seed=2"
    assert parse_family(spec.text) == spec
