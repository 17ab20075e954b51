import hashlib
import random

import pytest

from prodfree import (
    MultSet,
    PreconditionError,
    build_group,
    exhaustive_max_product_free,
    greedy_product_free,
    is_product_free,
)
from prodfree.cli import main
from conftest import naive_is_product_free, naive_max_product_free_size


@pytest.mark.parametrize("spec", ["int", "cyclic:9", "sym:3", "dihedral:4"])
def test_exhaustive_matches_full_enumeration(spec):
    g = build_group(spec)
    rng = random.Random(spec.__hash__() & 0xFF)
    pool = list(g.enum_keys) if g.enum_keys else list(range(-15, 16))
    for _ in range(15):
        ks = rng.sample(pool, rng.randint(1, min(10, len(pool))))
        x = MultSet(g, ks)
        best = exhaustive_max_product_free(x)
        assert best.key_set() <= x.key_set()
        assert naive_is_product_free(g, best.keys)
        assert len(best) == naive_max_product_free_size(g, ks)


def _first_maximum(g, keys):
    """The first maximum product-free subset in include-first order: over
    all subsets, the largest, ties to the one whose membership vector
    (first key most significant) is largest."""
    n = len(keys)
    best, best_rank = [], -1
    for rank in range(1 << n):
        sub = [keys[i] for i in range(n) if rank >> (n - 1 - i) & 1]
        if (len(sub), rank) > (len(best), best_rank) and naive_is_product_free(g, sub):
            best, best_rank = sub, rank
    return best


@pytest.mark.parametrize("spec", ["int", "cyclic:9", "sym:3", "dihedral:4", "heisenberg:3"])
def test_exhaustive_witness_is_the_first_maximum(spec):
    g = build_group(spec)
    rng = random.Random(f"first-max {spec}")
    pool = list(g.enum_keys) if g.enum_keys else list(range(-15, 16))
    pool.remove(g.identity_key)
    for trial in range(12):
        ks = rng.sample(pool, rng.randint(1, min(12, len(pool))))
        if trial % 3 == 0:
            ks[-1] = g.identity_key
        x = MultSet(g, ks)
        assert exhaustive_max_product_free(x).keys == tuple(_first_maximum(g, x.keys))


# source -> sha256 of the certificate `extract exhaustive SOURCE --seed 7`
# prints, whose witness is the first maximum in include-first order
FROZEN_EXHAUSTIVE_SHA256 = {
    "full-group-minus-identity:sym:4": "42aa98decd1c18ba1d6d92b3c95fc1f64640334df0972d163f5ebfff923e4a4d",
    "full-group-minus-identity:dihedral:12": "846fe8e22e87f347a4e49df329564741bc5e7c547b873197f06e8c4d99a72387",
    "random:cyclic:128:20": "e39393f562f0096db0640acf42100a4cabf470d88ac78b6e18b0dcf3ca078428",
}


@pytest.mark.parametrize("spec", sorted(FROZEN_EXHAUSTIVE_SHA256))
def test_exhaustive_certificate_bytes_are_frozen(spec, capsys):
    assert main(["extract", "exhaustive", spec, "--seed", "7"]) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_EXHAUSTIVE_SHA256[spec]


def test_first_ten_integers_optimum_is_five(int_group):
    """Full enumeration over all 1024 subsets of {1..10}."""
    keys = tuple(range(1, 11))
    best = 0
    for mask in range(1 << 10):
        sub = [keys[i] for i in range(10) if mask >> i & 1]
        if naive_is_product_free(int_group, sub):
            best = max(best, len(sub))
    assert best == 5
    x = MultSet(int_group, keys)
    assert len(exhaustive_max_product_free(x)) == 5


def test_exhaustive_on_identity_only_set():
    g = build_group("cyclic:6")
    x = MultSet(g, [0])
    assert len(exhaustive_max_product_free(x)) == 0


def test_exhaustive_size_cap(int_group):
    x = MultSet(int_group, range(30))
    with pytest.raises(PreconditionError):
        exhaustive_max_product_free(x)


@pytest.mark.parametrize("spec", ["int", "cyclic:12", "sym:4", "heisenberg:3"])
def test_greedy_always_product_free(spec):
    g = build_group(spec)
    rng = random.Random(len(spec) * 7)
    pool = list(g.enum_keys) if g.enum_keys else list(range(-40, 41))
    for _ in range(25):
        ks = rng.sample(pool, rng.randint(1, min(14, len(pool))))
        x = MultSet(g, ks)
        got = greedy_product_free(x)
        assert got.key_set() <= x.key_set()
        assert naive_is_product_free(g, got.keys)
        if len(ks) <= 10:
            assert len(got) <= naive_max_product_free_size(g, ks)


def test_greedy_is_deterministic(int_group):
    x = MultSet(int_group, [5, 3, 8, 1, 14, 2])
    a = greedy_product_free(x)
    b = greedy_product_free(x)
    assert a == b


def test_greedy_maximality(int_group):
    # no leftover element can join the greedy witness
    x = MultSet(int_group, range(1, 15))
    got = greedy_product_free(x)
    leftovers = x.key_set() - got.key_set()
    for extra in leftovers:
        bigger = MultSet(int_group, got.keys + (extra,))
        assert not is_product_free(bigger)


def test_empty_input(int_group):
    e = MultSet(int_group, [])
    assert len(greedy_product_free(e)) == 0
    assert len(exhaustive_max_product_free(e)) == 0
