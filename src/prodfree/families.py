"""Deterministic test-instance generators.

Family text forms:

* ``interval:N``                     the integers -N..N
* ``gap:d:N1,..,Nd:a1,..,ad``        {sum n_i a_i : |n_i| <= N_i}
* ``heisenberg-ball:p:r``            unitriangular matrices mod p whose
                                     entries have representative magnitude
                                     min(x, p - x) at most r
* ``coset-union:GROUP:g1|g2|..:m``   union of the first m left cosets of
                                     the subgroup generated by the g_i
* ``random:GROUP:m[:seed=S]``        m distinct elements, Philox-seeded
* ``full-group:GROUP``               every element
* ``full-group-minus-identity:GROUP``

``NAME(ARGS)`` is accepted as an alias for ``NAME:ARGS``.  Identical spec
and seed always regenerate the identical set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GroupSpecError, NotEnumerableError, PreconditionError
from .groups import (
    GroupOracle,
    _left_cosets,
    build_group,
    closure_keys,
    group_spec_token_count,
)
from .sets import MultSet, _sorted_distinct

MAX_FAMILY_SIZE = 10**5

FAMILY_NAMES = (
    "interval",
    "gap",
    "heisenberg-ball",
    "coset-union",
    "random",
    "full-group",
    "full-group-minus-identity",
)


@dataclass(frozen=True)
class FamilySpec:
    name: str
    tokens: tuple[str, ...]
    seed: int | None = None

    @property
    def text(self) -> str:
        base = ":".join((self.name,) + self.tokens)
        if self.seed is not None:
            base += f":seed={self.seed}"
        return base


def parse_family(text: str) -> FamilySpec:
    text = text.strip()
    if text.endswith(")") and "(" in text:
        name, inner = text[:-1].split("(", 1)
        text = f"{name}:{inner}"
    parts = text.split(":")
    name = parts[0]
    if name not in FAMILY_NAMES:
        raise GroupSpecError(f"unknown family {name!r}")
    tokens = parts[1:]
    seed = None
    if tokens and tokens[-1].startswith("seed="):
        try:
            seed = int(tokens[-1][5:])
        except ValueError:
            raise GroupSpecError(f"bad seed token in {text!r}") from None
        tokens = tokens[:-1]
    return FamilySpec(name, tuple(tokens), seed)


def _embedded_group(tokens: tuple[str, ...]) -> tuple[GroupOracle, tuple[str, ...]]:
    if not tokens:
        raise GroupSpecError("family needs a group spec")
    take = group_spec_token_count(tokens[0])
    if take > len(tokens):
        raise GroupSpecError(f"truncated group spec {':'.join(tokens)!r}")
    return build_group(":".join(tokens[:take])), tokens[take:]


def _cap(size: int, what: str) -> None:
    if size > MAX_FAMILY_SIZE:
        raise PreconditionError(f"{what} would have {size} > {MAX_FAMILY_SIZE} elements")


def _ints(token: str) -> list[int]:
    try:
        return [int(t) for t in token.split(",") if t != ""]
    except ValueError:
        raise GroupSpecError(f"expected comma-separated integers, got {token!r}") from None


def generate_with_info(spec, seed: int | None = None):
    """Generate a family instance plus nominal-vs-actual size metadata."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    if spec.seed is not None:
        seed = spec.seed
    info: dict = {"family": spec.name}

    if spec.name == "interval":
        if len(spec.tokens) != 1:
            raise GroupSpecError("interval takes one parameter: interval:N")
        n = int(spec.tokens[0])
        if n < 0:
            raise GroupSpecError("interval radius must be >= 0")
        _cap(2 * n + 1, "interval")
        x = MultSet(build_group("int"), range(-n, n + 1))
        info["nominal_size"] = 2 * n + 1

    elif spec.name == "gap":
        if len(spec.tokens) != 3:
            raise GroupSpecError("gap form is gap:d:N1,..,Nd:a1,..,ad")
        d = int(spec.tokens[0])
        radii = _ints(spec.tokens[1])
        steps = _ints(spec.tokens[2])
        if d < 1 or len(radii) != d or len(steps) != d:
            raise GroupSpecError(f"gap rank {d} does not match its parameter lists")
        if any(r < 0 for r in radii):
            raise GroupSpecError("gap radii must be >= 0")
        nominal = 1
        for r in radii:
            nominal *= 2 * r + 1
        _cap(nominal, "gap family")
        # one outer sum per rank, in int64 unless a sum could leave it
        reach = sum(r * abs(a) for r, a in zip(radii, steps))
        dtype = np.int64 if reach < 2**63 else object
        sums = np.zeros(1, dtype=dtype)
        for r, a in zip(radii, steps):
            sums = (sums[:, None] + np.arange(-r, r + 1, dtype=dtype) * a).ravel()
        keys = _sorted_distinct(sums).tolist()
        x = MultSet._from_sorted(build_group("int"), keys)
        info["nominal_size"] = nominal
        info["collisions"] = nominal - len(keys)

    elif spec.name == "heisenberg-ball":
        if len(spec.tokens) != 2:
            raise GroupSpecError("heisenberg-ball form is heisenberg-ball:p:r")
        p, r = int(spec.tokens[0]), int(spec.tokens[1])
        oracle = build_group(f"heisenberg:{p}")
        small = [v for v in range(p) if min(v, p - v) <= r]
        _cap(len(small) ** 3, "heisenberg ball")
        keys = [
            (a * p + c) * p + b for a, c, b in itertools.product(small, repeat=3)
        ]
        x = MultSet(oracle, keys)
        info["nominal_size"] = len(small) ** 3

    elif spec.name == "coset-union":
        oracle, rest = _embedded_group(spec.tokens)
        if len(rest) != 2:
            raise GroupSpecError("coset-union form is coset-union:GROUP:g1|g2|..:m")
        if oracle.enum_keys is None:
            raise NotEnumerableError("coset-union needs a finite group")
        gen_keys = [oracle.kdecode(t) for t in rest[0].split("|") if t]
        if not gen_keys:
            raise GroupSpecError("coset-union needs at least one generator")
        m = int(rest[1])
        h_keys = closure_keys(oracle, gen_keys)
        cosets = _left_cosets(oracle, h_keys)
        if not 1 <= m <= len(cosets):
            raise GroupSpecError(
                f"coset-union count must lie in 1..{len(cosets)}, got {m}"
            )
        _cap(m * len(h_keys), "coset union")
        x = MultSet(oracle, itertools.chain.from_iterable(cosets[:m]))
        info["nominal_size"] = m * len(h_keys)

    elif spec.name == "random":
        oracle, rest = _embedded_group(spec.tokens)
        if len(rest) != 1:
            raise GroupSpecError("random form is random:GROUP:m[:seed=S]")
        m = int(rest[0])
        if m < 1:
            raise GroupSpecError("random family size must be >= 1")
        _cap(m, "random family")
        rng = np.random.Generator(np.random.Philox(key=0 if seed is None else seed))
        if oracle.enum_keys is not None:
            if m > len(oracle.enum_keys):
                raise GroupSpecError(
                    f"random family size {m} exceeds group order {oracle.order}"
                )
            idx = rng.permutation(len(oracle.enum_keys))[:m]
            keys = [oracle.enum_keys[i] for i in sorted(idx.tolist())]
        elif oracle.ksample is not None:
            chosen: set = set()
            for _ in range(200 * m):
                chosen.add(oracle.ksample(rng))
                if len(chosen) == m:
                    break
            if len(chosen) < m:
                raise PreconditionError("sampler failed to reach the requested size")
            keys = sorted(chosen)
        else:
            raise NotEnumerableError("group supports neither enumeration nor sampling")
        x = MultSet(oracle, keys)
        info["nominal_size"] = m
        info["seed"] = 0 if seed is None else seed

    elif spec.name in ("full-group", "full-group-minus-identity"):
        oracle, rest = _embedded_group(spec.tokens)
        if rest:
            raise GroupSpecError(f"{spec.name} takes only a group spec")
        if oracle.enum_keys is None:
            raise NotEnumerableError(f"{spec.name} needs a finite group")
        _cap(oracle.order, spec.name)
        keys = list(oracle.enum_keys)
        if spec.name == "full-group-minus-identity":
            keys = [k for k in keys if k != oracle.identity_key]
        x = MultSet(oracle, keys)
        info["nominal_size"] = len(keys)

    else:  # pragma: no cover - parse_family already screens names
        raise GroupSpecError(f"unknown family {spec.name!r}")

    info["size"] = len(x)
    info["group"] = x.oracle.domain
    return x, info


def generate(spec, seed: int | None = None) -> MultSet:
    x, _ = generate_with_info(spec, seed=seed)
    return x
