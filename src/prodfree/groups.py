"""Group oracles and canonical element encodings.

An ambient group is presented as a :class:`GroupOracle`: a domain tag, a
multiplication and inversion on raw payload keys, an identity, and optional
finite enumeration plus abelian metadata.  Elements travel as ``Element``
named tuples ``(domain, key)`` so that equality and the canonical total
order are plain tuple comparisons.

Payload conventions:

* ``int``          arbitrary-precision integers under addition
* ``cyclic:n``     least non-negative residues ``0..n-1``
* ``abelian:...``  the residue vector ``(d_1, ..., d_r)``, one residue per
                   listed modulus, as the mixed-radix int
                   ``sum d_j * M_{j+1} * ... * M_r`` (first component most
                   significant, so int order is vector order); the comma
                   text ``d_1,...,d_r`` is its text
* ``sym:n``        permutations as image words ``(p(0), ..., p(n-1))``
* ``dihedral:n``   the 2n symmetries of an n-gon; the key is an int code,
                   the rank of the image word ``(p(0), ..., p(n-1))`` in
                   sorted order, and the image word is its text
* ``heisenberg:p`` unitriangular 3x3 matrices mod p; the matrix
                   ``[[1, a, c], [0, 1, b], [0, 0, 1]]`` is the int
                   ``a p^2 + c p + b`` (int order is (a, c, b) order), and
                   its rows ``1,a,c;0,1,b;0,0,1`` are its text
* ``matrix:d:m``   invertible d x d matrices mod m, flattened row-major

``dihedral:n`` and an enumerated ``heisenberg:p`` carry a product law,
a :class:`LawTable` held on the oracle's ``law`` field: their ``kmul``
formula, the dihedral composition rule or the unitriangular matrix
product, read on their int keys (which are also their enumeration
positions) and evaluated on numpy arrays, so one ``outer(a, b)`` gives the
key of every product x_i x_j with no cells stored.  Every other group
multiplies with ``kmul`` alone.
:func:`verify_group_axioms` compares a law with its oracle's ``kmul``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    GroupAxiomError,
    GroupSpecError,
    NotASubgroupError,
    NotEnumerableError,
    NotNormalError,
    NotSolvableError,
    PreconditionError,
)

ENUM_CAP = 10**6
SYM_MAX = 8
DIHEDRAL_MAX = 1024
SERIES_ORDER_CAP = 10**4
COORDS_ORDER_CAP = 4096
LIGHT_TEST_CAP = 10**6  # most |gens| * n^2 checks of a proven associativity


class Element(NamedTuple):
    """A group element: domain tag plus canonical payload key.

    Two elements are equal iff both the tag and the payload agree, and the
    derived tuple order gives a strict total order inside each domain.
    """

    domain: str
    key: Any

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.domain}:{self.key}"


# ---------------------------------------------------------------------------
# small arithmetic helpers


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _mat_mul(a: tuple, b: tuple, d: int, m: int) -> tuple:
    return tuple(
        sum(a[i * d + t] * b[t * d + j] for t in range(d)) % m
        for i in range(d)
        for j in range(d)
    )


def _mat_det(a: tuple, d: int) -> int:
    if d == 1:
        return a[0]
    if d == 2:
        return a[0] * a[3] - a[1] * a[2]
    total = 0
    for j in range(d):
        minor = tuple(
            a[i * d + c] for i in range(1, d) for c in range(d) if c != j
        )
        total += (-1) ** j * a[j] * _mat_det(minor, d - 1)
    return total


def _mat_inv(a: tuple, d: int, m: int) -> tuple:
    det = _mat_det(a, d) % m
    try:
        det_inv = pow(det, -1, m)
    except ValueError:
        raise PreconditionError(f"matrix not invertible mod {m}: det={det}")
    if d == 1:
        return (det_inv % m,)
    # adjugate via cofactors; d stays small in practice
    adj = [0] * (d * d)
    for i in range(d):
        for j in range(d):
            minor = tuple(
                a[r * d + c]
                for r in range(d)
                if r != i
                for c in range(d)
                if c != j
            )
            adj[j * d + i] = (-1) ** (i + j) * _mat_det(minor, d - 1)
    return tuple((det_inv * v) % m for v in adj)


# ---------------------------------------------------------------------------
# the oracle record


@dataclass(eq=False)
class GroupOracle:
    """Black-box group with canonical element codec.

    ``enum_keys`` is populated iff the group is finite with order within
    :data:`ENUM_CAP` (and the builder can enumerate at all), as
    ``range(order)`` where keys are their own positions; ``order`` is
    ``None`` for groups handled purely as oracles.  ``law`` is the
    :class:`LawTable` that the builder attaches to ``dihedral:n`` and an
    enumerated ``heisenberg:p``, and None on every other group.
    ``_gens`` (:func:`generating_keys`) and ``_coords``
    (:func:`abelian_coords`) cache facts found on first use; as they are
    not init fields, a copy made by ``dataclasses.replace`` starts without.
    """

    domain: str
    kind: str
    kmul: Callable[[Any, Any], Any]
    kinv: Callable[[Any], Any]
    identity_key: Any
    abelian: bool
    order: int | None = None
    enum_keys: Sequence | None = None
    component_moduli: tuple[int, ...] | None = None
    kencode: Callable[[Any], str] = str
    kdecode: Callable[[str], Any] | None = None
    ksample: Callable[[Any], Any] | None = None
    law: LawTable | None = field(default=None, repr=False)
    _gens: tuple | None = field(default=None, init=False, repr=False)
    _coords: tuple | None = field(default=None, init=False, repr=False)

    # -- element-level conveniences -------------------------------------
    def wrap(self, key: Any) -> Element:
        return Element(self.domain, key)

    def decode(self, text: str) -> Element:
        if self.kdecode is None:
            raise GroupSpecError(f"{self.domain!r} has no decoder")
        return Element(self.domain, self.kdecode(text))


# ---------------------------------------------------------------------------
# builders


def _vector_encode(key: tuple) -> str:
    return ",".join(map(str, key))


def _perm_decode_factory(n: int):
    def dec(text: str) -> tuple:
        parts = tuple(int(t) for t in text.split(","))
        if sorted(parts) != list(range(n)):
            raise GroupSpecError(f"not an image word on 0..{n - 1}: {text!r}")
        return parts

    return dec


def _matrix_encode_factory(d: int):
    # the row-major entries, ',' within a row and ';' between rows, written
    # by one precomputed %-format, with no str() or join per entry
    return ";".join([",".join(["%d"] * d)] * d).__mod__


def _matrix_decode_factory(d: int, m: int, unitriangular: bool):
    def dec(text: str) -> tuple:
        rows = [r for r in text.split(";") if r]
        if len(rows) != d:
            raise GroupSpecError(f"expected {d} matrix rows: {text!r}")
        flat = []
        for r in rows:
            vals = [int(t) % m for t in r.split(",")]
            if len(vals) != d:
                raise GroupSpecError(f"ragged matrix row: {r!r}")
            flat.extend(vals)
        key = tuple(flat)
        if unitriangular:
            for i in range(d):
                for j in range(d):
                    if i == j and key[i * d + j] != 1:
                        raise GroupSpecError("diagonal must be 1")
                    if i > j and key[i * d + j] != 0:
                        raise GroupSpecError("lower triangle must be 0")
        else:
            if math.gcd(_mat_det(key, d) % m, m) != 1:
                raise GroupSpecError(f"matrix not invertible mod {m}: {text!r}")
        return key

    return dec


def _build_int() -> GroupOracle:
    return GroupOracle(
        domain="int",
        kind="int",
        kmul=lambda a, b: a + b,
        kinv=lambda a: -a,
        identity_key=0,
        abelian=True,
        order=None,
        kencode=str,
        kdecode=int,
        ksample=lambda rng: int(rng.integers(-(10**6), 10**6 + 1)),
    )


def _build_cyclic(n: int) -> GroupOracle:
    if n < 1:
        raise GroupSpecError(f"cyclic order must be >= 1, got {n}")
    enum = range(n) if n <= ENUM_CAP else None

    def dec(text: str) -> int:
        v = int(text)
        if not 0 <= v < n:
            raise GroupSpecError(f"residue {v} out of range mod {n}")
        return v

    return GroupOracle(
        domain=f"cyclic:{n}",
        kind="cyclic",
        kmul=lambda a, b: (a + b) % n,
        kinv=lambda a: (-a) % n,
        identity_key=0,
        abelian=True,
        order=n,
        enum_keys=enum,
        component_moduli=(n,),
        kencode=str,
        kdecode=dec,
        ksample=lambda rng: int(rng.integers(0, n)),
    )


def _build_abelian(moduli: tuple[int, ...]) -> GroupOracle:
    if not moduli or any(m < 1 for m in moduli):
        raise GroupSpecError(f"bad abelian moduli {moduli}")
    order = math.prod(moduli)
    # the key of (d_1, ..., d_r) is sum d_j * stride_j, the first component
    # most significant, so int order is the order of the residue vectors
    dims = tuple(
        (math.prod(moduli[j + 1 :]), m, math.prod(moduli[j:]))
        for j, m in enumerate(moduli)
    )  # (stride_j, M_j, M_j * stride_j)

    last, middle = moduli[-1], dims[1:-1]

    def kmul(a, b):
        # add, then take M_j * stride_j off for each digit j that wrapped;
        # once the lower digits are reduced, the first wraps iff c >= order
        c = a + b
        if a % last + b % last >= last:
            c -= last
        for s, m, span in middle:
            if a // s % m + b // s % m >= m:
                c -= span
        return c - order if c >= order else c

    def kinv(a):
        return sum(-(a // s) % m * s for s, m, _ in dims)

    def enc(a) -> str:
        return ",".join(str(a // s % m) for s, m, _ in dims)

    def dec(text: str) -> int:
        parts = [int(t) for t in text.split(",")]
        if len(parts) != len(moduli):
            raise GroupSpecError(f"expected {len(moduli)} components: {text!r}")
        for v, m in zip(parts, moduli):
            if not 0 <= v < m:
                raise GroupSpecError(f"component {v} out of range mod {m}")
        return sum(v * s for v, (s, _, _) in zip(parts, dims))

    return GroupOracle(
        domain="abelian:" + ",".join(str(m) for m in moduli),
        kind="abelian",
        kmul=kmul,
        kinv=kinv,
        identity_key=0,
        abelian=True,
        order=order,
        enum_keys=range(order) if order <= ENUM_CAP else None,
        component_moduli=moduli,
        kencode=enc,
        kdecode=dec,
        ksample=lambda rng: sum(int(rng.integers(0, m)) * s for s, m, _ in dims),
    )


def _perm_mul(a: tuple, b: tuple) -> tuple:
    # (a * b)(i) = a(b(i)): apply b first
    return tuple(a[v] for v in b)


def _perm_inv(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def _build_sym(n: int) -> GroupOracle:
    if not 1 <= n <= SYM_MAX:
        raise GroupSpecError(f"sym:n supports 1 <= n <= {SYM_MAX}, got {n}")
    enum = tuple(itertools.permutations(range(n)))
    return GroupOracle(
        domain=f"sym:{n}",
        kind="perm",
        kmul=_perm_mul,
        kinv=_perm_inv,
        identity_key=tuple(range(n)),
        abelian=n <= 2,
        order=math.factorial(n),
        enum_keys=enum,
        kencode=_vector_encode,
        kdecode=_perm_decode_factory(n),
    )


def _build_dihedral(n: int) -> GroupOracle:
    if not 3 <= n <= DIHEDRAL_MAX:
        raise GroupSpecError(
            f"dihedral:n supports 3 <= n <= {DIHEDRAL_MAX}, got {n}"
        )
    # (k, s) is the rotation i -> k + i (s = 0) or the reflection i -> k - i
    # (s = 1).  Its key is the rank of its image word among all 2n words in
    # sorted order: the two words starting with k rank 2k and 2k + 1, and the
    # rotation, whose second entry is k + 1 mod n against the reflection's
    # k - 1 mod n, comes first only for k = 0 and k = n - 1.
    flip = [0] + [1] * (n - 2) + [0]  # flip[k] = [1 <= k <= n - 2]
    sign = [(c & 1) ^ flip[c >> 1] for c in range(2 * n)]  # s of key c

    def kmul(a, b):
        # (j, s)(k, t) = (j + (-1)^s k, s xor t): apply (k, t) first
        s = sign[a]
        k = ((a >> 1) - (b >> 1) if s else (a >> 1) + (b >> 1)) % n
        return 2 * k + (s ^ sign[b] ^ flip[k])

    def kinv(a):
        if sign[a]:
            return a  # a reflection is an involution
        k = -(a >> 1) % n
        return 2 * k + flip[k]

    def word(a) -> tuple:
        # i -> k + i reads k, ..., n - 1, 0, ..., k - 1 and i -> k - i reads
        # k, ..., 0, n - 1, ..., k + 1
        k = a >> 1
        if sign[a]:
            return tuple(range(k, -1, -1)) + tuple(range(n - 1, k, -1))
        return tuple(range(k, n)) + tuple(range(k))

    # every text is a window of one of two precomputed words, "0,...,n-1"
    # or "n-1,...,0" written twice over: rotation k starts at entry k of
    # the first, reflection k at entry n - 1 - k of the second.  Encoding
    # is one slice, with no str() or join per entry.
    up = [str(i) for i in range(n)]
    width = len(",".join(up))
    words = (",".join(up * 2), ",".join(up[::-1] * 2))
    starts = list(itertools.accumulate((len(t) + 1 for t in up), initial=0))
    # the entries before n - 1 - k in the second word are n - 1, ..., k + 1
    at = [
        starts[n] - starts[(c >> 1) + 1] if sign[c] else starts[c >> 1]
        for c in range(2 * n)
    ]

    def enc(a) -> str:
        i = at[a]
        return words[sign[a]][i : i + width]

    rank = {t: i for i, t in enumerate(up)}

    def dec(text: str) -> int:
        # the first two entries fix the key: a canonical text is that key's
        # encoding, and any other text takes the full parse
        head = text.split(",", 2)
        k = rank.get(head[0])
        if k is not None and len(head) > 1:
            a = 2 * k + ((head[1] != up[(k + 1) % n]) ^ flip[k])
            if enc(a) == text:
                return a
        key = tuple(map(int, text.split(",")))
        if len(key) == n and 0 <= key[0] < n:
            k = key[0]
            s = int(key[1] != (k + 1) % n)
            a = 2 * k + (s ^ flip[k])
            if word(a) == key:
                return a
        raise GroupSpecError(f"not a symmetry of the {n}-gon: {text!r}")

    return GroupOracle(
        domain=f"dihedral:{n}",
        kind="perm",
        kmul=kmul,
        kinv=kinv,
        identity_key=0,
        abelian=False,
        order=2 * n,
        enum_keys=range(2 * n),
        kencode=enc,
        kdecode=dec,
        law=_dihedral_law(n, flip),
    )


def _build_heisenberg(p: int) -> GroupOracle:
    if not _is_prime(p):
        raise GroupSpecError(f"heisenberg:p needs a prime, got {p}")
    pp = p * p

    def kmul(x, y, p=p, pp=pp):
        # [[1, a, c], [0, 1, b], [0, 0, 1]] times its primed copy is
        # [[1, a + a', c + c' + a b'], [0, 1, b + b'], [0, 0, 1]], on the
        # keys a p^2 + c p + b, where x // p = a p + c and x = b mod p
        return (
            (x // pp + y // pp) % p * pp
            + (x // p + y // p + x // pp * (y % p)) % p * p
            + (x + y) % p
        )

    def kinv(x, p=p, pp=pp):
        # (a, c, b)^-1 = (-a, a b - c, -b)
        a, b = x // pp, x % p
        return (-a) % p * pp + (a * b - x // p) % p * p + (-b) % p

    def enc(x) -> str:
        return "1,%d,%d;0,1,%d;0,0,1" % (x // pp, x // p % p, x % p)

    parse = _matrix_decode_factory(3, p, unitriangular=True)
    entry = "(0|[1-9][0-9]*)"
    canonical = re.compile(f"1,{entry},{entry};0,1,{entry};0,0,1")

    def dec(text: str) -> int:
        # a canonical text, entries below p, is read by one match; any
        # other text takes the full parse, with the same key or error
        m = canonical.fullmatch(text)
        if m is not None:
            a, c, b = map(int, m.groups())
            if a < p and c < p and b < p:
                return a * pp + c * p + b
        m = parse(text)
        return m[1] * pp + m[2] * p + m[5]

    enum = range(p**3) if p**3 <= ENUM_CAP else None
    return GroupOracle(
        domain=f"heisenberg:{p}",
        kind="matrix",
        kmul=kmul,
        kinv=kinv,
        identity_key=0,
        abelian=False,
        order=p**3,
        enum_keys=enum,
        kencode=enc,
        kdecode=dec,
        # a, then c, then b
        ksample=lambda rng: (
            int(rng.integers(0, p)) * pp
            + int(rng.integers(0, p)) * p
            + int(rng.integers(0, p))
        ),
        law=None if enum is None else _heisenberg_law(p),
    )


def _build_matrix(d: int, m: int) -> GroupOracle:
    if d < 1 or m < 2:
        raise GroupSpecError(f"matrix:d:m needs d >= 1 and m >= 2, got {d},{m}")

    def sample(rng):
        for _ in range(1000):
            cand = tuple(int(rng.integers(0, m)) for _ in range(d * d))
            if math.gcd(_mat_det(cand, d) % m, m) == 1:
                return cand
        raise GroupAxiomError(f"could not sample invertible matrix mod {m}")

    ident = tuple(1 if i == j else 0 for i in range(d) for j in range(d))
    return GroupOracle(
        domain=f"matrix:{d}:{m}",
        kind="matrix",
        kmul=lambda a, b: _mat_mul(a, b, d, m),
        kinv=lambda a: _mat_inv(a, d, m),
        identity_key=ident,
        abelian=d == 1,
        order=None,
        kencode=_matrix_encode_factory(d),
        kdecode=_matrix_decode_factory(d, m, unitriangular=False),
        ksample=sample,
    )


# spec head -> (':' tokens its spec takes, builder from the later tokens' text)
_GROUP_SPECS = {
    "int": (1, _build_int),
    "cyclic": (2, lambda n: _build_cyclic(int(n))),
    "abelian": (2, lambda m: _build_abelian(tuple(int(t) for t in m.split(",") if t))),
    "sym": (2, lambda n: _build_sym(int(n))),
    "dihedral": (2, lambda n: _build_dihedral(int(n))),
    "heisenberg": (2, lambda p: _build_heisenberg(int(p))),
    "matrix": (3, lambda d, m: _build_matrix(int(d), int(m))),
}


def build_group(spec: str) -> GroupOracle:
    """Build an oracle from a group spec string such as ``cyclic:12``."""
    name, *args = spec.strip().split(":")
    if name not in _GROUP_SPECS or 1 + len(args) != group_spec_token_count(name):
        if name == "int":
            raise GroupSpecError(f"int takes no parameters: {spec!r}")
        raise GroupSpecError(f"unknown group spec {spec!r}")
    try:
        return _GROUP_SPECS[name][1](*args)
    except ValueError as exc:
        raise GroupSpecError(f"bad group spec {spec!r}: {exc}") from None


def group_spec_token_count(name: str) -> int:
    """How many ':'-separated tokens a group spec starting with *name* uses."""
    if name not in _GROUP_SPECS:
        raise GroupSpecError(f"unknown group spec head {name!r}")
    return _GROUP_SPECS[name][0]


# ---------------------------------------------------------------------------
# subgroup machinery


def closure_keys(
    oracle: GroupOracle,
    seeds: Iterable[Any],
    within: frozenset | None = None,
) -> frozenset | None:
    """Subgroup generated by *seeds* (finite ambient assumed), or None as
    soon as a product falls outside *within* when that is given."""
    seeds = [s for s in seeds]
    done = {oracle.identity_key}
    frontier = [oracle.identity_key]
    kmul = oracle.kmul
    while frontier:
        nxt = []
        for t in frontier:
            for s in seeds:
                p = kmul(t, s)
                if p not in done:
                    if within is not None and p not in within:
                        return None
                    done.add(p)
                    nxt.append(p)
        if len(done) > ENUM_CAP:
            raise PreconditionError(f"closure exceeded cap {ENUM_CAP}")
        frontier = nxt
    return frozenset(done)


def _greedy_generators(oracle: GroupOracle) -> tuple[tuple, bool]:
    """The greedy generators of a finite oracle, and whether their closure
    is exactly its enumeration, searched once and cached: a key joins them
    when the closure so far misses it, so every key lies in the last
    closure, ``closure_keys(oracle, gens)``, the enumeration iff as large.

    The search stops at the first product outside an enumeration of keys
    (a subgroup view's members): the enumeration is then not closed, and
    the generators found so far are cached with False.  A ``range`` is a
    builder's whole key space and is not checked."""
    if oracle._gens is None:
        pool = oracle.enum_keys
        if not pool:
            raise NotEnumerableError("no keys to generate from")
        members = None if isinstance(pool, range) else frozenset(pool)
        gens: list = []
        generated = {oracle.identity_key}
        for k in pool:
            if k not in generated:
                gens.append(k)
                generated = closure_keys(oracle, gens, within=members)
                if generated is None:
                    oracle._gens = (tuple(gens), False)
                    return oracle._gens
        oracle._gens = (tuple(gens), len(generated) == len(pool))
    return oracle._gens


def generating_keys(oracle: GroupOracle) -> tuple:
    """A small generating set of a finite oracle, found greedily in the
    order of its enumeration, once per oracle."""
    return _greedy_generators(oracle)[0]


def _generators_commute(oracle: GroupOracle) -> bool:
    """Abelian test for a finite oracle: do its greedy generators commute?"""
    kmul = oracle.kmul
    return all(
        kmul(a, b) == kmul(b, a)
        for a, b in itertools.combinations(generating_keys(oracle), 2)
    )


def subgroup_view(parent: GroupOracle, members: Iterable) -> GroupOracle:
    """Oracle for the subgroup *members* of *parent*, sharing domain and codec.

    The enumeration is restricted to *members*; multiplication is inherited,
    so `MultSet` values move freely between the view and the parent.
    NotASubgroupError unless the members hold the identity and every
    member's inverse, and are closed: the closure of the view's own greedy
    generators, the last closure their search builds, is exactly them.  The
    search stops at its first product outside the members, so a set that
    is not closed fails fast even inside an infinite or a large group.
    """
    keys = frozenset(m.key if isinstance(m, Element) else m for m in members)
    # the parent's product and codec, no box, sampler or law; abelian below
    view = replace(
        parent, order=len(keys), enum_keys=tuple(sorted(keys)),
        component_moduli=None, ksample=None, law=None,
    )
    if parent.identity_key not in keys:
        raise NotASubgroupError("identity missing")
    for k in view.enum_keys:
        if parent.kinv(k) not in keys:
            raise NotASubgroupError(f"inverse of {k!r} missing")
    if not _greedy_generators(view)[1]:
        raise NotASubgroupError("not closed under multiplication")
    view.abelian = _generators_commute(view)
    return view


def generated_subgroup(parent: GroupOracle, generators: Iterable) -> GroupOracle:
    """Closure of *generators* inside *parent*, as a subgroup view."""
    seeds = [g.key if isinstance(g, Element) else g for g in generators]
    return subgroup_view(parent, closure_keys(parent, seeds))


# ---------------------------------------------------------------------------
# product laws


@dataclass(frozen=True)
class LawTable:
    """Products of ``dihedral:n`` or ``heisenberg:p`` by a closed-form law on
    their int keys, which are their enumeration positions, with no cells
    stored.

    ``codes(a, b)`` evaluates the law on the operands' 1-D key arrays.
    It puts each row i in a group g_i on which the law is one lookup of a
    sum, and returns (r, g, c, t): the int32 code r_i of each row, its
    group g_i, and the int32 column codes c[g] and column shifts t[g] (or
    None) of each group.  The product of row i and column j has key
    lookup[r_i + c[g_i, j]] (+ t[g_i, j]), so ``outer`` is one
    outer add and one gather, made for every group at once.
    """

    order: int
    codes: Callable[[Any, Any], tuple]
    lookup: np.ndarray

    def outer(self, a, b) -> np.ndarray:
        """The |a| x |b| int32 matrix of the keys of the products a_i b_j."""
        r, g, c, shift = self.codes(
            np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        )
        cells = c[g]
        cells += r[:, None]
        out = self.lookup[cells]
        if shift is not None:
            # into the codes' buffer; g is in range, and "clip" mode writes
            # there directly, where the default mode gathers into a copy
            out += np.take(shift, g, axis=0, out=cells, mode="clip")
        return out


def _dihedral_law(n: int, flip: list) -> LawTable:
    """The composition rule of ``dihedral:n`` read on its keys.

    Key c is (k, s) = (c >> 1, (c & 1) xor flip[k]), and (j, s)(k, t) =
    (j + (-1)^s k mod n, s xor t) has key 2 K + (s xor t xor flip[K]) with
    K = j + (-1)^s k mod n, as in ``kmul``.  Rows are grouped by s.  Row
    code 2 (j + n) and column code 2 (-1)^s k + t sum to 2 (j + (-1)^s k
    + n) + t, in [0, 6n); lookup entry 6n s + that sum holds the key.
    """
    flips = np.array(flip, dtype=np.int64)
    code = np.arange(6 * n)
    k = (code // 2 - n) % n
    lookup = np.concatenate(
        [2 * k + ((code & 1) ^ s ^ flips[k]) for s in (0, 1)]
    ).astype(np.int32)
    # each key's row code, s, and column codes for s = 0 and s = 1
    keys = np.arange(2 * n)
    kk, ss = keys >> 1, (keys & 1) ^ flips[keys >> 1]
    rows = (2 * (kk + n)).astype(np.int32)
    cols = np.stack([2 * kk + ss, 6 * n - 2 * kk + ss]).astype(np.int32)

    return LawTable(
        order=2 * n,
        codes=lambda a, b: (rows[a], ss[a], cols[:, b], None),
        lookup=lookup,
    )


def _heisenberg_law(p: int) -> LawTable:
    """The unitriangular matrix product of ``heisenberg:p`` read on its keys.

    The key of the matrix with entries (a, c, b) is a p^2 + c p + b.  As in
    ``kmul``, (a, c, b)
    times (a', c', b') is (a + a', c + c' + a b', b + b') mod p.  Rows are
    grouped by a: for a fixed a the block is the sum in Z_p^3 of the rows
    (a, c, b) and the columns (a', c' + a b' mod p, b'), a box sumset.
    With W = 2p - 1, row code c W + b and column code
    (c' + a b' mod p) W + b' sum to a code below W^2 whose lookup holds
    (c + c' + a b' mod p) p + (b + b' mod p); the column shift adds
    (a + a' mod p) p^2.
    """
    pp, w = p * p, 2 * p - 1
    code = np.arange(w * w)

    def digits(values):
        a, rest = np.divmod(values, pp)
        return (a, *np.divmod(rest, p))

    def codes(a, b):
        ar, cr, br = digits(a)
        if len(a) >= p:  # the column codes of all p groups cost no more than the rows
            xs, g = np.arange(p), ar
        else:
            xs, g = np.unique(ar, return_inverse=True)
        xs = xs[:, None]
        ac, cc, bc = digits(b)
        c = ((cc + xs * bc) % p * w + bc).astype(np.int32)
        shift = ((ac + xs) % p * pp).astype(np.int32)
        return (cr * w + br).astype(np.int32), g, c, shift

    return LawTable(
        order=p**3,
        codes=codes,
        lookup=(code // w % p * p + code % w % p).astype(np.int32),
    )


def key_digest(oracle: GroupOracle, keys: Iterable[Any]) -> str:
    """The sha256 hex digest of the domain line and the encoding of each
    sorted key, joined by newlines."""
    lines = [oracle.domain, *(oracle.kencode(k) for k in sorted(keys))]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _left_cosets(oracle: GroupOracle, h_keys: frozenset) -> list[list]:
    """The left cosets a H of a finite oracle, each sorted, ordered by their
    least elements."""
    kmul = oracle.kmul
    seen: set = set()
    cosets = []
    for a in oracle.enum_keys:
        if a in seen:
            continue
        coset = sorted(kmul(a, h) for h in h_keys)
        if len(set(coset)) != len(h_keys):
            raise NotASubgroupError("coset size mismatch; H is not a subgroup")
        seen.update(coset)
        cosets.append(coset)
    cosets.sort()
    return cosets


def _escaping_conjugates(oracle: GroupOracle, gens: list, h_keys) -> dict:
    """Each conjugate g h g^-1 (g in *gens*) outside *h_keys*, mapped to its h."""
    kmul = oracle.kmul
    out: dict = {}
    for g in gens:
        ginv = oracle.kinv(g)
        for h in h_keys:
            c = kmul(kmul(g, h), ginv)
            if c not in h_keys and c not in out:
                out[c] = h
    return out


def _quotient_build(parent: GroupOracle, h_keys: frozenset) -> tuple[GroupOracle, dict]:
    """Left-coset quotient of a finite oracle by the subgroup *h_keys*, and
    its key map: each key of the parent to its coset representative."""
    kmul = parent.kmul
    rep_of: dict = {}
    reps = []
    for coset in _left_cosets(parent, h_keys):
        reps.append(coset[0])
        for c in coset:
            rep_of[c] = coset[0]

    qdomain = f"{parent.domain}/{key_digest(parent, h_keys)[:8]}"

    def qmul(a, b):
        return rep_of[kmul(a, b)]

    def qinv(a):
        return rep_of[parent.kinv(a)]

    dec_parent = parent.kdecode

    def qdec(text: str):
        if dec_parent is None:
            raise GroupSpecError("no decoder on parent")
        k = dec_parent(text)
        if rep_of.get(k) != k:
            raise GroupSpecError(f"{text!r} is not a canonical coset representative")
        return k

    quotient = GroupOracle(
        domain=qdomain,
        kind="quotient",
        kmul=qmul,
        kinv=qinv,
        identity_key=rep_of[parent.identity_key],
        abelian=False,  # set below from the quotient's own generators
        order=len(reps),
        enum_keys=tuple(reps),
        kencode=parent.kencode,
        kdecode=qdec,
    )
    quotient.abelian = _generators_commute(quotient)
    return quotient, rep_of


def quotient_projection(
    parent: GroupOracle, subgroup: Iterable
) -> tuple[GroupOracle, dict]:
    """Quotient of a finite group by a verified normal subgroup.

    Exhaustive on the parent's generators g at |gens| |G| cost: g H g^-1 is
    inside H, so equal to it (G is finite), so H is normal; every left coset
    has |H| elements; so the returned ``key_map``, each key of G to its
    coset representative, is the canonical map G -> G/H.  Then
    ``key_map[g x] == q.kmul(key_map[g], key_map[x])`` for every g and x
    reads every entry (x -> g x is onto), and each fiber of ``key_map``
    must hold exactly |H| elements: together they catch one entry moved
    into a wrong coset on every order.
    """
    h_keys = frozenset(m.key if isinstance(m, Element) else m for m in subgroup)
    if parent.enum_keys is None:
        raise NotEnumerableError("quotient needs a finite parent enumeration")
    if not h_keys <= set(parent.enum_keys):
        raise NotASubgroupError("subgroup not contained in parent enumeration")
    subgroup_view(parent, h_keys)  # NotASubgroupError unless H is a subgroup
    gens = generating_keys(parent)
    escaped = _escaping_conjugates(parent, gens, h_keys)
    if escaped:
        h = next(iter(escaped.values()))
        raise NotNormalError(f"subgroup not normal: conjugate of {h!r} escapes")
    quotient, key_map = _quotient_build(parent, h_keys)
    kmul, qmul = parent.kmul, quotient.kmul
    for g in gens:
        g_rep = key_map[g]
        for x in parent.enum_keys:
            if key_map[kmul(g, x)] != qmul(g_rep, key_map[x]):
                raise GroupAxiomError("projection is not a homomorphism")
    if any(c != len(h_keys) for c in Counter(key_map.values()).values()):
        raise GroupAxiomError("projection is not a homomorphism")
    return quotient, key_map


# ---------------------------------------------------------------------------
# element orders and abelian structure


def key_power(oracle: GroupOracle, k, e: int):
    if e < 0:
        return key_power(oracle, oracle.kinv(k), -e)
    acc = oracle.identity_key
    base = k
    while e:
        if e & 1:
            acc = oracle.kmul(acc, base)
        base = oracle.kmul(base, base)
        e >>= 1
    return acc


def element_order(oracle: GroupOracle, k) -> int:
    if oracle.component_moduli is not None:
        # the lcm of the digit orders of the mixed-radix key, read from the
        # least significant digit up (a cyclic:N key is its own digit)
        n = stride = 1
        for m in reversed(oracle.component_moduli):
            n = math.lcm(n, m // math.gcd(m, k // stride % m))
            stride *= m
        return n
    if oracle.order is None:
        raise NotEnumerableError("element order undefined for infinite oracle")
    acc = k
    n = 1
    while acc != oracle.identity_key:
        acc = oracle.kmul(acc, k)
        n += 1
        if n > oracle.order:
            raise GroupAxiomError("element order exceeds group order")
    return n


def abelian_basis(oracle: GroupOracle) -> list[tuple[Any, int]]:
    """Basis of a finite abelian oracle: keys with orders, orders descending.

    Classic structure-theorem recursion: peel off a maximal-order element,
    quotient by it, lift a basis of the quotient with order-preserving
    corrections.
    """
    if not oracle.abelian:
        raise PreconditionError(f"{oracle.domain!r} is not abelian")
    if oracle.order is None or oracle.enum_keys is None:
        raise NotEnumerableError("abelian basis needs a finite enumeration")
    if oracle.order > COORDS_ORDER_CAP:
        raise PreconditionError(
            f"order {oracle.order} above structure cap {COORDS_ORDER_CAP}"
        )
    if oracle.order == 1:
        return []

    best_key, best_ord = None, 0
    for k in oracle.enum_keys:
        o = element_order(oracle, k)
        if o > best_ord:
            best_key, best_ord = k, o
    g, m = best_key, best_ord

    powers = [oracle.identity_key]
    while len(powers) < m:
        powers.append(oracle.kmul(powers[-1], g))
    dlog = {k: i for i, k in enumerate(powers)}
    if len(dlog) != m:
        raise GroupAxiomError("repeated powers below the element order")

    if m == oracle.order:
        return [(g, m)]

    quotient, key_map = _quotient_build(oracle, frozenset(powers))
    basis = [(g, m)]
    for qk, t in abelian_basis(quotient):
        # qk is its own coset representative, hence a parent key
        ht = key_power(oracle, qk, t)
        u = dlog[ht]
        if u % t != 0:
            raise GroupAxiomError("lift correction failed; group not abelian?")
        h = oracle.kmul(qk, key_power(oracle, g, (m - u // t) % m))
        if element_order(oracle, h) != t or key_map[h] != qk:
            raise GroupAxiomError("basis lift lost its order")
        basis.append((h, t))
    total = math.prod(o for _, o in basis)
    if total != oracle.order:
        raise GroupAxiomError("basis orders do not multiply to the group order")
    return basis


def abelian_coords(oracle: GroupOracle):
    """Invariant-factor coordinates ``(moduli, lookup)`` for a finite abelian oracle.

    ``moduli`` is descending (largest first, so ``moduli[0]`` is the group
    exponent); ``lookup(key)`` returns the coordinate vector.  Cached on the
    oracle.  Cyclic groups short-circuit without building tables.
    """
    if oracle._coords is not None:
        return oracle._coords
    if oracle.kind == "cyclic":
        n = oracle.order
        moduli = (n,) if n > 1 else ()
        res = (moduli, (lambda k: (k,) if n > 1 else ()))
        oracle._coords = res
        return res
    basis = abelian_basis(oracle)
    moduli = tuple(o for _, o in basis)
    table: dict = {}
    if not basis:
        table[oracle.identity_key] = ()
    else:
        pow_tables = []
        for k, o in basis:
            row = [oracle.identity_key]
            while len(row) < o:
                row.append(oracle.kmul(row[-1], k))
            pow_tables.append(row)
        for combo in itertools.product(*(range(o) for o in moduli)):
            acc = oracle.identity_key
            for row, e in zip(pow_tables, combo):
                acc = oracle.kmul(acc, row[e])
            table[acc] = combo
    if len(table) != oracle.order:
        raise GroupAxiomError("abelian coordinates are not bijective")
    # descending divisibility means ascending once reversed
    asc = tuple(reversed(moduli))
    for a, b in zip(asc, asc[1:]):
        if b % a != 0:
            raise GroupAxiomError(f"invariant factor chain broken: {asc}")
    res = (moduli, table.__getitem__)
    oracle._coords = res
    return res


# ---------------------------------------------------------------------------
# subnormal series


@dataclass
class SubnormalSeries:
    """Chain G = L0 > L1 > ... > {1} of subgroup views with abelian factors.

    ``exponent`` is the n of the size bound alpha |C| / 2^n: one less than
    the number of steps L_i > L_{i+1}.  No quotient is built here;
    ``solvable_extract`` builds the one it reads.
    """

    levels: tuple[GroupOracle, ...]

    @property
    def exponent(self) -> int:
        return len(self.levels) - 2

    def validate(self) -> None:
        """Check every step L > N of the chain on the generators of L.

        N is normal in L: g N g^-1 lies in N for each generator g, so
        equals it (N is finite), and so for every product of generators,
        which is every element of L.  L/N is abelian: a^-1 b^-1 a b lies
        in N for any two generators a, b.  That suffices, since the normal
        closure K of these commutators is the derived subgroup L': K lies
        in L', and the generators' images commute in L/K, so L/K is
        abelian and L' lies in K.  N is normal and holds the commutators,
        so it holds K = L', which is exactly when L/N is abelian.
        """
        if self.levels[-1].order != 1:
            raise PreconditionError("series must end at the trivial subgroup")
        for i, (lvl, nxt) in enumerate(zip(self.levels, self.levels[1:])):
            n_keys = frozenset(nxt.enum_keys)
            if not n_keys < set(lvl.enum_keys):
                raise PreconditionError("chain must strictly decrease")
            gens = generating_keys(lvl)
            escaped = _escaping_conjugates(lvl, gens, n_keys)
            if escaped:
                h = next(iter(escaped.values()))
                raise NotNormalError(
                    f"level {i + 1} is not normal in level {i}: "
                    f"a conjugate of {h!r} escapes"
                )
            kmul, kinv = lvl.kmul, lvl.kinv
            for a, b in itertools.combinations(gens, 2):
                if kmul(kmul(kinv(a), kinv(b)), kmul(a, b)) not in n_keys:
                    raise PreconditionError(
                        f"level {i} over level {i + 1} is not abelian"
                    )


def derived_subgroup_keys(oracle: GroupOracle) -> frozenset:
    """Commutator subgroup of a finite oracle (with enumeration)."""
    gens = generating_keys(oracle)  # NotEnumerableError without one
    kmul, kinv = oracle.kmul, oracle.kinv
    seeds = set()
    for a in gens:
        for b in gens:
            seeds.add(kmul(kmul(kinv(a), kinv(b)), kmul(a, b)))
    seeds.discard(oracle.identity_key)
    if not seeds:
        return frozenset({oracle.identity_key})
    while True:
        n_keys = closure_keys(oracle, sorted(seeds))
        extra = _escaping_conjugates(oracle, gens, n_keys)
        if not extra:
            return n_keys
        seeds = n_keys.union(extra)


def derived_subnormal_series(oracle: GroupOracle) -> SubnormalSeries:
    """Derived series of a finite solvable group, checked by ``validate``."""
    if oracle.order is None or oracle.enum_keys is None:
        raise NotEnumerableError("series needs a finite enumeration")
    if oracle.order > SERIES_ORDER_CAP:
        raise PreconditionError(
            f"order {oracle.order} above series cap {SERIES_ORDER_CAP}"
        )
    current = subgroup_view(oracle, oracle.enum_keys)
    levels = [current]
    while current.order > 1:
        d_keys = derived_subgroup_keys(current)
        if len(d_keys) == current.order:
            raise NotSolvableError(
                f"derived series of {oracle.domain!r} stabilised at order {current.order}"
            )
        current = subgroup_view(oracle, d_keys)
        levels.append(current)
    series = SubnormalSeries(tuple(levels))
    series.validate()
    return series


def subnormal_series_from_chain(
    oracle: GroupOracle, chain: list[Iterable]
) -> SubnormalSeries:
    """Build a series from an explicit subgroup chain (verified throughout)."""
    key_chain = [
        frozenset(m.key if isinstance(m, Element) else m for m in part)
        for part in chain
    ]
    if not key_chain or key_chain[0] != set(oracle.enum_keys or ()):
        raise PreconditionError("chain must start at the whole group")
    series = SubnormalSeries(tuple(subgroup_view(oracle, ks) for ks in key_chain))
    series.validate()
    return series


def cyclic_subgroups(oracle: GroupOracle) -> list[tuple[Element, ...]]:
    """All subgroups of a cyclic group, ordered by size."""
    if oracle.kind != "cyclic":
        raise PreconditionError(f"{oracle.domain!r} is not a built cyclic group")
    n = oracle.order
    subs = []
    for d in sorted(_divisors(n)):
        step = n // d
        subs.append(tuple(oracle.wrap(v) for v in range(0, n, step)))
    return subs


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# axiom verification


def verify_group_axioms(oracle: GroupOracle) -> int:
    """Check associativity, identity, inverses and the abelian flag.

    Returns the number of associativity checks made.  An enumeration S with
    |gens| |S|^2 <= LIGHT_TEST_CAP is proven a group by Light's test
    (Clifford-Preston, *Algebraic Theory of Semigroups* I, 1.2): S is the
    closure of its generators, g S = S and (x g) y == x (g y) for each
    generator g and all x, y, so by induction on word length every g in S
    passes, and S is associative and closed; then commuting generators make
    it abelian, so the flag is checked both ways.  The generators and their
    closure are the oracle's one greedy search (:func:`generating_keys`),
    with no second closure walk.  Other groups are sampled on 10^4 seeded
    triples.

    An oracle with a ``law`` (``dihedral:n`` and an enumerated
    ``heisenberg:p``) has it compared with ``kmul``: on every pair when
    n^2 <= LIGHT_TEST_CAP, else on the sampled pairs.
    """
    kmul, kinv, e = oracle.kmul, oracle.kinv, oracle.identity_key

    def check_element(a):
        if kmul(a, e) != a or kmul(e, a) != a:
            raise GroupAxiomError(f"identity fails on {a!r}")
        if kmul(a, kinv(a)) != e or kmul(kinv(a), a) != e:
            raise GroupAxiomError(f"inverse fails on {a!r}")

    ks = oracle.enum_keys or ()
    n = len(ks)
    if 0 < n * n <= LIGHT_TEST_CAP and (
        len(gens := generating_keys(oracle)) * n * n <= LIGHT_TEST_CAP
    ):
        keyset = frozenset(ks)
        for a in ks:
            check_element(a)
        if not _greedy_generators(oracle)[1]:
            raise GroupAxiomError("generators do not generate the enumeration")
        for g in gens:
            g_row = [kmul(g, y) for y in ks]
            if set(g_row) != keyset:
                raise GroupAxiomError(f"left multiplication by {g!r} is not a bijection")
            for x in ks:
                xg = kmul(x, g)
                for y, gy in zip(ks, g_row):
                    if kmul(xg, y) != kmul(x, gy):
                        raise GroupAxiomError(f"associativity fails on {(x, g, y)!r}")
        tested = len(gens) * n * n
        if _generators_commute(oracle) != oracle.abelian:
            raise GroupAxiomError(f"abelian flag {oracle.abelian} is wrong")
    else:
        rng = np.random.Generator(np.random.Philox(key=0))
        if n:
            draw = lambda: ks[int(rng.integers(0, n))]
        elif oracle.ksample is not None:
            draw = lambda: oracle.ksample(rng)
        else:
            raise NotEnumerableError(
                f"{oracle.domain!r} has neither enumeration nor sampler"
            )
        tested = 10**4
        drawn = []
        for _ in range(tested):
            a, b, c = draw(), draw(), draw()
            if kmul(kmul(a, b), c) != kmul(a, kmul(b, c)):
                raise GroupAxiomError(f"associativity fails on {(a, b, c)!r}")
            check_element(a)
            if oracle.abelian and kmul(a, b) != kmul(b, a):
                raise GroupAxiomError(f"abelian flag wrong on {(a, b)!r}")
            drawn.append((a, b))
    if oracle.law is not None:
        if 0 < n * n <= LIGHT_TEST_CAP:
            _check_law(oracle, ks, ks)
        else:
            for lo in range(0, len(drawn), 100):
                _check_law(oracle, *zip(*drawn[lo : lo + 100]), pairs=True)
    return tested


def _check_law(oracle: GroupOracle, xs, ys, pairs: bool = False) -> None:
    """GroupAxiomError unless the oracle's law gives ``kmul``'s product x y
    for every x in *xs* and y in *ys*, or, with *pairs*, for each
    (xs[i], ys[i]): the diagonal of their outer product."""
    cells = oracle.law.outer(xs, ys)
    if pairs:
        got, want = [cells.diagonal()], [list(map(oracle.kmul, xs, ys))]
    else:
        got, want = cells, ([oracle.kmul(x, y) for y in ys] for x in xs)
    if any(row.tolist() != products for row, products in zip(got, want)):
        raise GroupAxiomError(f"the law of {oracle.domain!r} disagrees with kmul")
