"""Finite subsets of a group and the basic product-set calculus.

A :class:`MultSet` is an immutable finite subset of one ambient oracle.
Internally it stores sorted raw payload keys; elements materialise on
demand.

Products take one of three paths, chosen in one place, :func:`_operands`,
by the group alone:

* ``int`` and the finite box groups -- full ``cyclic:N`` and
  ``abelian:M1,...,Mr`` oracles, whose keys are mixed-radix ints of the box
  Z_M1 x ... x Z_Mr -- go through one exact counting kernel,
  :func:`_pair_counts`: for sorted keys A and B it returns every product
  a + b (digit-wise mod M_j in a box) with the number of pairs giving it,
  counted densely over the group's cells or by sorting the pairs, as
  :func:`_plan` rules.  A triple product (A B) C convolves the three
  operands on one grid where :func:`_triple_grid` admits it.
* ``dihedral:n`` and an enumerated ``heisenberg:p`` read their products
  from the oracle's product law (:class:`groups.LawTable`, the ``law``
  field), through one ``law.outer(a, b)`` on keys: their ``kmul``
  formula read on int key arrays, one outer add and one lookup per row
  group at about 6-8 ns a pair, at any order, so even
  ``heisenberg-ball:11:1`` (27 points in an order-1331 group) and every
  product in ``heisenberg:17`` (order 4913) are free of ``kmul``.  The
  same kernel counts them, by the same rule.
* Everything else -- ``sym:n``, subgroup views, quotients, ``matrix:d:m``,
  ``heisenberg:p`` above p = 97, ``int`` keys from 2^60 on -- runs
  through the oracle's ``kmul``.

Counting callers read :func:`_product_counts`, whose answer on every path
is the sorted distinct products and an int64 array of their pair counts:
triple localization (``pipeline._bucket_best``) counts its (g, h) buckets
from it in every abelian group, one difference class h g^-1 at a time, and
the pigeonhole (``pipeline._pigeonhole_shift``) its shift buckets.  A
repeated operand -- X X, the halving's A A A, localization's Z^-1 Z Z^-1
-- is one key array, which the FFT transforms once (:func:`_grid_counts`).
The covering translates t X and X t of ``approx_report`` are bitmasks over
X^2's keys.  In ``int``, when X + X fills the box of X's fold (intervals,
progressions, full boxes of a GAP), each is one shift of a single bitset
(:func:`_shift_masks`).  Elsewhere, where X X takes a kernel, they are
built from its outer products (:func:`_outer_sums`: the sums the exact path
counts, or the law's outer product), each placed among X^2's keys by one
gather from a position array over their range when that range is small,
else by a binary search; otherwise from |X|^2 ``kmul`` calls.  The report's
X^3 is only counted, never built into keys (:func:`_distinct_products`).
Budgets bound the |A||B| pairs of a product on the sums kernel, at every
size, and the |X|^2 pairs of the freeness and incident-pair counts; a
product on the law or ``kmul`` path is bounded by its number of distinct
products instead.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainMismatchError,
    PreconditionError,
)
from .groups import Element, GroupOracle, LawTable

DEFAULT_PRODUCT_BUDGET = 10**7
FOLD_MIN_LENGTH = 8192  # fold int operands onto two axes from this FFT length
FOLD_GAIN = 4  # ... when that shrinks the grid at least this many times
EXACT_COVER_UNIVERSE = 4096
MASK_CHUNK_CELLS = 1 << 22
TABLE_BLOCK_BYTES = 1 << 23  # most bytes of one law.outer block in _pair_counts, 8 a cell


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class MultSet:
    """Immutable subset of a group, canonically ordered.

    The sorted keys are the set; the frozenset of them is built on the first
    membership test (``in``, :meth:`key_set`, :meth:`restrict`, :meth:`union`,
    ...), so a product that is only counted or read in order never hashes
    its keys."""

    __slots__ = ("oracle", "keys", "_keyset")

    def __init__(self, oracle: GroupOracle, keys: Iterable[Any]):
        self.oracle = oracle
        self.keys = tuple(sorted(set(keys)))
        self._keyset = None

    @classmethod
    def _from_sorted(cls, oracle: GroupOracle, keys: list) -> "MultSet":
        """The set of ``keys``, which must already be sorted and distinct:
        no hashing into a set and no sort."""
        x = cls.__new__(cls)
        x.oracle = oracle
        x.keys = tuple(keys)
        x._keyset = None
        return x

    @classmethod
    def from_elements(cls, oracle: GroupOracle, elements: Iterable[Element]) -> "MultSet":
        keys = []
        for e in elements:
            if e.domain != oracle.domain:
                raise DomainMismatchError(
                    f"element from {e.domain!r} in a {oracle.domain!r} set"
                )
            keys.append(e.key)
        return cls(oracle, keys)

    # -- container protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Element]:
        d = self.oracle.domain
        return (Element(d, k) for k in self.keys)

    def __contains__(self, item) -> bool:
        if isinstance(item, Element):
            return item.domain == self.oracle.domain and item.key in self.key_set()
        return item in self.key_set()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultSet)
            and self.oracle.domain == other.oracle.domain
            and self.keys == other.keys
        )

    def __hash__(self) -> int:
        return hash((self.oracle.domain, self.keys))

    def __repr__(self) -> str:
        shown = ", ".join(self.oracle.kencode(k) for k in self.keys[:6])
        more = ", ..." if len(self.keys) > 6 else ""
        return f"MultSet({self.oracle.domain!r}, {{{shown}{more}}})"

    # -- conveniences ----------------------------------------------------
    def key_set(self) -> frozenset:
        """The keys as a frozenset, built on the first call."""
        if self._keyset is None:
            self._keyset = frozenset(self.keys)
        return self._keyset

    def encoded(self) -> list[str]:
        return [self.oracle.kencode(k) for k in self.keys]

    def restrict(self, keys: Iterable[Any]) -> "MultSet":
        member = self.key_set()
        return MultSet(self.oracle, (k for k in keys if k in member))

    def union(self, other: "MultSet") -> "MultSet":
        _require_same(self, other)
        return MultSet(self.oracle, self.key_set() | other.key_set())

    def intersect_keys(self, keys) -> "MultSet":
        return MultSet(self.oracle, self.key_set() & set(keys))

    def minus_keys(self, keys) -> "MultSet":
        return MultSet(self.oracle, self.key_set() - set(keys))


def _require_same(x: MultSet, y: MultSet) -> None:
    if x.oracle.domain != y.oracle.domain:
        raise DomainMismatchError(
            f"mismatched domains {x.oracle.domain!r} and {y.oracle.domain!r}"
        )


class _Operands(NamedTuple):
    """Arguments of :func:`_pair_counts` and :func:`_outer_sums`: sorted
    int64 keys, with a box's moduli or a product law."""

    a: Any
    b: Any
    moduli: tuple[int, ...] | None = None
    table: LawTable | None = None


def _values(keys):
    """The kernel values of group keys: the keys as an int64 array."""
    return np.fromiter(keys, dtype=np.int64, count=len(keys))


class _Grid(NamedTuple):
    """Where the FFT branch of :func:`_pair_counts` and
    :func:`triple_product` convolves: an array of ``shape``, the flat cells
    of each operand in it, and the product each cell h of the result stands
    for, base + h where ``width`` is 0, else base + (h // width) ``stride``
    + h % width."""

    shape: tuple[int, ...]
    cells: tuple
    base: int = 0
    width: int = 0
    stride: int = 0


def _sorted_distinct(values):
    """The sorted distinct entries of a 1-D array: ``np.unique(values)``
    by one sort and a neighbour mask, without the import of ``numpy.ma``
    (several ms in a fresh process) that a plain ``np.unique`` makes on its
    first call."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _fold_modulus(keys) -> int | None:
    """The row stride of sorted int keys, or None for a single key.

    A run ends at a gap larger than half the largest gap; the stride is
    the most common distance between the starts of consecutive runs
    (the smallest on ties), which the partial first and last rows of a
    block of a progression leave alone."""
    gaps = np.diff(keys)
    starts = keys[np.flatnonzero(2 * gaps > gaps.max(initial=0)) + 1]
    if not len(starts):
        return None
    distances, seen = np.unique(np.diff(starts, prepend=keys[0]), return_counts=True)
    return int(distances[np.argmax(seen)])


def _fold_axes(keys, m: int):
    """Sorted int keys as c + q m + r with q >= 0 counted from 0 and r in
    [0, m): (c, q, r).  c is the residue mod m just after the largest
    cyclic gap between the keys' residues, so keys whose residues fill a
    narrow band get small r."""
    residues = _sorted_distinct(keys % m)
    cyclic = np.diff(residues, append=residues[0] + m)
    c = int(residues[(np.argmax(cyclic) + 1) % len(residues)])
    q, r = np.divmod(keys - c, m)
    return c + int(q[0]) * m, q - q[0], r


def _shared(f, items) -> list:
    """``[f(item) for item in items]``, with f called once per distinct
    object: repeats of one object get the very same result."""
    done: dict = {}
    return [done[id(i)] if id(i) in done else done.setdefault(id(i), f(i)) for i in items]


def _int_grid(keys, n: int) -> _Grid:
    """The FFT grid of an ``int`` product A B (or (A B) C, one operand per
    key array) that :func:`_plan` counts on n cells.

    The plain grid is the key range of A + B (+ C), rounded up to a power
    of two n, on one axis.  A sparse operand tuple -- n at least
    FOLD_MIN_LENGTH -- is folded onto two axes instead when that shrinks
    the grid at least FOLD_GAIN times.  With m the row stride of the
    largest operand (:func:`_fold_modulus`), each key of A is written
    c_A + q m + r with 0 <= r < R_A (:func:`_fold_axes`), and B (and C)
    likewise with its own c.  A pair then lands in cell (q_a + q_b, r_a +
    r_b) of a Q x R array, R = R_A + R_B - 1 (a triple in (q_a + q_b + q_c,
    r_a + r_b + r_c), R = R_A + R_B + R_C - 2), whose two axes are
    zero-padded to powers of two so that the convolution does not wrap.  The fold is taken only when R <= m: then
    (i, j) -> c_A + c_B (+ c_C) + i m + j is injective on the cells and
    increasing in row-major order, so each cell counts exactly the tuples
    of one sum and the nonzero cells, read in order, are the sorted
    distinct sums.  The choice of m decides only the grid's size, never
    the counts.  The largest operand is folded first: its own spans bound
    the grid below, so a fold they already reject never folds the others.
    Repeats of one key array share one fold and one cell array, which
    :func:`_grid_counts` then transforms once.

    Both FFT paths cost about the same per cell, but the two-axis one has a
    fixed cost of about 0.2 ms (the stride, the two folds, three rfftn
    passes), so it pays from grids a quarter of n on, once n is 8192 cells
    (timed on int GAP blocks, one CPU: at n = 8192 a grid of n/4 ran 1.3x
    faster and one of n/2 1.0-1.3x slower; at n = 4096 and n/8 the fold
    was still 1.2x slower).
    """
    # a fold puts each of the at least |A| + |B| (+ |C|) - k + 1 distinct
    # sums of k operands in a cell of its own, so no grid of n / FOLD_GAIN
    # cells fits them below this
    if n >= FOLD_MIN_LENGTH and n >= FOLD_GAIN * (sum(map(len, keys)) - len(keys) + 1):
        largest = max(range(len(keys)), key=lambda i: len(keys[i]))
        m = _fold_modulus(keys[largest])
        if m is not None:
            fold = _fold_axes(keys[largest], m)
            # the other operands' q and r are >= 0, so they only widen the
            # grid: the largest operand's spans alone can reject the fold
            q_span, r_span = int(fold[1][-1]) + 1, int(fold[2].max()) + 1
            least = (1 << (q_span - 1).bit_length()) * (1 << (r_span - 1).bit_length())
            if r_span <= m and FOLD_GAIN * least <= n:
                folds = _shared(
                    lambda k: fold if k is keys[largest] else _fold_axes(k, m), keys
                )
                rows = sum(int(q[-1]) for _, q, _ in folds) + 1
                cols = sum(int(r.max()) for _, _, r in folds) + 1
                width = 1 << (cols - 1).bit_length()
                shape = (1 << (rows - 1).bit_length(), width)
                if cols <= m and FOLD_GAIN * math.prod(shape) <= n:
                    cells = tuple(_shared(lambda f: f[1] * width + f[2], folds))
                    return _Grid(shape, cells, sum(c for c, _, _ in folds), width, m)
    return _Grid((n,), tuple(_shared(lambda k: k - k[0], keys)), sum(int(k[0]) for k in keys))


def _grid_counts(grid: _Grid):
    """The FFT branch of :func:`_pair_counts` and :func:`triple_product`:
    the sorted distinct products of the grid's operands and the number of
    operand tuples giving each, or None when the rounding guard rejects
    the transform.

    The counts are the convolution of the operands' indicator arrays,
    cyclic along each axis (zero-padded past the operands in ``int``, so
    there nothing wraps): one real FFT per distinct operand, the product of
    one spectrum per operand, in operand order, and one inverse.  An
    operand that comes again is the very same cell array (:func:`_operands`
    and :func:`_triple_grid` hand the same key array to a repeated set, and
    :func:`_int_grid` keeps it shared), so A A A takes one forward
    transform, X X one and Z^-1 Z Z^-1 two.  Equal inputs give bitwise-equal
    spectra, so the product, the counts and the guard are those of one
    transform per operand.  Its absolute error is about
    u log2(n) sqrt(|A||B|), or u log2(n) sqrt(|A||B||C|) for three operands,
    with u = 2^-53: the norm of each indicator array is the square root of
    its size.  That is below 1e-6 for any grid that fits in memory, so
    rounding gives the exact count; the guard checks that every entry lies
    within 1/4 of an integer."""
    shape = grid.shape
    n = math.prod(shape)
    axes = tuple(range(len(shape)))
    product = None
    kept: dict = {}  # the spectra of operands that come again, by id
    for i, cells in enumerate(grid.cells):
        spectrum = kept.get(id(cells))
        if spectrum is None:
            indicator = np.zeros(n)
            indicator[cells] = 1.0
            if len(shape) == 1:
                # the same transform without rfftn's per-call set-up, which
                # shows on passes of many small int sumsets
                spectrum = np.fft.rfft(indicator)
            else:
                spectrum = np.fft.rfftn(indicator.reshape(shape), axes=axes)
            if any(c is cells for c in grid.cells[i + 1 :]):
                kept[id(cells)] = spectrum
        if product is None:
            product = spectrum
        elif product is kept.get(id(grid.cells[0])):
            product = product * spectrum  # the kept spectrum stays as it is
        else:
            product *= spectrum
    if len(shape) == 1:
        f = np.fft.irfft(product, n)
    else:
        f = np.fft.irfftn(product, shape, axes=axes).ravel()
    counts = np.rint(f)
    f -= counts  # the rounding error, in place: no second array of n cells
    if not np.abs(f, out=f).max() < 0.25:
        return None
    hit = np.flatnonzero(counts)
    if grid.width:
        row, col = np.divmod(hit, grid.width)
        values = row * grid.stride + col + grid.base
    else:
        values = hit + grid.base
    return values, counts[hit].astype(np.int64)


def _shift_counts(a, b, n: int):
    """The sorted distinct sums a + b mod n of int64 keys in [0, n), and
    the number of pairs giving each, by shifted adds: for each key s of the
    shorter operand, the longer one's indicator shifted by s cells, mod n,
    is added into ``uint8`` counts.  The indicator is written twice over,
    so each wrapped shift is one slice.  Exact while the shorter operand
    has at most 255 keys, the most any cell can count."""
    if len(a) < len(b):
        a, b = b, a
    twice = np.zeros(2 * n, dtype=np.uint8)
    twice[a] = twice[a + n] = 1
    counts = np.zeros(n, dtype=np.uint8)
    for s in b.tolist():
        # cell c gains 1 where c - s mod n is in A: entry n - s + c of twice
        counts += twice[n - s : 2 * n - s]
    hit = np.flatnonzero(counts)
    return hit, counts[hit].astype(np.int64)


def _plan(keys, moduli: tuple[int, ...] | None = None, table: LawTable | None = None):
    """How the kernel counts the product of the sorted int64 ``keys`` -- A B,
    or the fused triple (A B) C -- in ``int``, in the box of ``moduli`` or
    with the law ``table``: a :class:`_Grid` to convolve on
    (:func:`_grid_counts`), "shift" for :func:`_shift_counts`, "bincount"
    for the law's counters, or None to sort the pairs (the exact path,
    ``np.unique`` of :func:`_outer_sums`).

    The one rule: a product whose group has more cells than the product
    has pairs sorts its pairs; otherwise it counts densely over the cells.
    The cells are the law's order n, the box's N = prod M_j, or in ``int``
    the key range of the sum rounded up to a power of two.  In a chain
    every product must pass: (A B) C takes a grid only where A B itself
    would, and its own pairs are min(|A||B|, the key range of A + B or the
    box's order) |C|, which bounds |A B||C|.  Dense counting is
    ``np.bincount`` over the law's n keys, one TABLE_BLOCK_BYTES block of
    rows of ``law.outer`` at a time; an FFT over the box; or in ``int`` an
    FFT over the key range, or over the two-axis fold :func:`_int_grid`
    picks for a sparse progression-like tuple.

    One exception: a one-axis box Z_N (``cyclic:N``) pair takes the shifted
    adds of :func:`_shift_counts` instead of the FFT when its shorter
    operand has at most max(8, min(N // 128, 255)) keys.  Their cost is one
    add of N bytes per key of the shorter operand, against three float
    transforms of N cells, so the gate grows with N; it stops at 255 keys,
    as each cell then counts at most 255 pairs and ``uint8`` holds every
    count exactly, with no rounding and no guard.  Best of 21 runs (5 at
    N = 10^6) in us, FFT / shifted adds, |long| = N / 4, on one core of a
    2-CPU VM:

    * N = 10^3: 46 / 13 at 8 keys, 46 / 27 at 32;
    * N = 10^4: 284 / 87 at 64, 284 / 138 at 128;
    * N = 10^5: 3375 / 841 at 128, 3373 / 1358 at 256;
    * N = 10^6: 47561 / 7551 at 128, 49526 / 11730 at 256.

    So the gate is conservative below N = 10^5 (past it the uint8 bound
    binds first): the adds would still win at 32 keys of N = 10^3."""
    order = table.order if table is not None else math.prod(moduli) if moduli else 0
    pairs, reach = len(keys[0]), order or int(keys[0][-1] - keys[0][0]) + 1
    for k in keys[1:]:
        pairs = min(pairs, reach) * len(k)
        reach = order or reach + int(k[-1] - k[0])
        cells = order or 1 << (reach - 1).bit_length()
        if cells > pairs:
            return None
    if table is not None:
        return "bincount"
    if not moduli:
        return _int_grid(keys, cells)
    if len(moduli) == 1 and min(len(keys[0]), len(keys[1])) <= max(8, min(order // 128, 255)):
        return "shift"
    return _Grid(moduli, keys)


def _pair_counts(
    a,
    b,
    moduli: tuple[int, ...] | None = None,
    table: LawTable | None = None,
):
    """Sorted distinct products a_i b_j and the exact number of pairs (i, j)
    giving each, on the path :func:`_plan` names.  a and b are int64 keys:
    integers when ``moduli`` is None, else mixed-radix keys of the box
    Z_M1 x ... x Z_Mr, added digit-wise mod M_j; or, with a law ``table``,
    keys of its group.  A grid the rounding guard rejects takes the exact
    path."""
    plan = _plan((a, b), moduli, table)
    if plan == "shift":
        return _shift_counts(a, b, moduli[0])
    if plan == "bincount":
        n = table.order
        step = max(1, TABLE_BLOCK_BYTES // (8 * max(1, len(b))))
        counts = np.zeros(n, dtype=np.int64)
        for lo in range(0, len(a), step):
            counts += np.bincount(table.outer(a[lo : lo + step], b).ravel(), minlength=n)
        hit = np.flatnonzero(counts)
        return hit, counts[hit]
    counted = None if plan is None else _grid_counts(plan)
    if counted is not None:
        return counted
    return np.unique(_outer_sums(a, b, moduli, table).ravel(), return_counts=True)


def _outer_sums(
    a,
    b,
    moduli: tuple[int, ...] | None = None,
    table: LawTable | None = None,
):
    """The |A| x |B| matrix of products a_i b_j: sums of int64 keys, added
    digit-wise mod M_j when ``moduli`` names a box (see :func:`_pair_counts`),
    or the products a law ``table`` gives for keys a_i, b_j."""
    if table is not None:
        return table.outer(a, b)
    sums = np.add.outer(a, b)
    stride = 1
    for m in reversed(moduli or ()):
        # take M_j stride_j off the sums whose digit j wrapped
        wrap = np.add.outer(a // stride % m, b // stride % m) >= m
        np.subtract(sums, m * stride, out=sums, where=wrap)
        stride *= m
    return sums


def _operands(x: MultSet, y: MultSet) -> _Operands | None:
    """Kernel operands for X Y, or None for the ``kmul`` path: the one place
    that decides which products take a kernel, whatever their size.

    ``int`` takes the sums kernel while every key stays below 2^60 in
    absolute value, so that sums of a few keys fit in int64; a full
    ``cyclic:N`` or ``abelian:*`` oracle (a box) of order below 2^60 takes
    it with its moduli; an oracle with a product law takes the law.
    Subgroup views and quotients have neither ``component_moduli`` nor a
    law.  An empty operand takes ``kmul``, whose loops give the empty
    answers.  X X gets one key array for both operands.
    """
    o = x.oracle
    if not (len(x) and len(y)):
        return None
    if o.kind == "int":
        ends = (x.keys[0], x.keys[-1], y.keys[0], y.keys[-1])
        kernel = max(map(abs, ends)) < 2**60
    else:
        kernel = o.law is not None or o.component_moduli is not None and o.order < 2**60
    if not kernel:
        return None
    a = _values(x.keys)
    return _Operands(a, a if y is x else _values(y.keys), o.component_moduli, o.law)


def _distinct_products(x: MultSet, y: MultSet, budget: int):
    """X Y's distinct products, after :func:`product_set`'s budget checks:
    (sorted kernel values, their pair counts, their operands) where X Y
    takes a kernel, else (the set of ``kmul`` keys, None, None).  A caller
    that needs only |X Y| takes ``len`` and never builds the keys."""
    _require_same(x, y)
    operands = _operands(x, y)
    if operands is not None:
        if operands.table is None and len(x) * len(y) > budget:
            raise BudgetExceededError(
                f"product pairs {len(x) * len(y)} exceed budget {budget}"
            )
        values, counts = _pair_counts(*operands)
        # on the law path the budget bounds distinct products, as on kmul's
        if len(values) > budget:
            raise BudgetExceededError(f"product set grew past budget {budget}")
        return values, counts, operands
    kmul = x.oracle.kmul
    out: set = set()
    for a in x.keys:
        for b in y.keys:
            out.add(kmul(a, b))
        if len(out) > budget:
            raise BudgetExceededError(
                f"product set grew past budget {budget}"
            )
    return out, None, None


def _products_as_set(oracle: GroupOracle, products, operands) -> MultSet:
    """The MultSet of :func:`_distinct_products`' products."""
    if operands is None:
        return MultSet(oracle, products)
    # kernel values come sorted
    return MultSet._from_sorted(oracle, products.tolist())


def product_set(
    x: MultSet, y: MultSet, budget: int = DEFAULT_PRODUCT_BUDGET
) -> MultSet:
    """Pointwise product {a b : a in X, b in Y} in the shared ambient group."""
    products, _, operands = _distinct_products(x, y, budget)
    return _products_as_set(x.oracle, products, operands)


def _arc(residues, m: int) -> int:
    """The length of the shortest arc of Z_m that holds every residue."""
    residues = _sorted_distinct(residues)
    return m + 1 - int(np.diff(residues, append=residues[0] + m).max())


def _reach_cells(a, b, moduli: tuple[int, ...] | None) -> int:
    """A bound on |A B| for sorted int64 keys, finer than the box's order or
    the key range of A + B on sparse operands.  In a box, each digit j of a
    product lies on the sum of the arcs of Z_Mj holding digit j of A and of
    B (:func:`_arc`), so |A B| is at most the product over j of their
    lengths' sum less one, capped at M_j.  In ``int``, where A B takes the
    two-axis fold of :func:`_int_grid`, each distinct sum has a cell of
    its own, so |A B| is at most the grid's cells; otherwise the key
    range."""
    if moduli:
        cells, stride = 1, 1
        for m in reversed(moduli):
            cells *= min(m, _arc(a // stride % m, m) + _arc(b // stride % m, m) - 1)
            stride *= m
        return cells
    pair = _plan((a, b))
    if isinstance(pair, _Grid) and pair.width:
        return math.prod(pair.shape)
    return int(a[-1] + b[-1]) - int(a[0] + b[0]) + 1


def _triple_grid(x: MultSet, y: MultSet, z: MultSet, budget: int) -> _Grid | None:
    """The grid on which :func:`triple_product` convolves X, Y and Z at
    once, or None for the two ``product_set`` calls: where :func:`_plan`
    puts the triple on a grid of the sums kernel (not a law), which it does
    only where X Y itself would take one, so no product moves from the
    exact path or the shifted adds onto a larger FFT.  Neither product of
    the chain may raise BudgetExceededError: |X||Y| <= budget, and
    |X Y||Z| <= budget, with |X Y| bounded by the box's order or the key
    range of X + Y, or where that bound is too loose by the cells X Y can
    reach (:func:`_reach_cells`).  Every key of Z must stay below 2^60 in
    absolute value, as X's and Y's do on the kernel.  A repeated set is one
    key array: Z is X gives the grid the same operand twice."""
    if not (x.oracle.domain == y.oracle.domain == z.oracle.domain) or not len(z):
        return None
    operands = _operands(x, y)
    if operands is None or operands.table is not None:
        return None
    a, b, moduli, _ = operands
    if max(abs(z.keys[0]), abs(z.keys[-1])) >= 2**60 or len(a) * len(b) > budget:
        return None
    reach = x.oracle.order if moduli else int(a[-1] + b[-1]) - int(a[0] + b[0]) + 1
    if reach * len(z) > budget and _reach_cells(a, b, moduli) * len(z) > budget:
        return None
    c = a if z is x else b if z is y else _values(z.keys)
    plan = _plan((a, b, c), moduli)
    return plan if isinstance(plan, _Grid) else None


def triple_product(
    x: MultSet, y: MultSet, z: MultSet, budget: int = DEFAULT_PRODUCT_BUDGET
) -> MultSet:
    """The triple product (X Y) Z, equal key for key to
    ``product_set(product_set(x, y), z)``, with the same errors.

    Where :func:`_triple_grid` admits the triple, the three operands are
    convolved in one FFT (:func:`_grid_counts`), so X Y is never built.
    Everything else -- law and ``kmul`` groups, keys past 2^60, an X Y on
    the shifted adds, a budget the chain may exceed, and a grid the
    rounding guard rejects -- runs the two ``product_set`` calls.
    """
    grid = _triple_grid(x, y, z, budget)
    counted = None if grid is None else _grid_counts(grid)
    if counted is None:
        return product_set(product_set(x, y, budget=budget), z, budget=budget)
    return MultSet._from_sorted(x.oracle, counted[0].tolist())


def _product_counts(x: MultSet, y: MultSet):
    """How many pairs (a, b) in X x Y give each product a b: the sorted
    distinct products and their int64 pair counts.  A kernel product
    answers with :func:`_pair_counts`' int arrays; a ``kmul`` product sorts
    its tally once, into an object array of keys.  Either way
    ``keys.item(i)`` is a group key a caller can hand back to ``kmul`` and
    ``kencode``.

    Takes no budget: callers bound |X||Y| before calling.
    """
    _require_same(x, y)
    operands = _operands(x, y)
    if operands is not None:
        return _pair_counts(*operands)
    kmul = x.oracle.kmul
    tally = Counter(kmul(a, b) for a in x.keys for b in y.keys)
    keys = sorted(tally)
    return (
        np.fromiter(keys, dtype=object, count=len(keys)),
        np.fromiter((tally[k] for k in keys), dtype=np.int64, count=len(keys)),
    )


def inverse_set(x: MultSet) -> MultSet:
    kinv = x.oracle.kinv
    return MultSet(x.oracle, (kinv(k) for k in x.keys))


def power_set(x: MultSet, n: int, budget: int = DEFAULT_PRODUCT_BUDGET) -> MultSet:
    """n-fold product set X^n for n >= 1."""
    if n < 1:
        raise PreconditionError(f"power must be >= 1, got {n}")
    acc = x
    for _ in range(n - 1):
        acc = product_set(acc, x, budget=budget)
    return acc


def is_product_free(x: MultSet, budget: int = DEFAULT_PRODUCT_BUDGET) -> bool:
    """Whether no product of two elements of X lands back in X."""
    return count_incident_pairs(x, budget) == 0


def _incident_count(values, counts, keys) -> int:
    """The pair counts of the products ``values`` that lie in the sorted
    ``keys``, summed: the incident pairs of X X, with ``keys`` X's.  A
    binary search, like ``np.isin`` without its ``np.unique``."""
    at = np.searchsorted(keys, values)
    return int(counts[keys[np.minimum(at, len(keys) - 1)] == values].sum())


def count_incident_pairs(x: MultSet, budget: int = DEFAULT_PRODUCT_BUDGET) -> int:
    """Number of ordered pairs (a, b) in X^2 with a b again in X."""
    n = len(x)
    if n * n > budget:
        raise BudgetExceededError(f"{n}^2 pairs exceed budget {budget}")
    operands = _operands(x, x)
    if operands is not None:
        # read the counting kernel's pair counts at the values of X
        values, counts = _pair_counts(*operands)
        return _incident_count(values, counts, operands.a)
    kmul = x.oracle.kmul
    member = x.key_set()
    return sum(
        1 for a in x.keys for b in x.keys if kmul(a, b) in member
    )


# ---------------------------------------------------------------------------
# covering numbers and the approximate-group report


def _greedy_cover(full: int, masks: list[int]) -> list[int]:
    """Greedy set cover of the bitmask ``full``: the indices of the picked
    masks, each the lowest-index mask of largest gain.

    Lazily: each mask keeps the gain counted when it was last looked at.
    A gain only falls as the cover grows, so that stale gain bounds the
    fresh one, and a pick recounts only the masks whose stale gain beats
    the best fresh gain found so far in index order; the others can at
    most tie it from a higher index."""
    gains = [(full & m).bit_count() for m in masks]
    remaining = full
    picks = []
    while remaining:
        best, best_gain = -1, 0
        for i, stale in enumerate(gains):
            if stale > best_gain:
                gain = gains[i] = (remaining & masks[i]).bit_count()
                if gain > best_gain:
                    best, best_gain = i, gain
        if best < 0:
            raise PreconditionError("candidates do not cover the universe")
        picks.append(best)
        remaining &= ~masks[best]
        gains[best] = 0
    return picks


def _rank_points(
    full: int, masks: list[int]
) -> tuple[int, list[int], list[list[int]]]:
    """Renumber the points of ``full`` by increasing number of masks that
    hit them, ties by position: the renumbered ``full`` and masks, and for
    each new point the indices of the masks with its bit set, in increasing
    order."""
    width = full.bit_length()
    nbytes = (width + 7) // 8
    packed = np.frombuffer(
        b"".join(m.to_bytes(nbytes, "little") for m in (full, *masks)),
        dtype=np.uint8,
    ).reshape(len(masks) + 1, nbytes)
    bits = np.unpackbits(packed, axis=1, count=width, bitorder="little")
    order = np.argsort(bits[1:].sum(axis=0), kind="stable")
    bits = bits[:, order]
    full, *masks = (
        int.from_bytes(row.tobytes(), "little")
        for row in np.packbits(bits, axis=1, bitorder="little")
    )
    # point-major order: the hitters of each point by increasing mask index
    point, mask = np.nonzero(bits[1:].T)
    ends = np.cumsum(np.bincount(point, minlength=width)).tolist()
    mask = mask.tolist()
    return full, masks, [mask[a:b] for a, b in zip([0, *ends], ends)]


def _exact_cover_size(
    full: int,
    masks: list[int],
    upper: int,
    node_budget: int = 10**6,
) -> int | None:
    """Branch-and-bound minimum cover size, or None if the budget runs out.

    Each node branches on the uncovered point with the fewest hitters, the
    first such point on ties, trying its hitters in index order.  A mask
    that hits an uncovered point still adds to the cover, so that count is
    the point's total number of hitters and the order of the points never
    changes.  Once the search has to branch -- always first at the root,
    and never when the root's bound settles the minimum -- the points are
    renumbered in that order (:func:`_rank_points`), and the point to branch
    on is the lowest uncovered bit.  Every mask must lie within ``full``.
    """
    covers = 0
    for m in masks:
        covers |= m
    if covers & full != full:
        raise PreconditionError("candidates do not cover the universe")
    best = upper
    nodes = 0
    max_cover = max((m.bit_count() for m in masks), default=0)
    aborted = False
    hitters: list[list[int]] = []

    def dfs(covered: int, used: int) -> None:
        nonlocal best, nodes, aborted, full, masks, hitters
        nodes += 1
        if aborted or nodes > node_budget:
            aborted = True
            return
        if covered == full:
            if used < best:
                best = used
            return
        missing = full & ~covered
        lacking = missing.bit_count()
        if used + (lacking + max_cover - 1) // max_cover >= best:
            return
        if not hitters:  # at the root: covered is 0 in either numbering
            full, masks, hitters = _rank_points(full, masks)
            missing = full
        for ci in hitters[(missing & -missing).bit_length() - 1]:
            dfs(covered | masks[ci], used + 1)

    dfs(0, 0)
    return None if aborted else best


@dataclass
class ApproxGroupReport:
    """Summary used to judge how close X is to a k-approximate group."""

    size: int
    doubling: Fraction
    tripling: Fraction
    symmetric: bool
    has_identity: bool
    covering_upper: int
    covering_exact: int | None
    k: Fraction | None
    is_k_approx: bool | None
    incident_pairs: int

    def to_json_dict(self) -> dict:
        """The fields in order, each Fraction as its p/q text."""
        return {
            name: frac_str(v) if isinstance(v, Fraction) else v
            for name, v in vars(self).items()
        }


def _index_masks(index, width: int) -> list[int]:
    """Row r of the int matrix ``index`` as a bitmask: bit i is set iff i
    occurs in row r.  Rows are packed a chunk at a time, so the boolean
    scratch holds about MASK_CHUNK_CELLS cells whatever the matrix size."""
    nbytes = (width + 7) // 8
    step = max(1, MASK_CHUNK_CELLS // (8 * nbytes))
    masks: list[int] = []
    for lo in range(0, len(index), step):
        rows = index[lo : lo + step]
        # one flat scatter: row r's bits start at cell 8 nbytes r
        hit = np.zeros(len(rows) * 8 * nbytes, dtype=bool)
        hit[rows + np.arange(0, len(hit), 8 * nbytes, dtype=rows.dtype)[:, None]] = True
        packed = np.packbits(hit, bitorder="little").tobytes()
        masks.extend(
            int.from_bytes(packed[i : i + nbytes], "little")
            for i in range(0, len(packed), nbytes)
        )
    return masks


def _shift_masks(keys, size: int) -> list[int] | None:
    """The translates t + X, t in X, of sorted int64 keys as bitmasks over
    the ``size`` sorted keys of X + X, each one shift of a single bitset;
    or None when X + X does not fill the box below.

    With m the row stride of X (:func:`_fold_modulus`, m = 1 for a single
    key), each key is c + q m + r (:func:`_fold_axes`), so each sum of two
    keys is 2c + i m + j with (i, j) in the Q x R box, Q = 2 max q + 1 and
    R = 2 max r + 1.  X + X has Q R sums only when every cell holds one and
    (i, j) -> 2c + i m + j is injective on the box.  Then R <= m or Q = 1
    (with two rows and R > m, cells (0, m) and (1, 0) meet), and either way
    the map increases in row-major order, as j < m in the first case.  So
    the position of a sum among X + X's sorted keys is its cell's
    row-major index, and t + x sits at cell(t) + cell(x), with
    cell(x) = q_x R + r_x.  The mask of t + X is then B << cell(t), with B
    the bitset of the cells of X.  The one test |X + X| = Q R is exact, on
    X + X rather than on X: a box missing a corner (its double is missing
    from X + X), rows that carry (R > m) or a random set returns None and
    takes the index matrix of :func:`_translates`.
    """
    m = _fold_modulus(keys) or 1
    _, q, r = _fold_axes(keys, m)
    width = 2 * int(r.max()) + 1
    if (2 * int(q[-1]) + 1) * width != size:
        return None
    cells = q * width + r
    (base,) = _index_masks(cells[None, :], size)
    return [base << cell for cell in cells.tolist()]


def _translates(x: MultSet, square: MultSet, side: str) -> list[int]:
    """Translates t X and/or X t, t in X, as bitmasks over X^2's keys: bit i
    is set iff the translate holds the i-th key of X^2.  Two-sided, the left
    and right translates of each t alternate.

    Where X X takes the sums kernel in ``int`` and fills its fold's box
    (intervals, progressions, full boxes of a GAP), each mask is one shift
    of one bitset (:func:`_shift_masks`).  Otherwise entry (r, j) of one
    |X| x |X| index matrix is the position in X^2's keys of x_r x_j, so row
    r is x_r X and column r is X x_r.  Where :func:`_operands` takes X X
    to a kernel, the matrix places the kernel's outer products
    among X^2's values: by one gather from an array indexed by value where
    their range is at most max(|X|^2, 4096) cells, else by a binary search.
    On the sums kernel (``int``, full ``cyclic:N`` and ``abelian:*``) it is
    symmetric, so each right translate is the left one.  Elsewhere it takes
    |X|^2 ``kmul`` calls.
    """
    operands = _operands(x, x)
    if operands is not None and x.oracle.kind == "int":
        masks = _shift_masks(operands.a, len(square))
        if masks is not None:
            # t + X = X + t: two-sided, each mask stands for both
            return masks if side != "two-sided" else [m for m in masks for _ in range(2)]
    if operands is None:
        kmul = x.oracle.kmul
        where = {k: i for i, k in enumerate(square.keys)}
        index = np.array(
            [[where[kmul(t, b)] for b in x.keys] for t in x.keys], dtype=np.int64
        )
        columns = index.T
    else:
        products = _outer_sums(*operands)
        values = _values(square.keys)
        lo, hi = int(values.min()), int(values.max())
        # a position array no larger than the matrix, or than 16 KB of int32
        # cells, which costs less to fill than a binary search of the matrix
        if hi - lo < max(len(x) ** 2, 4096):
            # int32 positions: |X^2| is far below 2^31
            where = np.zeros(hi - lo + 1, dtype=np.int32)
            where[values - lo] = np.arange(len(values))
            products -= lo  # a fresh array, shifted in place
            index = where[products]
        else:
            index = np.searchsorted(values, products)
        del products  # the masks' scratch takes its place
        columns = index if operands.table is None else index.T
    if side == "left":
        return _index_masks(index, len(square))
    right = _index_masks(columns, len(square))
    if side == "right":
        return right
    left = right if columns is index else _index_masks(index, len(square))
    return [m for pair in zip(left, right) for m in pair]


def approx_report(
    x: MultSet,
    k: Fraction | int | None = None,
    *,
    budget: int = DEFAULT_PRODUCT_BUDGET,
    translate_side: str = "left",
) -> ApproxGroupReport:
    """Doubling, tripling, symmetry, identity, incident-pair and covering
    diagnostics.  Incident pairs are read off X X's pair counts where it
    takes a kernel, else counted by :func:`count_incident_pairs`.

    The covering search uses translates t X with t drawn from X itself;
    X^2 is always a union of such translates, so the search is feasible and
    any bound it certifies is a genuine covering bound.  ``translate_side``
    may be ``left``, ``right``, or ``two-sided``.

    Each translate is held once, as an int bitmask whose bit i is the i-th
    key of X^2.  The greedy cover of the masks gives ``covering_upper``; a
    branch-and-bound search over the masks gives ``covering_exact``, or None
    when |X^2| > EXACT_COVER_UNIVERSE or the search exceeds its node budget.
    The search builds the per-point lists of the translates that hit each
    point on demand, only once its root bound fails to settle the minimum.
    """
    if len(x) == 0:
        raise PreconditionError("approx_report needs a nonempty set")
    if translate_side not in ("left", "right", "two-sided"):
        raise PreconditionError(f"bad translate side {translate_side!r}")
    products, counts, operands = _distinct_products(x, x, budget)
    square = _products_as_set(x.oracle, products, operands)
    # only |X^3| is reported: count its products without building its keys
    cube = _distinct_products(square, x, budget)[0]
    if counts is None or len(x) ** 2 > budget:  # kmul, or the budget error
        incident = count_incident_pairs(x, budget)
    else:
        incident = _incident_count(products, counts, operands.a)
    doubling = Fraction(len(square), len(x))
    tripling = Fraction(len(cube), len(x))
    symmetric = inverse_set(x).key_set() == x.key_set()
    has_identity = x.oracle.identity_key in x.key_set()

    masks = _translates(x, square, translate_side)
    full = (1 << len(square)) - 1
    picks = _greedy_cover(full, masks)
    upper = len(picks)
    # sanity: the greedy picks really do cover X^2
    covered = 0
    for i in picks:
        covered |= masks[i]
    if covered != full:
        raise PreconditionError("greedy cover failed to cover X^2")

    exact = None
    if len(square) <= EXACT_COVER_UNIVERSE:
        exact = _exact_cover_size(full, masks, upper)

    is_k_approx = None
    if k is not None:
        k = Fraction(k)
        covering = exact if exact is not None else upper
        is_k_approx = bool(has_identity and symmetric and Fraction(covering) <= k)
    return ApproxGroupReport(
        size=len(x),
        doubling=doubling,
        tripling=tripling,
        symmetric=symmetric,
        has_identity=has_identity,
        covering_upper=upper,
        covering_exact=exact,
        k=k,
        is_k_approx=is_k_approx,
        incident_pairs=incident,
    )
