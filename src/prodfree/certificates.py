"""Machine-checkable extraction certificates.

A certificate records the input digest, the algorithm and its parameters,
the witness subset, and a trace of stage inequalities.  Each trace entry
states its inequality over the entry's own ``sizes`` dictionary, so a
verifier can re-evaluate every comparison from the stored numbers without
rerunning the search.

Inequality grammar, with whitespace allowed between tokens:

    expr    :=  product CMP product
    product :=  factor ('*' factor)*
    factor  :=  integer p | rational 'p/q' with q >= 1 | size-key identifier
    CMP     :=  '<=' | '>=' | '==' | '<' | '>'

where p is '-'? and decimal digits (``\\d``) and an identifier matches
[A-Za-z_][A-Za-z0-9_]*.  Each product is an integer over a positive integer,
and the sides are compared exactly by cross-multiplying the integers.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, CertificateError, InvariantViolationError
from .groups import generating_keys, key_digest
from .sets import DEFAULT_PRODUCT_BUDGET, MultSet, frac_str, is_product_free

# verify's freeness recheck in int, cyclic:N and abelian:* runs on a bitset
# while its largest cell is below this many bits per key, else on raw kmul:
# n = 300 / 1000 / 3000 free keys at 1024 n bits took 5-8 / 28-97 / 260-540 ms
# (raw kmul 13-16 / 87-202 / 1000-1500 ms, even at 2048 n; in process, 2 CPUs)
VERIFY_BITS_PER_KEY = 1024
# elsewhere, in an enumerated group, it walks the group (_walk_free) when
# this many times |G| is at most n^2, else runs raw kmul over the n^2 pairs:
# n free keys with n^2 = 16 |G| took 0.66-1.02 times the pair loop's time
# (1.3-1.9 at 8 |G|, 0.37-0.5 at 32 |G|) in sym:5, sym:6, dihedral:50,
# dihedral:300, heisenberg:5, heisenberg:11, heisenberg:17, a view and a
# quotient (in process, 2 CPUs)
VERIFY_WALK_COST = 16

_FACTOR = re.compile(r"(-?\d+)(?:/(\d+))?|([A-Za-z_][A-Za-z0-9_]*)")
_SIDE = rf"(?:{_FACTOR.pattern})(?:\s*\*\s*(?:{_FACTOR.pattern}))*"
_INEQUALITY = re.compile(
    rf"\s*(?P<lhs>{_SIDE})\s*(?P<cmp><=|>=|==|<|>)\s*(?P<rhs>{_SIDE})\s*"
)
_COMPARE = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
            "<": operator.lt, ">": operator.gt}


def _side(side: str, sizes: dict[str, int], text: str) -> tuple[int, int]:
    """One side's product as (numerator, denominator >= 1)."""
    num = den = 1
    for p, q, key in _FACTOR.findall(side):
        if key and key not in sizes:
            raise CertificateError(f"unknown size key {key!r} in {text!r}")
        try:
            num *= int(sizes[key] if key else p)
            den *= int(q or 1)
        except ValueError:  # a literal past Python's int string-conversion limit
            raise CertificateError(
                f"integer literal too long in an inequality of {len(text)} characters"
            ) from None
    if not den:
        raise CertificateError(f"zero denominator in {text!r}")
    return num, den


def eval_inequality(text: str, sizes: dict[str, int]) -> bool:
    """Evaluate a product-comparison inequality against a sizes table."""
    m = _INEQUALITY.fullmatch(text)
    if not m:
        raise CertificateError(f"malformed inequality {text!r}")
    ln, ld = _side(m["lhs"], sizes, text)
    rn, rd = _side(m["rhs"], sizes, text)
    return _COMPARE[m["cmp"]](ln * rd, rn * ld)


def _typed(value, kind: type, where: str):
    """``value`` if its JSON type is ``kind`` (a bool is not an integer),
    else CertificateError."""
    if type(value) is not kind:
        raise CertificateError(
            f"malformed certificate: {where} is {type(value).__name__}, "
            f"not {kind.__name__}"
        )
    return value


def _guarantee(text) -> Fraction:
    """A certificate's ``p/q`` guarantee, q >= 1."""
    m = _FACTOR.fullmatch(_typed(text, str, "guarantee"))
    if m and m[2]:
        try:
            p, q = int(m[1]), int(m[2])
        except ValueError:  # a literal past Python's int string-conversion limit
            raise CertificateError(
                "malformed certificate: guarantee has an integer literal too long"
            ) from None
        if q:
            return Fraction(p, q)
    raise CertificateError(
        f"malformed certificate: guarantee {text!r} is not p/q with q >= 1"
    )


@dataclass
class TraceRecord:
    stage: str
    sizes: dict[str, int]
    inequality: str
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "stage": self.stage,
            "sizes": dict(self.sizes),
            "inequality": self.inequality,
            "holds": self.holds,
        }

    @classmethod
    def from_json_dict(cls, data: dict, where: str) -> "TraceRecord":
        _typed(data, dict, where)
        sizes = _typed(data["sizes"], dict, f"{where}.sizes")
        return cls(
            stage=_typed(data["stage"], str, f"{where}.stage"),
            sizes={k: _typed(v, int, f"{where}.sizes.{k}") for k, v in sizes.items()},
            inequality=_typed(data["inequality"], str, f"{where}.inequality"),
            holds=_typed(data["holds"], bool, f"{where}.holds"),
        )


def record(stage: str, sizes: dict[str, int], inequality: str) -> TraceRecord:
    """Build a trace record, evaluating the inequality on the spot."""
    return TraceRecord(
        stage=stage,
        sizes={k: int(v) for k, v in sizes.items()},
        inequality=inequality,
        holds=eval_inequality(inequality, sizes),
    )


def require(stage: str, sizes: dict[str, int], inequality: str) -> TraceRecord:
    """The trace record of a bound that is a theorem: ``record``, raising
    InvariantViolationError naming the stage, the inequality and the sizes
    when the inequality fails."""
    rec = record(stage, sizes, inequality)
    if not rec.holds:
        raise InvariantViolationError(
            f"{stage}: {inequality!r} fails at {rec.sizes}"
        )
    return rec


def input_digest(x: MultSet) -> str:
    """Content hash of (domain tag, canonical element encodings)."""
    return key_digest(x.oracle, x.keys)


@dataclass
class ExtractionCertificate:
    input_digest: str
    algorithm: str
    params: dict[str, str]
    witness: list[str]
    verified_product_free: bool
    achieved_size: int
    guarantee: Fraction | None
    trace: list[TraceRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "input_digest": self.input_digest,
            "algorithm": self.algorithm,
            "params": dict(self.params),
            "witness": list(self.witness),
            "verified_product_free": self.verified_product_free,
            "achieved_size": self.achieved_size,
            "guarantee": frac_str(self.guarantee) if self.guarantee is not None else None,
            "trace": [t.to_json_dict() for t in self.trace],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExtractionCertificate":
        """The certificate of a parsed JSON document, every field of its
        JSON type; anything else is a CertificateError, never coerced."""
        try:
            _typed(data, dict, "certificate")
            params = _typed(data["params"], dict, "params")
            witness = _typed(data["witness"], list, "witness")
            guarantee = data["guarantee"]
            return cls(
                input_digest=_typed(data["input_digest"], str, "input_digest"),
                algorithm=_typed(data["algorithm"], str, "algorithm"),
                params={k: _typed(v, str, f"params.{k}") for k, v in params.items()},
                witness=[_typed(w, str, "witness item") for w in witness],
                verified_product_free=_typed(
                    data["verified_product_free"], bool, "verified_product_free"
                ),
                achieved_size=_typed(data["achieved_size"], int, "achieved_size"),
                guarantee=None if guarantee is None else _guarantee(guarantee),
                trace=[
                    TraceRecord.from_json_dict(t, f"trace[{i}]")
                    for i, t in enumerate(_typed(data["trace"], list, "trace"))
                ],
            )
        except KeyError as exc:
            raise CertificateError(f"malformed certificate: missing {exc}") from None

    @classmethod
    def load(cls, path) -> "ExtractionCertificate":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # JSONDecodeError, or a JSON
            # integer past Python's int string-conversion limit
            raise CertificateError(f"cannot read certificate: {exc}") from None
        return cls.from_json_dict(data)


def build_certificate(
    x: MultSet,
    algorithm: str,
    params: dict[str, str],
    witness: MultSet,
    guarantee: Fraction | None,
    trace: list[TraceRecord],
    *,
    budget: int = DEFAULT_PRODUCT_BUDGET,
) -> ExtractionCertificate:
    """Assemble a certificate, re-verifying product-freeness of the witness
    within *budget* pairs."""
    verified = is_product_free(witness, budget) if len(witness) else False
    return ExtractionCertificate(
        input_digest=input_digest(x),
        algorithm=algorithm,
        params=params,
        witness=witness.encoded(),
        verified_product_free=verified,
        achieved_size=len(witness),
        guarantee=guarantee,
        trace=trace,
    )


def _cell(key: int, moduli: tuple[int, ...]) -> int:
    """The bit of a mixed-radix box key whose digit j spans 2 M_j cells."""
    cell, width = 0, 1
    for m in reversed(moduli):
        key, digit = divmod(key, m)
        cell, width = cell + digit * width, width * 2 * m
    return cell


def _arc(keys: tuple, n: int) -> tuple[int, int]:
    """(lo, span): the shortest arc lo, lo + 1, ..., lo + span of Z_n, read
    mod n, that holds the sorted ``keys``.  It starts at the key just past
    the largest cyclic gap between consecutive keys, the first on ties."""
    gaps = [keys[0] + n - keys[-1]] + [b - a for a, b in zip(keys, keys[1:])]
    at = gaps.index(max(gaps))
    return keys[at], n - gaps[at]


def _bits(cells) -> int:
    """The int whose set bits are ``cells``."""
    buf = bytearray(max(cells, default=0) // 8 + 1)
    for c in cells:
        buf[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(buf, "little")


def _bitset_free(keys: tuple, moduli: tuple[int, ...] | None) -> bool | None:
    """Whether no product of two of the sorted ``keys`` is again a key, or
    None (no verdict) when the largest cell is VERIFY_BITS_PER_KEY bits per
    key or more.

    Each key sets one bit, its cell, so the bitset shifted by a's cell holds
    every product a b, at the sum of the two cells.  In ``int`` (``moduli``
    None) k's cell is k - lo, and a + b sits where the bitset shifted down
    by lo holds the keys.  On one axis Z_N (``cyclic:N``) k's cell is
    (k - lo) mod N, with lo the start of the keys' shortest arc
    (:func:`_arc`), so cells and sums of two cells stay within the arc's
    span and twice it; a + b is a key k iff the sum of their cells is
    k - 2 lo mod N, and the target holds the at most two such sums per key
    up to twice the span, never an N-bit int.  In a box Z_M1 x ... x Z_Mr
    digit j gets 2 M_j cells, so digit vectors add without a carry; the key
    bitset OR'd, axis by axis, with itself shifted by M_j cells of that
    axis holds the keys at every wrapped digit sum.
    """
    most = VERIFY_BITS_PER_KEY * len(keys)
    if moduli is None:
        lo, span = keys[0], keys[-1] - keys[0]
        if span >= most:
            return None
        if not -2 * span <= lo <= span:
            return True  # the sums [2 lo, 2 hi] miss [lo, hi]
        cells = [k - lo for k in keys]
        bits = _bits(cells)
        target = bits >> lo if lo >= 0 else bits << -lo
    elif len(moduli) == 1:
        n = moduli[0]
        lo, span = _arc(keys, n)
        if span >= most:
            return None
        cells = [(k - lo) % n for k in keys]
        bits = _bits(cells)
        # the sums of two cells lie in [0, 2 span], below 2 N
        wanted = ((k - 2 * lo) % n for k in keys)
        target = _bits([t for s in wanted for t in (s, s + n) if t <= 2 * span])
    else:
        cells = [_cell(k, moduli) for k in keys]
        if cells[-1] >= most:
            return None
        bits = target = _bits(cells)
        width = 1
        for m in reversed(moduli):
            if m * width <= 2 * cells[-1]:  # else past every sum
                target |= target << m * width
            width *= 2 * m
    return not any(bits << c & target for c in cells)


def _walk_free(oracle, keys: tuple, pos: dict) -> bool:
    """Whether no product of two of ``keys`` is again a key, by a walk of
    the enumerated group from the identity along its generators.

    ``pos`` maps each key of the enumeration to its position (below
    ENUM_CAP, so int32 holds it).  With step_g[x] the position of x g for
    each generator g, the row of h (the positions of w h for each key w)
    gives the row of h g by one gather, step_g[row(h)], exact as ``kmul``
    is associative.  The keys are product-free iff no key h has a row that
    meets the keys.  A breadth-first spanning tree is walked depth first,
    so the rows held are at most |gens| per level of the tree; the walk
    stops at the first key whose row meets the keys, or once every key is
    checked, and skips the rows of leaves that are not keys.
    """
    enum, kmul, size = oracle.enum_keys, oracle.kmul, len(oracle.enum_keys)
    links = []  # step_g as an int32 array to gather with, and as a list
    for g in generating_keys(oracle):
        link = [pos[kmul(x, g)] for x in enum]
        links.append((np.array(link, dtype=np.int32), link))
    # the breadth-first spanning tree: children[h] holds (h g, step_g) for
    # each h g first reached from h
    root = pos[oracle.identity_key]
    seen, children, queue = [False] * size, [[] for _ in range(size)], [root]
    seen[root] = True
    for h in queue:
        for step, link in links:
            c = link[h]
            if not seen[c]:
                seen[c] = True
                children[h].append((c, step))
                queue.append(c)
    row = np.array([pos[k] for k in keys], dtype=np.int32)
    member = np.zeros(size, dtype=bool)
    member[row] = True
    inside, left, stack = member.tolist(), len(keys), [(root, row)]
    while stack:
        h, row = stack.pop()
        if inside[h]:
            if member.take(row).any():
                return False
            left -= 1
            if not left:
                return True
        for c, step in children[h]:
            if inside[c] or children[c]:
                stack.append((c, step.take(row)))
    # never reached, as the generators reach every key; a key left
    # unchecked must not pass
    return False


def _recheck_free(witness: MultSet) -> bool:
    """Product-freeness of a nonempty witness: on the bitset where it gives
    a verdict, else by the generator walk in an enumerated group where
    VERIFY_WALK_COST |G| <= n^2, else straight from the oracle's kmul over
    all pairs."""
    o, keys = witness.oracle, witness.keys
    if o.kind == "int" or o.component_moduli is not None:
        free = _bitset_free(keys, o.component_moduli)
        if free is not None:
            return free
    enum = o.enum_keys
    if enum is not None and VERIFY_WALK_COST * len(enum) <= len(keys) ** 2:
        pos = {k: i for i, k in enumerate(enum)}
        if all(k in pos for k in keys):
            return _walk_free(o, keys, pos)
    kmul, member = o.kmul, witness.key_set()
    return not any(kmul(a, b) in member for a in keys for b in keys)


def verify_certificate(
    cert: ExtractionCertificate, x: MultSet, *, budget: int = DEFAULT_PRODUCT_BUDGET
) -> tuple[bool, list[str]]:
    """Re-check a certificate against the claimed input set.

    Recomputed from scratch: the input digest, witness membership and
    product-freeness, the achieved size, every trace inequality, and the
    guarantee ceiling.  Returns (ok, problems).

    Freeness is rechecked independently of the set calculus that built the
    witness: in ``int``, ``cyclic:N`` and ``abelian:*`` on a bitset of the
    witness keys (:func:`_bitset_free`) while its largest cell is below
    VERIFY_BITS_PER_KEY bits per key; else, in an enumerated group,
    subgroup view or quotient whose enumeration holds every witness key, by
    a walk along its generators (:func:`_walk_free`, on ``kmul`` alone)
    when VERIFY_WALK_COST |G| <= n^2; else by the oracle's raw ``kmul``
    over all pairs.
    On every path the witness's n^2 pairs stay within ``budget`` (at the
    default 10^7, at most 3162 points), or BudgetExceededError is raised.
    """
    problems: list[str] = []

    if cert.input_digest != input_digest(x):
        problems.append("input digest mismatch")

    witness_keys = []
    seen = set()
    for text in cert.witness:
        try:
            el = x.oracle.decode(text)
        except Exception as exc:
            problems.append(f"witness element {text!r} does not parse: {exc}")
            continue
        if el.key in seen:
            problems.append(f"witness element {text!r} repeated")
        seen.add(el.key)
        if el.key not in x.key_set():
            problems.append(f"witness element {text!r} not in the input set")
        witness_keys.append(el.key)

    witness = MultSet(x.oracle, witness_keys)
    if cert.achieved_size != len(cert.witness):
        problems.append(
            f"achieved_size {cert.achieved_size} != witness length {len(cert.witness)}"
        )
    # freeness under the caller's pair budget, whichever path runs
    n = len(witness)
    if n * n > budget:
        raise BudgetExceededError(f"{n}^2 pairs exceed budget {budget}")
    if not cert.verified_product_free:
        problems.append("certificate does not claim product-freeness")
    if not n:
        # product-free, but an empty witness never certifies anything
        problems.append("witness is empty")
    elif not _recheck_free(witness):
        problems.append("witness is not product-free on recomputation")

    for i, t in enumerate(cert.trace):
        try:
            value = eval_inequality(t.inequality, t.sizes)
        except CertificateError as exc:
            problems.append(f"trace[{i}] {t.stage}: {exc}")
            continue
        if value != t.holds:
            problems.append(
                f"trace[{i}] {t.stage}: inequality {t.inequality!r} evaluates "
                f"{value}, certificate says {t.holds}"
            )
        if not t.holds:
            problems.append(f"trace[{i}] {t.stage}: stage bound failed")

    if cert.guarantee is not None:
        need = math.ceil(cert.guarantee)
        if cert.achieved_size < need:
            problems.append(
                f"achieved size {cert.achieved_size} below guarantee ceiling {need}"
            )

    return (not problems, problems)
