"""Spans around the calls into each prodfree module, from outside the package.

A :class:`Tracer` replaces every public function of the package, as bound in
each module's namespace, with a wrapper that records a span: callee name,
start, end, parent span and case id.  Calls made through a module global
(``cli`` calling ``approx_report``, ``pipeline`` calling ``product_set``)
therefore pass through the wrapper; calls through a bound method or a local
alias do not, and their time stays in the caller's self time.

A few wrappers also count work where it happens: product-set operand and
output sizes, freeness pairs, settled cover searches, halving steps, failed
pipeline stages, and every ``kmul`` of an oracle returned by ``build_group``.

Nothing under ``src/prodfree`` is edited; :meth:`Tracer.uninstall` restores
the original bindings.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict

PACKAGE = "prodfree"


class Span:
    __slots__ = ("name", "start", "end", "parent", "case")

    def __init__(self, name, start, parent, case):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.case = case

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.case]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[c].start, edge)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append((s.end - s.start) - covered)
    return out


def inclusive_ms(spans) -> dict[str, float]:
    """Time in spans of each function, callees included, in milliseconds.

    Only the outermost span of a recursive call chain counts.
    """
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            totals[s.name] += (s.end - s.start) * 1000.0
    return dict(totals)


def self_ms(spans) -> dict[str, float]:
    """Self time of each function and of each layer, in milliseconds.

    Layer totals are keyed by the bare layer name (``sets``), functions by
    ``layer.function``.
    """
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] += t * 1000.0
        totals[s.layer] += t * 1000.0
    return dict(totals)


def package_modules():
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.case = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrapper_for(obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []

    def _wrapper_for(self, fn):
        key = id(fn)
        if key not in self._wrappers:
            layer = fn.__module__.split(".", 1)[1]
            self._wrappers[key] = self._make_wrapper(fn, f"{layer}.{fn.__name__}")
        return self._wrappers[key]

    def _make_wrapper(self, fn, name):
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            span = Span(name, 0.0, stack[-1] if stack else -1, tracer.case)
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(tracer, args, kwargs, result, exc)

        return wrapper


# -- counting hooks, keyed by span name ------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _product_set(t, args, kwargs, result, exc):
    t.counts["sets.product_set_calls"] += 1
    x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
    t.counts["sets.product_pairs"] += len(x) * len(y)
    if result is not None:
        t.counts["sets.product_out"] += len(result)


def _is_product_free(t, args, kwargs, result, exc):
    n = len(_arg(args, kwargs, 0, "x"))
    t.counts["sets.freeness_pairs"] += n * n


def _approx_report(t, args, kwargs, result, exc):
    t.counts["sets.cover_attempted"] += 1
    if result is not None and result.covering_exact is not None:
        t.counts["sets.cover_settled"] += 1


def _finder(t, args, kwargs, result, exc):
    t.counts["pipeline.finder_calls"] += 1
    if result is not None:
        t.counts["pipeline.halving_steps"] += 1


def _extract(t, args, kwargs, result, exc):
    cert = getattr(exc, "certificate", None)
    if cert is not None:
        stage = cert.params.get("status", "").partition(":")[2] or "unknown"
        t.counts[f"pipeline.stage_failed.{stage}"] += 1


def _build_group(t, args, kwargs, oracle, exc):
    if oracle is None:
        return
    kmul = oracle.kmul
    counts = t.counts

    def counted_kmul(a, b):
        counts["groups.kmul_calls"] += 1
        return kmul(a, b)

    # counts land in the Counter that was live when the oracle was built;
    # oracles are built per CLI call, so that is the current pass's Counter
    oracle.kmul = counted_kmul


_HOOKS = {
    "sets.product_set": _product_set,
    "sets.is_product_free": _is_product_free,
    "sets.approx_report": _approx_report,
    "pipeline.find_homogeneous_tuple": _finder,
    "pipeline.product_free_extract": _extract,
    "groups.build_group": _build_group,
}
