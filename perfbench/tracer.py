"""Span tracing of flatcheck, installed from outside the program.

`Tracer.install()` replaces the public functions of each layer module with
timing wrappers.  A function bound by name into another module (for
example `from .groebner import groebner_basis` in `ideals`) is replaced in
every namespace that holds it, so no call escapes its span.

Two kinds of wrapper exist:

* span: one record per call, with id, parent, name, start, end and the
  (pass, input) it ran under.  Used for every layer above `rings`.
* aggregate: `rings` (construction, arithmetic, printing) and the monomial
  kernels run up to millions of times per pass, so their calls are summed
  (calls, self time) into the nearest enclosing span instead of recorded
  one by one.

Self time is a span's duration minus the durations of its direct children,
aggregates included.  Everything is kept in memory until the run ends.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# Layer modules, in the order the metrics list them; `_kernels` is named
# `kernels` in span and metric names.
LAYERS = (
    "cli", "report", "dsl", "flatness", "primdec", "ideals",
    "groebner", "funcfield", "factor", "rings", "_kernels",
)
_KERNELS = (
    "monomial_mul", "monomial_div", "monomial_divides", "monomial_lcm",
    "total_degree", "monomial_cmp", "leading_exponent", "find_divisor",
)
# Polynomial construction and arithmetic: the `rings` layer's work.
_RING_METHODS = {
    "Polynomial": (
        "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__mul__", "__rmul__", "__pow__", "scale", "mul_monomial", "monic",
    ),
    "PolyRing": ("transport",),
    "VarMap": ("__call__",),
}


class Tracer:
    def __init__(self):
        # Finished spans: (id, parent id, name, start, end, self time, key).
        self.spans = []
        # Aggregates per owning span id: {name: [calls, self time]}.
        self.aggregates = {}
        self.counts = Counter()  # counters the hooks record
        self.key = None  # (pass, input) of the spans now being recorded
        self._next_id = 1
        # Frames: [child time, owning span id].  The bottom frame owns calls
        # made outside any span.
        self._stack = [[0.0, 0]]
        self._last_spoly = None
        self._taken = 0  # spans already summarised by take_pass

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, pre=None, post=None):
        """Wrap fn so that each call records one span."""
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            frame = [0.0, sid]
            token = pre(args, kwargs) if pre is not None else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent[0] += end - start
                spans.append(
                    (sid, parent[1], name, start, end, end - start - frame[0], self.key)
                )
            if post is not None:
                post(token, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _aggregate(self, name, fn):
        stack = self._stack
        aggregates = self.aggregates

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent[0] += duration
                owned = aggregates.get(parent[1])
                if owned is None:
                    owned = aggregates[parent[1]] = {}
                entry = owned.get(name)
                if entry is None:
                    owned[name] = [1, duration - frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += duration - frame[0]

        traced.__wrapped__ = fn
        return traced

    # -- counters the per-layer metrics need ------------------------------

    def _groebner_pre(self, args, kwargs):
        ideal = args[0]
        order = args[1] if len(args) > 1 else kwargs.get("order")
        order = order or ideal.ring.default_order
        return order.descriptor in ideal._cache

    def _groebner_post(self, hit, args, kwargs, result):
        self.counts["ideals.gb_cache_hits"] += hit

    def _spoly_post(self, token, args, kwargs, result):
        self._last_spoly = result

    def _normal_form_post(self, token, args, kwargs, result):
        if args and args[0] is self._last_spoly and result.is_zero():
            self.counts["groebner.zero_reductions"] += 1

    def _division_post(self, token, args, kwargs, result):
        bits = self.counts["groebner.max_coeff_bits"]
        for c in result[1].terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        self.counts["groebner.max_coeff_bits"] = bits

    def _decompose_post(self, token, args, kwargs, result):
        self.counts["primdec.retries"] += result.retries
        self.counts["primdec.components"] += len(result.components)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer's public functions and the methods named above."""
        hooks = {
            "groebner.s_polynomial": (None, self._spoly_post),
            "groebner.normal_form": (None, self._normal_form_post),
            "groebner.division": (None, self._division_post),
            "primdec.decompose": (None, self._decompose_post),
        }
        replaced = {}  # original function -> wrapper
        for module_name in LAYERS:
            module = importlib.import_module("flatcheck." + module_name)
            if module_name == "_kernels":
                for fn_name in _KERNELS:
                    fn = getattr(module, fn_name)
                    replaced[fn] = self._aggregate(f"kernels.{fn_name}", fn)
                continue
            wrap = self._aggregate if module_name == "rings" else self.span
            for fn_name, fn in vars(module).items():
                if (
                    fn_name.startswith("_")
                    or not callable(fn)
                    or isinstance(fn, type)
                    or getattr(fn, "__module__", None) != module.__name__
                ):
                    continue
                name = f"{module_name}.{fn_name}"
                if name in hooks:
                    replaced[fn] = self.span(name, fn, *hooks[name])
                else:
                    replaced[fn] = wrap(name, fn)

        # Methods: the Ideal GB cache, and the rings layer's arithmetic.
        from flatcheck import ideals, rings

        ideals.Ideal.groebner = self.span(
            "ideals.Ideal.groebner", ideals.Ideal.groebner,
            self._groebner_pre, self._groebner_post,
        )
        for cls_name, methods in _RING_METHODS.items():
            cls = getattr(rings, cls_name)
            for method in methods:
                setattr(cls, method, self._aggregate(
                    f"rings.{cls_name}.{method}", getattr(cls, method)))

        # Rebind every name that refers to a wrapped function, in every
        # flatcheck namespace except the kernel implementations' own.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("flatcheck") or module_name.startswith(
                "flatcheck._kernels."
            ):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                try:
                    wrapper = replaced.get(value)
                except TypeError:  # unhashable value
                    continue
                if wrapper is not None:
                    namespace[attr] = wrapper

    # -- per-pass summaries ------------------------------------------------

    def take_pass(self):
        """Calls, self times and counters recorded since the last call.

        Returns ({name: calls}, {name: self seconds}, {counter: value},
        {input: {name: calls}}); the last is for the determinism check.
        """
        calls, self_s, per_input = Counter(), Counter(), {}
        owners = {}
        for sid, _parent, name, _start, _end, own, key in self.spans[self._taken:]:
            calls[name] += 1
            self_s[name] += own
            owners[sid] = key
            per_input.setdefault(key[1], Counter())[name] += 1
        for sid, owned in self.aggregates.items():
            key = owners.get(sid)
            if key is None:
                continue
            for name, (n, own) in owned.items():
                calls[name] += n
                self_s[name] += own
                per_input.setdefault(key[1], Counter())[name] += n
        self._taken = len(self.spans)
        counts = Counter(self.counts)
        self.counts.clear()
        return calls, self_s, counts, per_input

    def tree(self):
        """Spans and aggregates in a JSON-ready form."""
        return {
            "span_columns": ["id", "parent", "name", "start", "end", "self_s", "pass", "input"],
            "spans": [
                [sid, parent, name, start, end, own, key[0], key[1]]
                for sid, parent, name, start, end, own, key in self.spans
            ],
            "aggregate_columns": ["owner", "name", "calls", "self_s"],
            "aggregates": [
                [owner, name, n, own]
                for owner, owned in self.aggregates.items()
                if owner
                for name, (n, own) in owned.items()
            ],
        }
