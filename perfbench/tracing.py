"""Span tracing around the package's public functions, from outside it.

`Tracer.install()` replaces each traced function wherever a `prostochastic`
module binds it (so `cli.markov_monoid`, `omega.boolean_product` and
`numerics.boolean_projection` are all caught) and wraps
`StochasticMatrix.power` on the class.  `uninstall()` puts every original
back.  Nothing inside the package changes.

Spans are aggregated in memory per name: calls, inclusive time and self
time (inclusive time minus the time of traced calls made inside).  A
recursive function is traced at its outermost call only.  A few counters
are read off the arguments and results at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (defining module, function name, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("core", "load_automaton", "core.load_automaton"),
    ("core", "schedule_matrix", "core.schedule_matrix"),
    ("monoid", "markov_monoid", "monoid.markov_monoid"),
    ("monoid", "boolean_product", "monoid.boolean_product"),
    ("monoid", "boolean_projection", "monoid.boolean_projection"),
    ("monoid", "is_idempotent", "monoid.is_idempotent"),
    ("monoid", "stabilize", "monoid.stabilize"),
    ("monoid", "find_value1_witness", "monoid.find_value1_witness"),
    ("monoid", "format_monoid", "monoid.format_monoid"),
    ("numerics", "estimate_limit", "numerics.estimate_limit"),
    ("numerics", "realize_polynomial", "numerics.realize"),
    ("numerics", "realize_superpolynomial", "numerics.realize"),
    ("numerics", "limit_matrix", "numerics.limit_matrix"),
    ("numerics", "limit_projection", "numerics.limit_projection"),
    ("numerics", "numeric_interpretation", "numerics.numeric_interpretation"),
    ("omega", "boolean_interpretation", "omega.boolean_interpretation"),
    ("omega", "parse_expression", "omega.parse_expression"),
    ("reduction", "build_reduction", "reduction.build_reduction"),
    ("reduction", "verify_reduction", "reduction.verify_reduction"),
)
POWER_SPAN = "core.power"
PACKAGE = "prostochastic"


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # name -> [calls, total s, self s]
        self.counters = defaultdict(int)
        self.module_time = defaultdict(float)    # outermost inclusive time per module
        self.paused = False                      # pass calls through untraced
        self._active = defaultdict(int)
        self._stack = []                         # [start, child time] per open span
        self._restore = []                       # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, attribute, span in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attribute)
            wrapper = self._wrap(original, span)
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, bound_name, original))
                        setattr(module, bound_name, wrapper)
        matrix_class = sys.modules[f"{PACKAGE}.core"].StochasticMatrix
        original = matrix_class.__dict__["power"]
        self._restore.append((matrix_class, "power", original))
        matrix_class.power = self._wrap(original, POWER_SPAN)

    def uninstall(self):
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def bindings(self):
        """The (owner, attribute, original) triples currently replaced."""
        return list(self._restore)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ------------------------------------------------------------

    def _wrap(self, function, span):
        active = self._active
        stack = self._stack
        stats = self.spans[span]
        module = span.split(".", 1)[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[span] or self.paused:
                return function(*args, **kwargs)
            self._enter(span, args)
            active[span] += 1
            active[module] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                active[span] -= 1
                active[module] -= 1
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not active[module]:
                    self.module_time[module] += duration
            self._exit(span, args, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", span)
        return traced

    def _enter(self, span, args):
        counters = self.counters
        if span == POWER_SPAN:
            counters["core.power.squarings"] += int(args[1]).bit_length()
            if self._active["numerics.limit_matrix"]:
                counters["numerics.limit_matrix.steps"] += 1
        elif span == "monoid.boolean_product" and self._active["monoid.markov_monoid"]:
            counters["monoid.markov_monoid.products"] += 1

    def _exit(self, span, args, result):
        if span == "monoid.markov_monoid":
            automaton = args[0]
            letters = {tuple(tuple(v > 0.0 for v in row) for row in automaton.transition(a).entries)
                       for a in automaton.alphabet}
            self.counters["monoid.markov_monoid.elements"] += len(result)
            self.counters["monoid.markov_monoid.new_elements"] += len(result) - len(letters)

    # -- summaries --------------------------------------------------------

    def calls(self, span):
        return self.spans[span][0] if span in self.spans else 0

    def self_seconds(self, span):
        return self.spans[span][2] if span in self.spans else 0.0

    def total_seconds(self, span):
        return self.spans[span][1] if span in self.spans else 0.0

    def snapshot(self):
        return {name: list(values) for name, values in self.spans.items() if values[0]}
