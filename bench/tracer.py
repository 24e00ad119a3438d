"""Span tracing around the public functions of each ``affsemi`` module.

The library is not changed: ``Tracer.install`` wraps each target function
and rebinds the wrapper under every name that refers to the original in
every loaded ``affsemi`` module, so calls made between modules go through
the wrapper too.  Spans (name, start, end, parent span, op id) are kept in
memory and written out at the end of the run.

Kernels called once per point or per residue (``determinant``,
``cramer_numerators``, ``solve_lower_triangular``, ``in_closed_cone`` and
the like) are not wrapped: wrapping them would multiply the tracing cost,
and their time shows as self time of the function that calls them.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

import inputs

#: Functions wrapped in each module.  ``singularities._reachable`` is the
#: sieve behind the plane-branch re-check.
TARGETS = {
    "exactlinalg": ("gcd_maximal_minors", "lattice_basis"),
    "lattice": ("build_chain", "standard_representation"),
    "semigroup": ("validate_conditions", "membership_fast", "membership_bruteforce"),
    "frobenius": (
        "frobenius_vector",
        "conductor_set",
        "minimal_cone_points",
        "gaps",
        "diophantine_solve",
    ),
    "singularities": ("curve_semigroup", "qo_semigroup", "_reachable"),
    "oracle": ("numerical_gaps_dp", "verify_theorem1", "verify_conductor"),
    "cli": ("main",),
}

#: Spans recorded by hand in a fresh CLI process, in addition to TARGETS.
EXTRA_SPANS = ("cli.import",)

DIOPHANTINE_STATUSES = (
    "solvable_by_cone",
    "solvable_with_witness",
    "no_solution",
    "lattice_infeasible",
)

COUNTS = (
    "frobenius.minimal_cone_points.box_points",
    "frobenius.minimal_cone_points.minimal_points",
    "lattice.standard_representation.index_sum",
    "frobenius.gaps.sieve_len",
    "oracle.numerical_gaps_dp.sieve_len",
    "semigroup.membership_bruteforce.budget_exhausted",
) + tuple(f"frobenius.diophantine_solve.{s}" for s in DIOPHANTINE_STATUSES)


def span_names():
    return [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs] + list(EXTRA_SPANS)


# ---------------------------------------------------------------------------
# input-derived work counts, taken from arguments and results


def _count_standard_representation(counts, args, kwargs, result):
    chain = args[0]
    level = args[2] if len(args) > 2 else kwargs.get("level")
    indices = tuple(getattr(chain, "indices", ()))
    if level is not None:
        indices = indices[:level]
    counts["lattice.standard_representation.index_sum"] += sum(indices)


def _count_minimal_cone_points(counts, args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    e = system.ambient_dim
    if e == 1:
        return  # closed form: the only minimal point is 1
    counts["frobenius.minimal_cone_points.box_points"] += inputs.box_points(
        system.generators[:e]
    )
    counts["frobenius.minimal_cone_points.minimal_points"] += len(result)


def _count_gaps(counts, args, kwargs, result):
    # The sieve runs over [0, F] where F, the Frobenius number, is the
    # largest gap.
    counts["frobenius.gaps.sieve_len"] += max(result, default=0) + 1


def _count_numerical_gaps_dp(counts, args, kwargs, result):
    values = sorted({int(g) for g in (args[0] if args else kwargs["generators"])})
    smallest = values[0]
    if smallest == 1:
        return
    # The self-extending sieve starts at max * min + 1 and doubles until it
    # holds min consecutive members beyond the Frobenius number.
    frobenius = max(result, default=-1)
    limit = values[-1] * smallest + 1
    cells = limit + 1
    while limit < frobenius + smallest:
        limit *= 2
        cells += limit + 1
    counts["oracle.numerical_gaps_dp.sieve_len"] += cells


def _count_diophantine(counts, args, kwargs, result):
    counts[f"frobenius.diophantine_solve.{result.status}"] += 1


COUNTERS = {
    "lattice.standard_representation": _count_standard_representation,
    "frobenius.minimal_cone_points": _count_minimal_cone_points,
    "frobenius.gaps": _count_gaps,
    "oracle.numerical_gaps_dp": _count_numerical_gaps_dp,
    "frobenius.diophantine_solve": _count_diophantine,
}


# ---------------------------------------------------------------------------


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._rebound = []

    def wrap(self, name, function):
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                if (
                    name == "semigroup.membership_bruteforce"
                    and type(exc).__name__ == "SearchBudgetExceededError"
                ):
                    counts["semigroup.membership_bruteforce.budget_exhausted"] += 1
                raise
            span[2] = perf_counter()
            stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = function
        return traced

    def span(self, name, start, end):
        """Record a span measured by the caller."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, self.op])

    def install(self):
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == "affsemi" or key.startswith("affsemi."))
        ]
        for module_name, functions in TARGETS.items():
            home = sys.modules.get(f"affsemi.{module_name}")
            for function_name in functions:
                original = getattr(home, function_name, None)
                if not callable(original):
                    continue
                wrapper = self.wrap(f"{module_name}.{function_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def merge(self, spans, counts, op):
        """Append spans recorded in another process under op id ``op``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        self.counts.update(counts)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end,
                                "parent": parent, "op": op}) + "\n"
                )


def self_times(spans):
    """Per-name call count and self time (duration minus direct children)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = Counter()
    self_s = Counter()
    for index, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - covered[index]
    return calls, self_s
