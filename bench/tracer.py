"""Outside-in span recorder for the traced benchmark run.

``Tracer.install`` wraps the public functions of the layers listed in
``LAYERS``.  A function is replaced under every name it has in every loaded
``pdrank`` module, because ``bounds``, ``trace``, ``symmetric`` and
``reductions`` call into ``exact`` through ``from .exact import ...``.  High
-frequency helpers (``subsumes``, the ``combinat`` generators) are left alone.

Each call records one span: layer name, start, end, parent span and request
id.  The client sets ``Tracer.request`` before each request it sends.  Spans
stay in memory until ``write``.  A span's self time is its
duration minus the time its child spans cover.  The work counters are exact
and depend only on the inputs, so two runs of one seed give the same counts.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer name -> (module, function names)
LAYERS = {
    "cli.main": ("cli", ("main",)),
    "polyio.parse": ("polyio", ("parse_poly", "parse_graph", "parse_complex")),
    "polyio.to_scaled": ("polyio", ("to_scaled",)),
    "exact.build_matrix": ("exact", ("build_matrix",)),
    "exact.sparse_int_rank": ("exact", ("sparse_int_rank",)),
    "exact.derivative": ("exact", ("derivative",)),
    "bounds.lower_bound_extremal": ("bounds", ("lower_bound_extremal",)),
    "bounds.upper_bound_linearity": ("bounds", ("upper_bound_linearity",)),
    "trace.trace_B": ("trace", ("trace_B",)),
    "trace.trace_B2": ("trace", ("trace_B2",)),
    "trace.closed_form_L": ("trace", ("closed_form_L",)),
    "symmetric.gap_series": ("symmetric", ("sym_gap_series_fixed", "sym_gap_series_scaled")),
    "reductions.verify_reduction": ("reductions", ("verify_reduction",)),
    "reductions.count_independent_sets": ("reductions", ("count_independent_sets",)),
    "reductions.count_faces": ("reductions", ("count_faces",)),
    "reductions.partial_plus_basis": ("reductions", ("partial_plus_basis",)),
    "reductions.poly_stack_rank": ("reductions", ("poly_stack_rank",)),
}

COUNTERS = (
    "exact.build_matrix.calls",
    "exact.matrix.rows",
    "exact.matrix.cols",
    "exact.matrix.nnz",
    "exact.sparse_int_rank.calls",
    "exact.rank.full",
    "trace.trace_B2.triples",
    "reductions.verify_reduction.calls",
)


def _count(counts: dict, layer: str, args: tuple, result) -> None:
    """Bump the exact work counters of one finished call."""
    if layer == "exact.build_matrix":
        counts["exact.build_matrix.calls"] += 1
        counts["exact.matrix.rows"] += result.nrows
        counts["exact.matrix.cols"] += result.ncols
        counts["exact.matrix.nnz"] += sum(len(row) for row in result.entries)
    elif layer == "exact.sparse_int_rank":
        rows = args[0]
        ncols = len({j for row in rows for j in row})
        counts["exact.sparse_int_rank.calls"] += 1
        counts["exact.rank.full"] += result == min(len(rows), ncols)
    elif layer == "trace.trace_B2":
        counts["trace.trace_B2.triples"] += len(args[0].terms) ** 3
    elif layer == "reductions.verify_reduction":
        counts["reductions.verify_reduction.calls"] += 1


class Tracer:
    """Records spans and counters while installed; restores everything on uninstall."""

    def __init__(self):
        self.names: list[str] = list(LAYERS)
        # (layer index, start, end, parent span index or -1, request id)
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.request = -1  # the request being sent, set by the client
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        index = self.names.index(layer)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append((index, 0.0, 0.0, parent, self.request))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans[frame[0]] = (index, start, end, parent, self.request)
                self.self_s[layer] += end - start - frame[1]
            _count(self.counts, layer, args, result)
            if stack:
                # The parent is charged neither for this call nor for its bookkeeping.
                stack[-1][1] += clock() - start
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pdrank"]
        for layer, (module, functions) in LAYERS.items():
            owner = sys.modules[f"pdrank.{module}"]
            for fname in functions:
                original = getattr(owner, fname)
                wrapper = self._wrap(layer, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, value))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._patched):
            setattr(m, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write the spans as JSON: layer names plus [layer, start, end, parent, request]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.names, "spans": self.spans}, fh)
