"""Layer spans for cloneleak, recorded from outside the package.

Each traced function is replaced, on every ``cloneleak`` module attribute
that refers to it, by a wrapper that records a span (name, start, end,
parent).  Callers inside the package look functions up through their own
module's namespace (``classify`` does ``from .protocol import encode``), so
patching only the defining module would miss most calls.  Methods are
patched on their class.

Self time is a span's duration minus the time its direct children cover.
It is accumulated as spans close, so a long run needs no span log; the log
itself is kept only while ``keep_spans`` is set.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Traced functions as "<module>.<attribute path>", grouped by layer: the
# public functions each layer's work goes through, and the entry points the
# workloads call (run_sweep, oracle_reduced, analytic_reduced), so that no
# layer's time is charged to its caller.
TRACED = (
    "modnum.solve_aligned_system",
    "modnum.system_gcd",
    "pauli.PauliWord.matrix",
    "pauli.expectation",
    "pauli.random_states",
    "protocol.encode",
    "protocol.reduce_encoded",
    "protocol.oracle_reduced",
    "protocol.partial_trace",
    "protocol.permute_subsystems",
    "analytic.aligned_reduced",
    "analytic.missing_pair_reduced",
    "analytic.missing_pair_subset_reduced",
    "analytic.leaked_words",
    "classify.trace_distance",
    "classify.classify_subset",
    "classify.evaluate_subset",
    "classify.analytic_reduced",
    "classify.maximally_mixed",
    "classify.run_sweep",
)
LAYERS = ("modnum", "pauli", "protocol", "analytic", "classify")


def _encode_amplitudes(psi, d, n):
    return d ** (2 * n + 1)


def _reduce_flops(vec, d, n, subset):
    # The kept qudits become rows of a d^k x d^(2n+1-k) matrix m, and
    # m @ m^H costs d^(2n+1+k) complex multiply-adds of 8 real flops each.
    return 8 * d ** (2 * n + 1 + subset.size)


def _side_cubed(first, second):
    return getattr(first, "matrix", first).shape[0] ** 3


# Kernel counts computed from each call's arguments, not measured.  They
# repeat exactly for a given workload and seed.
COUNTERS = {
    "protocol.encode": ("amplitudes", _encode_amplitudes),
    "protocol.reduce_encoded": ("flops", _reduce_flops),
    "classify.trace_distance": ("side3_sum", _side_cubed),
}


class Tracer:
    """Wraps the TRACED functions and accumulates calls, self time and counts."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.keep_spans = True
        self.op = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.self_s[name] += end - start - frame[1]
                self.calls[name] += 1
                if counter is not None:
                    self.counts[f"{name}.{counter[0]}"] += counter[1](*args, **kwargs)
                if self.keep_spans:
                    self.spans.append((span_id, name, start, end, parent, self.op))

        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in sys.modules.items()
            if mod is not None and (key == "cloneleak" or key.startswith("cloneleak."))
        ]
        for name in TRACED:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"cloneleak.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name, original)
            if len(path) > 1:
                self._patch(owner, path[-1], wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def span_log(self) -> dict:
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "spans": [[s[0], index[s[1]], s[2], s[3], s[4], s[5]] for s in self.spans],
        }
