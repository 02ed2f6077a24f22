"""One benchmark process: set up a workload, time it, check its outputs.

Started by ``run.py`` with the BLAS thread count already pinned in the
environment, so numpy is imported here and never in the launcher.  Prints
one JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --started-at T [--probe] [--spans PATH]

``--started-at`` is the launcher's ``time.monotonic()`` just before it
started this process; the monotonic clock is system-wide on Linux, so the
difference to this process's reading is the time since process start.
With ``--probe`` the worker stops after set-up and reports only that time.
"""

from __future__ import annotations

import argparse
import gzip
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

import cloneleak as cl
from cloneleak import classify
from cloneleak.protocol import BOTH, NOISE, NONE, SIGNAL

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import COUNTERS, LAYERS, TRACED, Tracer  # noqa: E402

TOL = 1e-9  # the sweep's default agreement tolerance, reused for oracle-reduce


class Ops:
    """Latency of each operation; tags trace spans with the operation's number.

    Latencies are kept as float32 so that the memory they take, which grows
    with the number of operations a run completes, stays small beside the
    workload's own footprint in ``peak_rss_mb``.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.latencies = array("f")
        self.tracer = tracer

    def done(self, start: float) -> float:
        end = time.perf_counter()
        self.latencies.append(end - start)
        if self.tracer is not None:
            self.tracer.op = len(self.latencies)
        return end


class AlignedGrid:
    """``run_sweep`` over aligned subsets, d 2..6 x n 1..3, 10 samples: 45 rows.

    An operation is one sweep row.  Row latency is the time between
    consecutive row completions, as a consumer of a row stream would see it; the first row of a pass is timed
    from the start of the pass, so a shape's encoding counts toward its
    first row.  The clock wraps ``classify.evaluate_subset`` for the length
    of one pass, on top of the tracer if one is installed.
    """

    ROWS = 45

    def __init__(self, seed: int) -> None:
        self.sweep = cl.SweepConfig(dims=range(2, 7), ns=range(1, 4), samples=10, seed=seed)
        cl.run_sweep(cl.SweepConfig(dims=(2,), ns=(1,), samples=10, seed=seed))

    def config(self) -> dict:
        return {"op": "sweep row", "rows_per_pass": self.ROWS, "sweep": self.sweep.to_dict()}

    def run_pass(self, index: int, ops: Ops) -> list:
        last = time.perf_counter()
        inner = classify.evaluate_subset

        def clocked(*args, **kwargs):
            nonlocal last
            row = inner(*args, **kwargs)
            last = ops.done(last)
            return row

        classify.evaluate_subset = clocked
        try:
            report = classify.run_sweep(self.sweep)
        except Exception as exc:  # a failed sweep fails every row of the pass
            return [exc] * self.ROWS
        finally:
            classify.evaluate_subset = inner
        return list(report.rows)

    def check(self, outputs: list) -> list[str]:
        failures = [f"{out!r}" for out in outputs if isinstance(out, Exception)]
        rows = [out for out in outputs if not isinstance(out, Exception)]
        if rows and len(rows) != self.ROWS:
            failures.append(f"expected {self.ROWS} rows, got {len(rows)}")
        for row in rows:
            if not row.agree or row.note.startswith("capacity"):
                failures.append(f"d={row.d} n={row.n} {row.subset}: {row.note}")
        return failures


class OracleReduce:
    """Single-subset requests served like ``cloneleak reduce``.

    Each request computes the oracle state and then the closed form of the
    same input.  A pass is 28 requests: four aligned ones per shape, and one
    for each missing-pair variant (one pair missing, with or without a
    complete pair kept) per missing-pair shape.  Those closed forms build a
    d^(2(n-1)) dense mixture, so they are asked only where its side is at
    most 1296 (27 MB); at (7,3) and (4,4) it would take 92 MB and 268 MB per
    request.  The kinds come in a fixed order and the seed picks each
    request's subset placement and input state, so the cost of a pass, the
    kinds the latency percentiles fall on and the allocation pattern behind
    ``peak_rss_mb`` are the same for every seed.
    """

    SHAPES = ((7, 3), (6, 3), (5, 3), (4, 4), (3, 5), (2, 8))
    MISSING_PAIR_SHAPES = ((6, 3), (5, 3))
    PASSES = 8

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        kinds = [("aligned", d, n) for d, n in self.SHAPES] * 4
        kinds += [(kind, d, n) for d, n in self.MISSING_PAIR_SHAPES for kind in ("full_pair", "lone")]
        self.passes = []
        for _ in range(self.PASSES):
            self.passes.append([self._request(rng, *kind) for kind in kinds])
        for psi, d, n, subset in self.passes[0]:
            if (d, n) == (5, 3):
                cl.oracle_reduced(psi, d, n, subset)
                cl.analytic_reduced(d, subset, psi)

    @staticmethod
    def _request(rng, kind: str, d: int, n: int):
        members = [SIGNAL if rng.integers(2) else NOISE for _ in range(n)]
        if kind != "aligned":
            gone, full = rng.choice(n, size=2, replace=False)
            members[gone] = NONE
            if kind == "full_pair":
                members[full] = BOTH
        labels = str(cl.RegisterSubset(tuple(members))).split(",")
        rng.shuffle(labels)
        subset = cl.RegisterSubset.from_labels(",".join(labels), n)
        psi = cl.random_states(d, 1, int(rng.integers(2**31)))[0]
        return psi, d, n, subset

    def config(self) -> dict:
        return {
            "op": "reduce request (oracle_reduced, then analytic_reduced)",
            "aligned_shapes": [list(s) for s in self.SHAPES],
            "aligned_requests_per_shape": 4,
            "missing_pair_shapes": [list(s) for s in self.MISSING_PAIR_SHAPES],
            "missing_pair_variants": ["full_pair", "lone"],
            "requests_per_pass": len(self.passes[0]),
            "passes_generated": self.PASSES,
            "tol": TOL,
        }

    def run_pass(self, index: int, ops: Ops) -> list:
        outputs = []
        for psi, d, n, subset in self.passes[index % self.PASSES]:
            start = time.perf_counter()
            try:
                out = (cl.oracle_reduced(psi, d, n, subset), cl.analytic_reduced(d, subset, psi))
            except Exception as exc:
                out = exc
            ops.done(start)
            outputs.append((d, n, subset, out))
        return outputs

    def check(self, outputs: list) -> list[str]:
        failures = []
        for d, n, subset, out in outputs:
            if isinstance(out, Exception):
                failures.append(f"d={d} n={n} {subset}: {out!r}")
                continue
            oracle, closed = out
            if closed is None or closed.matrix.shape != oracle.matrix.shape:
                failures.append(f"d={d} n={n} {subset}: no comparable closed form")
                continue
            gap = float(np.linalg.norm(oracle.matrix - closed.matrix))
            if not gap <= TOL:
                failures.append(f"d={d} n={n} {subset}: Frobenius gap {gap:.3e}")
        return failures


WORKLOADS = {"aligned-grid": AlignedGrid, "oracle-reduce": OracleReduce}


def _measure(workload, seconds: float, first_index: int, ops: Ops):
    """Run passes for ``seconds``: at least one, and no further pass once
    the mean pass so far would end past the limit.

    Outputs are checked between passes, outside the pass timings.  Only the
    first traced pass keeps its span log.
    """
    walls, cpus, attempted, failures = [], [], 0, []
    index = first_index
    began = time.perf_counter()
    while not walls or time.perf_counter() - began + sum(walls) / len(walls) <= seconds:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outputs = workload.run_pass(index, ops)
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        if ops.tracer is not None:
            ops.tracer.keep_spans = False
        attempted += len(outputs)
        failures += workload.check(outputs)
        index += 1
    return walls, cpus, attempted, failures


def _provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cloneleak_version": cl.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _layer_metrics(tracer: Tracer, walls: list, untraced: list, ops: int) -> dict:
    """Per-pass layer figures, named as in BENCHMARK.json's ``per_layer``."""
    passes = len(walls)
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = tracer.calls[name] / passes
        metrics[f"{name}.self_s"] = tracer.self_s[name] / passes
    for layer in LAYERS:
        total = sum(v for k, v in tracer.self_s.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = total / passes
    for name, (count, _) in COUNTERS.items():
        metrics[f"{name}.{count}"] = tracer.counts[f"{name}.{count}"] / passes
    metrics["classify.trace_distance.calls_per_row"] = tracer.calls["classify.trace_distance"] / ops
    metrics["trace.pass_s"] = statistics.mean(walls)
    metrics["trace.outside_s"] = (sum(walls) - sum(tracer.self_s.values())) / passes
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started-at", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.started_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "config": workload.config(), "provenance": _provenance()}
    if args.trace:
        untraced, _, attempted, failures = _measure(workload, args.seconds / 2, 0, Ops())
        tracer = Tracer()
        tracer.install()
        try:
            walls, _, traced_ops, traced_failures = _measure(
                workload, args.seconds / 2, len(untraced), Ops(tracer)
            )
        finally:
            tracer.uninstall()
        failures += traced_failures
        attempted += traced_ops
        result["layers"] = _layer_metrics(tracer, walls, untraced, traced_ops)
        result["passes"] = {"untraced": len(untraced), "traced": len(walls)}
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with gzip.open(args.spans, "wt", encoding="utf-8") as fh:
                json.dump(tracer.span_log(), fh)
    else:
        ops = Ops()
        walls, cpus, attempted, failures = _measure(workload, args.seconds, 0, ops)
        p50, p90 = np.percentile(np.frombuffer(ops.latencies, dtype=np.float32), [50, 90])
        result.update(
            wall_s=statistics.median(walls),
            cpu_s=statistics.median(cpus),
            ops_per_s=attempted / sum(walls),
            op_p50_ms=1e3 * p50,
            op_p90_ms=1e3 * p90,
            passes=len(walls),
            pass_wall_s=walls,
            op_samples=len(ops.latencies),
        )
    result.update(
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
