"""cloneleak benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src/``, nothing is installed.  Each run
starts fresh worker processes with the BLAS thread count pinned in their
environment.  With ``--trace 0`` it first starts PROBES set-up-only workers
and reports the median set-up time over those and the measuring worker; the
measuring worker then times whole passes of the workload for ``--seconds``
and reports the end-to-end metrics.  With ``--trace 1`` a single worker
times half the run untraced and half with every layer wrapped, and reports
the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the provenance, the workload's configuration and any failures.  The
same report, and for traced runs the span log, is written to
``perfbench/out/``.  The exit status is 0 only when every output checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = 1
PROBES = 4
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cloneleak").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _worker(args, deadline: float, probe: bool = False) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if probe:
        cmd.append("--probe")
    elif args.trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")]
    started = time.monotonic()
    done = subprocess.run(
        cmd + ["--started-at", repr(started)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=max(1.0, deadline - started),
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {done.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    # BENCHMARK.json declares the workloads and every metric's name and unit.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="cloneleak benchmark")
    parser.add_argument(
        "--workload", choices=[w["name"] for w in bench["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "cloneleak" / "__init__.py").is_file():
        return _fail(f"no cloneleak package under {SRC}; run from a checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if BLAS_THREADS > _nproc():
        return _fail(f"BLAS thread count {BLAS_THREADS} exceeds nproc {_nproc()}")

    try:
        probes = [] if args.trace else [_worker(args, deadline, probe=True) for _ in range(PROBES)]
        result = _worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return _fail(str(exc))

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values = result["layers"]
    else:
        setups = [p["setup_s"] for p in probes] + [result["setup_s"]]
        values = dict(result, setup_s=statistics.median(setups))
        values["success_ratio"] = 1 - failed / attempted
    declared = bench["per_layer" if args.trace else "end_to_end"]
    correct = failed == 0 and attempted > 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": dict(
            result["provenance"],
            git_commit=_git_commit(),
            src_sha256=_source_digest(),
            blas_threads=BLAS_THREADS,
            nproc=_nproc(),
        ),
        "config": result["config"],
        "samples": {
            key: result[key] for key in ("passes", "pass_wall_s", "op_samples") if key in result
        },
        "setup_s_samples": None if args.trace else setups,
        "failed_ratio": failed / attempted,
        "failures": result["failures"],
    }
    final = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(dict(report, result=final), fh, indent=2)
    print(json.dumps(report))
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
