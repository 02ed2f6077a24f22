"""Command-line front end: classify, reduce, verify, sweep, table."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .classify import SweepConfig, analytic_reduced, classify_subset, run_sweep
from .modnum import system_gcd
from .pauli import PureState, random_states
from .protocol import CapacityError, RegisterSubset, oracle_reduced


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_psi(text: str, d: int) -> PureState:
    amps = np.array([complex(tok.strip()) for tok in text.split(",")], dtype=complex)
    if amps.shape != (d,):
        raise ValueError(f"expected {d} amplitudes, got {amps.size}")
    norm = np.linalg.norm(amps)
    if not np.isfinite(norm):
        raise ValueError(f"amplitudes need a finite norm, got {text!r}")
    if norm == 0:
        raise ValueError("zero vector is not a state")
    return PureState(d, amps / norm)


def _state_from_args(args: argparse.Namespace) -> PureState:
    if args.psi is not None:
        return _parse_psi(args.psi, args.d)
    return random_states(args.d, 1, args.seed)[0]


def cmd_classify(args: argparse.Namespace) -> int:
    subset = RegisterSubset.from_labels(args.subset, args.n)
    cls = classify_subset(args.d, subset)
    if args.json:
        payload = {
            "d": args.d,
            "n": args.n,
            "subset": str(subset),
            "verdict": cls.verdict,
            "authorized": cls.authorized,
            "maximally_mixed": cls.maximally_mixed,
            "g": cls.g,
            "leak_terms": [t.to_dict() for t in cls.leak],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"subset {subset} of a d={args.d}, n={args.n} register")
    print(f"verdict: {cls.verdict}")
    print(f"authorized: {'yes' if cls.authorized else 'no'}")
    print(f"maximally mixed: {'yes' if cls.maximally_mixed else 'no'}")
    if cls.g is not None:
        print(f"aligned shape: p={cls.p}, q={cls.q}, g={cls.g}")
    for term in cls.leak:
        print(
            f"leak: (a={term.a}, b={term.b}) "
            f"coefficient exp(i*pi*{term.phase_exponent}/{term.d})"
        )
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    subset = RegisterSubset.from_labels(args.subset, args.n)
    psi = _state_from_args(args)
    if args.method == "oracle":
        state = oracle_reduced(psi, args.d, args.n, subset)
    else:
        state = analytic_reduced(args.d, subset, psi)
        if state is None:
            print(
                "no closed form: authorized subsets determine the input state",
                file=sys.stderr,
            )
            return 2
    if args.json:
        print(json.dumps(state.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"reduced state over ({', '.join(state.labels)}), method={args.method}")
    print(np.array2string(state.matrix, precision=6, suppress_small=True))
    print(f"trace: {np.trace(state.matrix).real:.12f}  purity: {state.purity():.12f}")
    return 0


def _sweep_config(args: argparse.Namespace, **grid) -> SweepConfig:
    """The grid given, replayed with the ``--samples --seed --tol --witness`` flags."""
    return SweepConfig(
        **grid,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
        witness=args.witness,
    )


def _distance(value: float, bound: bool) -> str:
    return f"≤ {value:.3e} (certified bound)" if bound else f"{value:.3e}"


def cmd_verify(args: argparse.Namespace) -> int:
    config = _sweep_config(
        args, dims=(args.d,), ns=(args.n,), family="named", subsets=(args.subset,)
    )
    (row,) = run_sweep(config).rows
    if row.oracle_max_distance is None:  # skipped: too large to encode or reduce
        print(row.note, file=sys.stderr)
        return 2
    print(f"subset {row.subset} of a d={row.d}, n={row.n} register")
    print(f"verdict: {row.verdict} (authorized={row.authorized}, g={row.g})")
    oracle_max = _distance(row.oracle_max_distance, row.oracle_max_bound)
    print(f"oracle max pairwise distance over {args.samples} inputs: {oracle_max}")
    if row.analytic_oracle_distance is not None:
        analytic = _distance(row.analytic_oracle_distance, row.analytic_bound)
        print(f"closed form vs oracle, worst distance: {analytic}")
    print(f"agreement: {'ok' if row.agree else 'MISMATCH'}")
    if row.note:
        print(f"note: {row.note}")
    return 0 if row.agree else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    report = run_sweep(
        _sweep_config(
            args, dims=args.dims, ns=args.ns, family=args.family, subsets=args.subset or ()
        )
    )
    print(report.to_table())
    print(report.summary())
    if args.json:
        _write_report(args.json, report.to_json() + "\n")
    if args.csv:
        _write_report(args.csv, report.to_csv())
    return 0 if report.all_agree else 1


def cmd_table(args: argparse.Namespace) -> int:
    if args.dmax < 2 or args.nmax < 1:
        raise ValueError(f"need --dmax >= 2 and --nmax >= 1, got {args.dmax} and {args.nmax}")
    cells = [(n, p) for n in range(1, args.nmax + 1) for p in range(n + 1)]
    header = ["d"] + [f"n{n}p{p}" for n, p in cells]
    widths = [max(4, len(h)) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for d in range(2, args.dmax + 1):
        gs = [system_gcd(d, p, n - p) for n, p in cells]
        row = [str(d)] + ["." if g == 1 else str(g) for g in gs]
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    print()
    print("cell value: solution count g of the aligned system; '.' means g=1,")
    print("the subset is completely uninformative; g>1 words leak through")
    return 0


def _write_report(path: str, text: str) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _add_register_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-d", type=int, required=True, help="local dimension of each qudit")
    sub.add_argument("-n", type=int, required=True, help="number of signal/noise pairs")
    sub.add_argument(
        "--subset",
        required=True,
        help="kept qudits, comma-separated labels like S1,N2",
    )


def _add_replay_args(sub: argparse.ArgumentParser) -> None:
    for field in fields(SweepConfig):
        if field.name in ("samples", "seed", "tol", "witness"):
            sub.add_argument(f"--{field.name}", type=type(field.default), default=field.default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloneleak",
        description=(
            "Classify what subsets of an encrypted-cloning storage register "
            "reveal about the input state, and cross-check the closed forms "
            "against brute-force reduced states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cls = sub.add_parser("classify", help="arithmetic verdict for one subset")
    _add_register_args(cls)
    cls.add_argument("--json", action="store_true", help="print JSON instead of text")
    cls.set_defaults(func=cmd_classify)

    red = sub.add_parser("reduce", help="print a reduced density matrix")
    _add_register_args(red)
    red.add_argument(
        "--method",
        choices=("oracle", "analytic"),
        default="oracle",
        help="statevector contraction or the closed form",
    )
    red.add_argument("--psi", help="input amplitudes, comma-separated complex numbers")
    red.add_argument("--seed", type=int, default=0, help="seed for a random input state")
    red.add_argument("--json", action="store_true", help="print JSON instead of text")
    red.set_defaults(func=cmd_reduce)

    ver = sub.add_parser("verify", help="replay one subset's verdict against the oracle")
    _add_register_args(ver)
    _add_replay_args(ver)
    ver.set_defaults(func=cmd_verify)

    swp = sub.add_parser("sweep", help="replay a whole grid and report agreement")
    swp.add_argument("--dims", type=_int_list, required=True, help="e.g. 2,3,4")
    swp.add_argument("--ns", type=_int_list, required=True, help="e.g. 1,2,3")
    swp.add_argument(
        "--family",
        choices=("aligned", "all", "named"),
        default="aligned",
        help="which subsets to visit per register shape",
    )
    swp.add_argument(
        "--subset",
        action="append",
        help="subset labels for --family named; repeatable",
    )
    _add_replay_args(swp)
    swp.add_argument("--json", metavar="PATH", help="write the report as JSON")
    swp.add_argument("--csv", metavar="PATH", help="write the report as CSV")
    swp.set_defaults(func=cmd_sweep)

    tab = sub.add_parser("table", help="map of the aligned-subset leak count g over (d, n, p)")
    tab.add_argument("--dmax", type=int, default=12, help="largest dimension (from 2)")
    tab.add_argument("--nmax", type=int, default=5, help="largest pair count")
    tab.set_defaults(func=cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
