"""Command-line behavior: outputs, files, exit codes."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cloneleak.classify import SweepConfig
from cloneleak.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text_output(capsys):
    code, out, err = run(capsys, "classify", "-d", "4", "-n", "3", "--subset", "S1,N2,N3")
    assert code == 0
    assert "verdict: partially_informative" in out
    assert "p=1, q=2, g=2" in out
    assert "(a=2, b=2)" in out
    assert err == ""


def test_classify_json_output(capsys):
    code, out, _ = run(capsys, "classify", "-d", "5", "-n", "2", "--subset", "S1,N2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "completely_uninformative"
    assert payload["maximally_mixed"] is True
    assert payload["g"] == 1
    assert payload["leak_terms"] == []


def test_classify_rejects_bad_labels(capsys):
    code, out, err = run(capsys, "classify", "-d", "3", "-n", "2", "--subset", "S9")
    assert code == 2
    assert "error:" in err


def test_classify_rejects_dimension_below_two(capsys):
    code, out, err = run(capsys, "classify", "-d", "1", "-n", "1", "--subset", "S1,N1")
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_reduce_oracle_and_analytic_agree(capsys):
    args = ("-d", "3", "-n", "2", "--subset", "S1,N2", "--seed", "5", "--json")
    code, out_oracle, _ = run(capsys, "reduce", *args, "--method", "oracle")
    assert code == 0
    code, out_analytic, _ = run(capsys, "reduce", *args, "--method", "analytic")
    assert code == 0
    a = json.loads(out_oracle)
    b = json.loads(out_analytic)
    assert a["labels"] == b["labels"] == ["S1", "N2"]
    ma = np.array(a["matrix"])
    mb = np.array(b["matrix"])
    assert np.max(np.abs(ma - mb)) < 1e-9


def test_reduce_analytic_keeps_the_subset_labels(capsys):
    args = ("-d", "3", "-n", "2", "--subset", "S2,N1")
    for method in ("analytic", "oracle"):
        code, out, _ = run(capsys, "reduce", *args, "--method", method)
        assert code == 0
        assert out.startswith(f"reduced state over (S2, N1), method={method}\n")


def test_reduce_with_explicit_state(capsys):
    code, out, _ = run(
        capsys,
        "reduce", "-d", "2", "-n", "1", "--subset", "N1",
        "--psi", "0.6,0.8j", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    mat = np.array([complex(re, im) for re, im in payload["matrix"]]).reshape(2, 2)
    assert_allclose(mat, np.eye(2) / 2, atol=1e-12)


def test_reduce_text_output(capsys):
    code, out, _ = run(capsys, "reduce", "-d", "2", "-n", "1", "--subset", "S1", "--psi", "1,0")
    assert code == 0
    assert "reduced state over (S1)" in out
    assert "trace: 1.0" in out


def test_reduce_analytic_refuses_authorized(capsys):
    code, out, err = run(
        capsys, "reduce", "-d", "2", "-n", "1", "--subset", "S1,N1", "--method", "analytic"
    )
    assert code == 2
    assert "no closed form" in err


def test_reduce_rejects_bad_psi(capsys):
    code, _, err = run(capsys, "reduce", "-d", "3", "-n", "1", "--subset", "S1", "--psi", "1,0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("psi", ["nan,1", "inf,1"])
def test_reduce_rejects_non_finite_psi(capsys, psi):
    code, out, err = run(capsys, "reduce", "-d", "2", "-n", "1", "--subset", "S1", "--psi", psi)
    assert code == 2
    assert out == ""
    assert err == f"error: amplitudes need a finite norm, got {psi!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "-d", "3", "-n", "2", "--subset", "S1,N2", "--seed", "-1"),
        ("sweep", "--dims", "2", "--ns", "1", "--seed", "-1"),
    ],
    ids=["reduce", "sweep"],
)
def test_negative_seed_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be non-negative, got -1\n"


def test_verify_agreeing_subset(capsys):
    code, out, _ = run(
        capsys, "verify", "-d", "6", "-n", "2", "--subset", "S1,N2", "--samples", "4"
    )
    assert code == 0
    assert "agreement: ok" in out
    assert "verdict: completely_uninformative" in out


def test_verify_leaky_subset(capsys):
    code, out, _ = run(
        capsys, "verify", "-d", "4", "-n", "3", "--subset", "S1,N2,N3", "--samples", "4"
    )
    assert code == 0
    assert "verdict: partially_informative" in out
    assert "closed form vs oracle" in out


def test_verify_exit_code_on_forced_mismatch(capsys):
    code, out, _ = run(
        capsys,
        "verify", "-d", "2", "-n", "1", "--subset", "S1,N1",
        "--samples", "4", "--witness", "5.0",
    )
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize(
    "flags",
    [
        ("--samples", "1"),
        ("--tol", "-1"),
        ("--witness", "0"),
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--witness", "inf"),
        ("--witness", "nan"),
    ],
    ids=["one-sample", "negative-tol", "zero-witness", "nan-tol", "inf-tol", "inf-witness", "nan-witness"],
)
def test_verify_rejects_replay_settings_the_sweep_rejects(capsys, flags):
    code, out, err = run(capsys, "verify", "-d", "2", "-n", "1", "--subset", "S1", *flags)
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_verify_reports_capacity_on_stderr(capsys):
    code, out, err = run(capsys, "verify", "-d", "7", "-n", "5", "--subset", "S1")
    assert code == 2
    assert out == ""
    assert err == "capacity: register size d^(2n+1) = 1977326743 exceeds limit 10000000\n"


def test_verify_reports_reduce_capacity_on_stderr(capsys):
    # 2^15 amplitudes encode fine; 13 kept qudits need an oracle side of 2^13
    labels = "S1,N1,S2,N2,S3,N3,S4,N4,S5,N5,S6,N6,S7"
    code, out, err = run(capsys, "verify", "-d", "2", "-n", "7", "--subset", labels, "--samples", "2")
    assert code == 2
    assert out == ""
    assert err == "capacity: kept side d^size = 8192 exceeds limit 4096\n"


def test_verify_labels_certified_bounds(capsys):
    code, out, _ = run(
        capsys, "verify", "-d", "4", "-n", "3", "--subset", "S1,N2,N3", "--samples", "4"
    )
    assert code == 0
    oracle = next(ln for ln in out.splitlines() if ln.startswith("oracle max"))
    closed = next(ln for ln in out.splitlines() if ln.startswith("closed form"))
    assert "bound" not in oracle  # input-dependent: the exact distance
    assert closed.endswith(" (certified bound)") and ": ≤ " in closed


def test_sweep_writes_reports(tmp_path, capsys):
    # the report directory need not exist yet
    jpath = tmp_path / "results" / "report.json"
    cpath = tmp_path / "results" / "report.csv"
    code, out, _ = run(
        capsys,
        "sweep", "--dims", "2,3", "--ns", "1", "--samples", "4", "--seed", "2",
        "--json", str(jpath), "--csv", str(cpath),
    )
    assert code == 0
    assert "0 mismatches" in out
    payload = json.loads(jpath.read_text())
    assert payload["all_agree"] is True
    assert len(payload["rows"]) == 4
    lines = cpath.read_text().splitlines()
    assert lines[0].startswith("d,n,subset,")
    assert len(lines) == 5


@pytest.mark.parametrize(
    "grid", [("--dims", ",", "--ns", "1"), ("--dims", "2", "--ns", "")], ids=["no-dims", "no-ns"]
)
def test_sweep_rejects_an_empty_grid(capsys, grid):
    code, out, err = run(capsys, "sweep", *grid)
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_sweep_rejects_subsets_outside_the_named_family(capsys):
    code, out, err = run(capsys, "sweep", "--dims", "2", "--ns", "1", "--subset", "S1")
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_sweep_named_family(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--dims", "4", "--ns", "3", "--family", "named",
        "--subset", "S1,N2,N3", "--subset", "S1,N1",
        "--samples", "4",
    )
    assert code == 0
    assert "partially_informative" in out
    assert "completely_uninformative" in out


def test_sweep_exit_code_on_mismatch(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--dims", "2", "--ns", "1", "--samples", "4", "--witness", "5.0",
    )
    assert code == 1
    assert "MISMATCH" in out


def test_sweep_table_is_deterministic(capsys):
    argv = ("sweep", "--dims", "2,3", "--ns", "1,2", "--samples", "4", "--seed", "9")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_parser_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("classify", "reduce", "verify", "sweep", "table"):
        assert name in text


def test_replay_defaults_are_sweep_config_defaults():
    config = SweepConfig(dims=(2,), ns=(1,))
    parser = build_parser()
    for argv in (
        ["verify", "-d", "2", "-n", "1", "--subset", "S1"],
        ["sweep", "--dims", "2", "--ns", "1"],
    ):
        args = parser.parse_args(argv)
        for name in ("samples", "seed", "tol", "witness"):
            value = getattr(args, name)
            assert (value, type(value)) == (getattr(config, name), type(getattr(config, name)))


def table_cells(out):
    """Leakage table as {d: {column: cell}}."""
    lines = out.splitlines()
    blank = lines.index("")
    header = lines[0].split()
    return {int(ln.split()[0]): dict(zip(header, ln.split())) for ln in lines[1:blank]}


def test_table_cells_stated_in_readme(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    cells = table_cells(out)
    # a lone kept clone (n=1, p=1) always leaks, with g = d
    assert all(row["n1p1"] == str(d) for d, row in cells.items())
    assert cells[9]["n3p2"] == "3"
    assert cells[4]["n3p1"] == "2"
    assert cells[5]["n3p1"] == "."
    assert "'.' means g=1" in out


def test_table_bounds_rows_and_columns(capsys):
    code, out, _ = run(capsys, "table", "--dmax", "7", "--nmax", "2")
    assert code == 0
    cells = table_cells(out)
    assert sorted(cells) == [2, 3, 4, 5, 6, 7]
    assert list(cells[2]) == ["d", "n1p0", "n1p1", "n2p0", "n2p1", "n2p2"]


@pytest.mark.parametrize(
    "flags",
    [("--dmax", "1"), ("--nmax", "0"), ("--nmax", "-2")],
    ids=["dmax-1", "nmax-0", "nmax-neg"],
)
def test_table_rejects_an_empty_grid(capsys, flags):
    code, out, err = run(capsys, "table", *flags)
    assert code == 2
    assert "error:" in err
    assert out == ""
