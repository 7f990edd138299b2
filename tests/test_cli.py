import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rvqr import cli

SRC = str(Path(cli.__file__).resolve().parents[1])


def _synth(tmp_path, n=120, seed=5):
    out = str(tmp_path / "data.csv")
    code = cli.main(["synth", "--out", out, "--n-samples", str(n),
                     "--seed", str(seed)])
    assert code == cli.EXIT_OK
    return out


def _fit(tmp_path, data, grid=5, eps=0.5, extra=()):
    model = str(tmp_path / "model.json")
    code = cli.main(["fit", "--data", data, "--x-cols", "x_1", "--y-cols", "y_1",
                     "--grid", str(grid), "--epsilon", str(eps),
                     "--out", model, *extra])
    return code, model


def test_fit_quantiles_pipeline(tmp_path, capsys):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    doc = json.loads(open(model).read())
    assert doc["report"]["converged"]
    printed = capsys.readouterr().out
    assert f"oracle calls      {doc['report']['oracle_calls']}" in printed
    assert f"backtracks        {doc['report']['backtracks']}" in printed
    assert f"epsilon stages    {doc['report']['stages']}" in printed

    table = str(tmp_path / "q.csv")
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--probes", "q10,q30,q60,q90", "--out", table])
    assert code == cli.EXIT_OK
    rows = np.loadtxt(table, delimiter=",", skiprows=1)
    assert rows.shape == (4 * 5, 3)  # 4 probes x 5 rank nodes


def test_quantiles_hard_mode_reads_data_responses(tmp_path, capsys):
    # --phi-mode hard returns, per node, the response of largest weight
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    table = str(tmp_path / "q.csv")
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--probes", "q10,q50,q90", "--phi-mode", "hard", "--out", table])
    assert code == cli.EXIT_OK
    q = np.loadtxt(table, delimiter=",", skiprows=1)[:, 2]
    y = np.loadtxt(data, delimiter=",", skiprows=1, usecols=1)
    assert q.size == 3 * 5 and np.isin(q, y).all()


def test_fit_nonconvergence_exit_code_still_writes_model(tmp_path, capsys):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data, extra=("--max-iter", "2", "--tol", "1e-14"))
    assert code == cli.EXIT_NONCONV
    doc = json.loads(open(model).read())
    assert doc["report"]["converged"] is False


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "nan"), ("--tol", "nan"), ("--epsilon", "inf")])
def test_non_finite_solver_flag_is_config_error(tmp_path, capsys, flag, value):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data, extra=(flag, value))
    assert code == cli.EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_import_loads_no_scipy_submodules():
    # scipy.special is for `rvqr check` alone; scipy.linalg for no command
    code = ("import sys, rvqr.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.special', "
            "'scipy.linalg'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True).stdout
    assert out.strip() == "[]"


def test_missing_file_is_io_error(tmp_path, capsys):
    code, _ = _fit(tmp_path, str(tmp_path / "nope.csv"))
    assert code == cli.EXIT_IO


def test_bad_grid_is_config_error(tmp_path, capsys):
    data = _synth(tmp_path)
    code, _ = _fit(tmp_path, data, grid=1)
    assert code == cli.EXIT_CONFIG


def test_bad_flag_is_config_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--no-such-flag"])
    assert exc.value.code == cli.EXIT_CONFIG
    # the descent runs one way: its former mode flags are unknown
    fit = ["fit", "--data", "d.csv", "--x-cols", "x_1", "--y-cols", "y_1",
           "--out", "m.json"]
    for flag in (["--step-mode", "fixed"], ["--restart", "none"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(fit + flag)
        assert exc.value.code == cli.EXIT_CONFIG


@pytest.mark.parametrize("probes, bad", [
    ("qx", "'qx'"), ("1,abc", "'abc'"), ("q150", "'q150'")])
def test_bad_probe_is_config_error(tmp_path, capsys, probes, bad):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--probes", probes, "--out", str(tmp_path / "q.csv")])
    assert code == cli.EXIT_CONFIG
    assert bad in capsys.readouterr().err


def _compare_qr(tmp_path, *extra):
    data = _synth(tmp_path, n=300)
    return cli.main(["compare-qr", "--data", data, "--x-cols", "x_1",
                     "--y-cols", "y_1", "--probes", "q30,q70", *extra])


def test_compare_qr_bad_epsilon_is_config_error(tmp_path, capsys):
    assert _compare_qr(tmp_path, "--epsilons", "1,abc") == cli.EXIT_CONFIG
    assert "'abc'" in capsys.readouterr().err
    assert _compare_qr(tmp_path, "--epsilons", "1", "--tol", "nan") == cli.EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


def _compare_qr_two_covariates(tmp_path, column, *extra):
    # x_2 = 2 x_1 or x_2 = 3: the baseline pins x_2's slope with a warning
    rng = np.random.default_rng(2)
    x1 = rng.uniform(0, 1, 300)
    x2 = 2 * x1 if column == "collinear" else np.full(300, 3.0)
    y = x1 + rng.uniform(0, 1, 300)
    data = tmp_path / "d.csv"
    np.savetxt(data, np.c_[x1, x2, y], delimiter=",", header="x_1,x_2,y_1",
               comments="")
    return cli.main(["compare-qr", "--data", str(data), "--x-cols", "x_1,x_2",
                     "--y-cols", "y_1", "--epsilons", "1", "--probes", "q30,q70",
                     *extra])


@pytest.mark.parametrize("column", ["collinear", "constant"])
def test_compare_qr_rank_deficient_covariates(tmp_path, capsys, column):
    code = _compare_qr_two_covariates(tmp_path, column)
    assert code == cli.EXIT_OK
    out, err = capsys.readouterr()
    rows = out.splitlines()
    assert rows[0] == "probe,eps_1" and len(rows) == 3
    # one CLI warning line, not Python's warning with its source location
    warned = [line for line in err.splitlines() if "collinear" in line]
    assert len(warned) == 1 and warned[0].startswith("warning: covariate column(s)")
    assert ".py:" not in err


def test_compare_qr_softhard_skips_baseline(tmp_path, capsys):
    # softhard compares soft and hard readouts only; the baseline's rank
    # warning would be about a fit nothing reads
    code = _compare_qr_two_covariates(tmp_path, "collinear", "--mode", "softhard")
    assert code == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "probe,eps_1" and len(out.splitlines()) == 3
    assert "warning: covariate" not in err


def test_compare_qr_grid_without_interior_node_is_config_error(tmp_path, capsys):
    code = _compare_qr(tmp_path, "--grid", "2", "--epsilons", "1")
    assert code == cli.EXIT_CONFIG
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncate", "drop_key"])
def test_malformed_model_is_data_error(tmp_path, capsys, damage):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    text = open(model).read()
    if damage == "truncate":
        text = text[:len(text) // 2]
    else:
        doc = json.loads(text)
        del doc["x_names"]
        text = json.dumps(doc)
    with open(model, "w") as fh:
        fh.write(text)
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--out", str(tmp_path / "q.csv")])
    assert code == cli.EXIT_CONFIG
    assert model in capsys.readouterr().err


def test_missing_column_is_config_error(tmp_path, capsys):
    data = _synth(tmp_path)
    model = str(tmp_path / "m.json")
    code = cli.main(["fit", "--data", data, "--x-cols", "bogus",
                     "--y-cols", "y_1", "--out", model])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("content, message", [
    (b"a,b\n1,2\n3\n", "line 3: no value (the record has too few fields) in column 'b'"),
    (b"a,b\n1,2\n3,\xb04\n", "line 3: not UTF-8 text"),
    (b"a,b\n1,2\n3,1_000\n", "line 3: non-numeric or non-finite value '1_000' in column 'b'"),
], ids=["ragged", "not_utf8", "underscore"])
def test_bad_csv_is_data_error(tmp_path, capsys, content, message):
    data = tmp_path / "d.csv"
    data.write_bytes(content)
    model = tmp_path / "m.json"
    code = cli.main(["fit", "--data", str(data), "--x-cols", "a", "--y-cols", "b",
                     "--out", str(model)])
    assert code == cli.EXIT_CONFIG
    assert f"{data}, {message}" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("content, x_cols, y_cols, message", [
    (b"a,b,a\n1,2,3\n4,5,6\n", "a", "b", "'a' is ambiguous: 2 in the header, 1 in"),
    (b"a,b\n1,2\n3,4\n", "b", "b", "'b' is ambiguous: 1 in the header, 2 in"),
    (b"a,b\n1,2\n3,4\n", "a,a", "b", "'a' is ambiguous: 1 in the header, 2 in"),
], ids=["duplicate_header", "covariate_is_response", "covariate_twice"])
def test_ambiguous_column_is_data_error(tmp_path, capsys, content, x_cols, y_cols,
                                        message):
    data = tmp_path / "d.csv"
    data.write_bytes(content)
    model = tmp_path / "m.json"
    code = cli.main(["fit", "--data", str(data), "--x-cols", x_cols,
                     "--y-cols", y_cols, "--out", str(model)])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not model.exists()


def test_fit_reads_csv_with_byte_order_mark(tmp_path, capsys):
    plain = _synth(tmp_path)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + open(plain, "rb").read())
    code, model = _fit(tmp_path, str(bom))
    assert code == cli.EXIT_OK


def test_quantiles_probe_outside_range(tmp_path, capsys):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    table = str(tmp_path / "q.csv")
    # raw probe value far outside the covariate range with a tiny ball
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--probes", "50", "--eta", "0.01", "--out", table])
    assert code == cli.EXIT_CONFIG


def test_quantiles_data_not_matching_model_is_config_error(tmp_path, capsys):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    other = _synth(other_dir, n=60)
    code = cli.main(["quantiles", "--model", model, "--data", other,
                     "--out", str(tmp_path / "q.csv")])
    assert code == cli.EXIT_CONFIG
    assert "does not match the model" in capsys.readouterr().err


def test_fit_quantiles_without_covariates(tmp_path, capsys):
    data = tmp_path / "y.csv"
    data.write_text("y\n" + "\n".join(str(v) for v in range(1, 7)) + "\n")
    model = str(tmp_path / "m.json")
    code = cli.main(["fit", "--data", str(data), "--x-cols", "", "--y-cols", "y",
                     "--grid", "3", "--out", model])
    assert code == cli.EXIT_OK
    table = str(tmp_path / "q.csv")
    code = cli.main(["quantiles", "--model", model, "--data", str(data),
                     "--probes", "q50", "--out", table])
    assert code == cli.EXIT_OK
    rows = np.loadtxt(table, delimiter=",", skiprows=1)
    assert rows.shape == (3, 2)  # u_1, q_1 for each rank node
    assert np.all(np.diff(rows[:, 1]) > 0)


def test_synth_reproducible(tmp_path, capsys):
    a = _synth(tmp_path, seed=11)
    b_dir = tmp_path / "b"
    b_dir.mkdir()
    b = _synth(b_dir, seed=11)
    assert open(a).read() == open(b).read()


def test_compare_qr_table_shape(tmp_path, capsys):
    data = _synth(tmp_path, n=300)
    out = str(tmp_path / "cmp.csv")
    code = cli.main(["compare-qr", "--data", data, "--x-cols", "x_1",
                     "--y-cols", "y_1", "--grid", "5",
                     "--epsilons", "0.1,0.5", "--probes", "q30,q70",
                     "--tol", "1e-8", "--out", out])
    assert code == cli.EXIT_OK
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "probe,eps_0.1,eps_0.5"
    assert len(lines) == 3
    vals = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
    assert np.isfinite(vals).all() and (vals >= 0).all()


def test_compare_qr_nonconvergent_epsilon_keeps_other_columns(tmp_path, capsys):
    # eps 1 converges within 5 Newton steps (it takes 4), eps 0.01 does not
    # (it takes 7)
    data = _synth(tmp_path, n=300)
    out = str(tmp_path / "cmp.csv")
    code = cli.main(["compare-qr", "--data", data, "--x-cols", "x_1",
                     "--y-cols", "y_1", "--grid", "5",
                     "--epsilons", "1,0.01", "--probes", "q30,q70",
                     "--tol", "1e-8", "--max-iter", "5", "--out", out])
    assert code == cli.EXIT_NONCONV
    assert "eps 0.01" in capsys.readouterr().err
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "probe,eps_1,eps_0.01"
    vals = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
    assert vals.shape == (2, 2)
    assert np.isfinite(vals[:, 0]).all() and np.isnan(vals[:, 1]).all()


def test_check_command(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = cli.main(["check", "--seed", "0", "--out", out])
    assert code == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert "pass" in printed and "FAIL" not in printed
    doc = json.loads(open(out).read())
    assert all(r["passed"] for r in doc.values())
