import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rvqr import classical_qr, cli, quantiles, solver, synth
from rvqr.errors import NonConvergenceError
from rvqr.measures import center_covariates, load_csv, make_rank_grid, write_csv

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
    doc = json.loads(Path(model).read_text())
    assert doc["report"]["converged"]
    printed = capsys.readouterr().out
    assert f"oracle calls      {doc['report']['oracle_calls']}" in printed
    assert f"backtracks        {doc['report']['backtracks']}" in printed
    assert f"cg products       {doc['report']['cg_products']}" in printed
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


def test_quantiles_default_radius_at_two_dimensions(tmp_path, capsys):
    # componentwise probes are not observed points; the default ball still
    # holds the ceil(J / 20) observations nearest to each
    data = str(tmp_path / "data2.csv")
    assert cli.main(["synth", "--out", data, "--dim", "2", "--n-cov", "2",
                     "--n-samples", "2000", "--seed", "7"]) == cli.EXIT_OK
    model = str(tmp_path / "model2.json")
    assert cli.main(["fit", "--data", data, "--x-cols", "x_1,x_2", "--y-cols",
                     "y_1,y_2", "--grid", "6", "--epsilon", "0.05",
                     "--out", model]) == cli.EXIT_OK
    table = str(tmp_path / "q.csv")
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--probes", "q10,q25,q50,q90", "--out", table])
    assert code == cli.EXIT_OK
    rows = np.loadtxt(table, delimiter=",", skiprows=1)
    assert rows.shape == (4 * 36, 6) and np.isfinite(rows).all()


def test_quantiles_default_radius_follows_u(tmp_path, capsys):
    # J = 5,000, grid 20, eps 0.1: the q10 and q90 curves rise with u and
    # stay near the synthetic truth (max interior error 0.26 at q50)
    data = str(tmp_path / "data.csv")
    assert cli.main(["synth", "--out", data, "--n-samples", "5000",
                     "--seed", "7"]) == cli.EXIT_OK
    code, model = _fit(tmp_path, data, grid=20, eps=0.1)
    assert code == cli.EXIT_OK
    table = str(tmp_path / "q.csv")
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--probes", "q10,q50,q90", "--out", table])
    assert code == cli.EXIT_OK
    rows = np.loadtxt(table, delimiter=",", skiprows=1).reshape(3, 20, 3)
    spec = synth.SynthSpec(n_samples=5000, seed=7)
    for p, (x, u, q) in enumerate(rows.transpose(0, 2, 1)):
        if p != 1:
            assert (np.diff(q) >= 0).all() and q[-1] - q[0] > 0.5
        truth = np.array([synth.true_quantile(spec, x[:1], u[i:i + 1])[0]
                          for i in range(1, 19)])
        assert np.abs(q[1:19] - truth).max() < 0.3


def test_fit_nonconvergence_exit_code_still_writes_model(tmp_path, capsys):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data, extra=("--max-iter", "2", "--tol", "1e-14"))
    assert code == cli.EXIT_NONCONV
    doc = json.loads(Path(model).read_text())
    assert doc["report"]["converged"] is False


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "nan"), ("--tol", "nan"), ("--epsilon", "inf")])
def test_non_finite_solver_flag_is_config_error(tmp_path, capsys, flag, value):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data, extra=(flag, value))
    assert code == cli.EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("extra, message", [
    (("--max-iter", "0"), "max_iter must be >= 1, got 0"),
    (("--y-cols", ""), "at least one response column is required")])
def test_bad_fit_flag_is_config_error(tmp_path, capsys, extra, message):
    # a later --y-cols overrides _fit's
    code, model = _fit(tmp_path, _synth(tmp_path), extra=extra)
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_import_loads_no_scipy_submodules():
    # scipy.special is for `rvqr check` alone; scipy.linalg for no command
    code = ("import sys, rvqr.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.special', "
            "'scipy.linalg'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True).stdout
    assert out.strip() == "[]"


def test_quantiles_loads_no_scipy_submodules(tmp_path, capsys):
    # the default radius is a partition of the probe's distances, not a KD-tree
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    script = (f"import sys; from rvqr import cli; rc = cli.main(['quantiles', "
              f"'--model', {model!r}, '--data', {data!r}, '--out', "
              f"{str(tmp_path / 'q.csv')!r}]); print(rc, sorted(m for m in sys.modules "
              f"if m.startswith(('scipy.spatial', 'scipy.special', 'scipy.linalg'))))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True).stdout
    assert out.splitlines()[-1] == "0 []"


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


def test_compare_qr_two_responses_is_config_error(tmp_path, capsys):
    data = str(tmp_path / "data2.csv")
    assert cli.main(["synth", "--out", data, "--n-samples", "60", "--dim", "2"]) == cli.EXIT_OK
    out = tmp_path / "cmp.csv"
    code = cli.main(["compare-qr", "--data", data, "--x-cols", "x_1",
                     "--y-cols", "y_1,y_2", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "compare-qr supports univariate responses only" in capsys.readouterr().err
    assert not out.exists()


def test_compare_qr_baseline_nonconvergence_writes_no_table(tmp_path, capsys, monkeypatch):
    def stalled(data, t_levels):
        raise NonConvergenceError("pivot cap reached")

    monkeypatch.setattr(cli.classical_qr, "fit_qr_curve", stalled)
    out = tmp_path / "cmp.csv"
    assert _compare_qr(tmp_path, "--out", str(out)) == cli.EXIT_NONCONV
    assert "pivot cap reached" in capsys.readouterr().err
    assert not out.exists()


def test_compare_qr_solves_its_epsilons_alone(tmp_path, capsys):
    # compare-qr has no --epsilon of its own: "--epsilon 0.3" abbreviates
    # --epsilons and is solved, not accepted and ignored
    data = _synth(tmp_path, n=300)
    out = tmp_path / "cmp.csv"
    code = cli.main(["compare-qr", "--data", data, "--x-cols", "x_1", "--y-cols", "y_1",
                     "--grid", "5", "--probes", "q30,q70", "--epsilon", "0.3",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert out.read_text().splitlines()[0] == "probe,eps_0.3"


def test_compare_qr_sorts_the_rows_once(tmp_path, capsys, monkeypatch):
    sorts = []
    real = quantiles.RowSort.of
    monkeypatch.setattr(quantiles.RowSort, "of", lambda X: sorts.append(X) or real(X))
    assert _compare_qr(tmp_path, "--epsilons", "1,0.5,0.1", "--mode", "softhard") == cli.EXIT_OK
    assert len(sorts) == 1


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


@pytest.mark.parametrize("mode", ["qr", "softhard"])
def test_compare_qr_matches_per_probe_reference(tmp_path, capsys, mode):
    # the table against compare-qr's definition, one probe at a time: each
    # probe's ball is the 5% quantile of its covariate distances
    path = _synth(tmp_path, n=300)
    out = tmp_path / "cmp.csv"
    code = cli.main(["compare-qr", "--data", path, "--x-cols", "x_1", "--y-cols", "y_1",
                     "--grid", "5", "--epsilons", "1,0.5", "--probes", "q30,q70",
                     "--mode", mode, "--out", str(out)])
    assert code == cli.EXIT_OK
    data = center_covariates(load_csv(path, ["x_1"], ["y_1"]))
    grid = make_rank_grid(1, 5)
    interior = np.arange(1, 4)
    x_raw = data.X[:, 0] + data.x_mean[0]
    probes = [classical_qr.empirical_quantile(x_raw, t) - data.x_mean[0] for t in (0.3, 0.7)]
    fits = classical_qr.fit_qr_curve(data, grid.U[interior, 0])
    rows = [["p1"], ["p2"]]
    for eps in (1.0, 0.5):
        _, coupling, _ = solver.solve(data, grid, solver.SolverConfig(epsilon=eps, tol=1e-7))
        model = quantiles.QuantileModel.from_fit(coupling, data, grid, eps)
        for row, x in zip(rows, probes):
            eta = float(np.quantile(np.abs(data.X[:, 0] - x), 0.05))
            soft = quantiles.ball_conditional_quantile(model, [x], eta, interior)[:, 0]
            if mode == "qr":
                ref, est = np.array([f.alpha + f.beta[0] * x for f in fits]), soft
            else:
                ref, est = soft, quantiles.ball_conditional_quantile(
                    model, [x], eta, interior, hard=True)[:, 0]
            row.append(f"{np.linalg.norm(ref - est) / np.linalg.norm(ref):.6g}")
    assert out.read_text() == "probe,eps_1,eps_0.5\n" + "".join(
        ",".join(r) + "\n" for r in rows)


@pytest.mark.parametrize("mode", ["qr", "softhard"])
def test_compare_qr_empty_probe_list_prints_header_only(tmp_path, capsys, mode):
    out = tmp_path / "cmp.csv"
    code = _compare_qr(tmp_path, "--epsilons", "1,0.5", "--mode", mode,
                       "--probes", ",", "--out", str(out))
    assert code == cli.EXIT_OK
    assert out.read_text() == "probe,eps_1,eps_0.5\n"
    assert capsys.readouterr().err == ""


def test_compare_qr_huge_probe_reads_finite(tmp_path, capsys):
    # at x = 1e200 the baseline's quantiles are ~1e200 and their squares
    # overflow; the soft readout is O(1), so each error is 1 to print precision
    out = tmp_path / "cmp.csv"
    code = _compare_qr(tmp_path, "--epsilons", "1,0.5", "--probes", "1e200,-1e200",
                       "--out", str(out))
    assert code == cli.EXIT_OK
    assert out.read_text() == "probe,eps_1,eps_0.5\np1,1,1\np2,1,1\n"


def test_compare_qr_grid_without_interior_node_is_config_error(tmp_path, capsys):
    code = _compare_qr(tmp_path, "--grid", "2", "--epsilons", "1")
    assert code == cli.EXIT_CONFIG
    assert "--grid" in capsys.readouterr().err


def _psi(doc):
    return np.frombuffer(base64.b64decode(doc["psi"]), "<f8").copy()


@pytest.mark.parametrize("damage", [
    "truncate", "drop_key", "psi_list", "psi_not_base64", "psi_12_bytes"])
def test_malformed_model_is_data_error(tmp_path, capsys, damage):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    text = Path(model).read_text()
    if damage == "truncate":
        text = text[:len(text) // 2]
    else:
        doc = json.loads(text)
        {
            "drop_key": lambda d: d.pop("x_names"),
            # the format of files written before psi was one binary block
            "psi_list": lambda d: d.update(psi=_psi(d).tolist()),
            "psi_not_base64": lambda d: d.update(psi=d["psi"][:8] + "*" + d["psi"][8:]),
            "psi_12_bytes": lambda d: d.update(psi=base64.b64encode(bytes(12)).decode()),
        }[damage](doc)
        text = json.dumps(doc)
    with open(model, "w") as fh:
        fh.write(text)
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--out", str(tmp_path / "q.csv")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert model in err
    if damage.startswith("psi"):
        assert "psi is not base64 of little-endian float64" in err and "refit" in err


def _nan_psi_entry(doc):
    psi = _psi(doc)
    psi[3] = float("nan")
    doc["psi"] = base64.b64encode(psi.astype("<f8").tobytes()).decode("ascii")


@pytest.mark.parametrize("damage, message", [
    (lambda d: d["b"].pop(), "b is 4 x 1 on a 5-node grid"),
    (lambda d: d["x_mean"].append(0.0), "2 covariate means"),
    (lambda d: d["x_names"].append("x_2"), "2 names"),
    (lambda d: d.update(epsilon=-1), "epsilon -1 is not"),
    (lambda d: d.update(epsilon=0), "epsilon 0 is not"),
    (lambda d: d.update(epsilon=float("nan")), "epsilon nan is not"),
    (lambda d: d.update(epsilon="0.5"), "epsilon '0.5' is not"),
    (lambda d: d["y_names"].append("y_2"), "2 response names"),
    (_nan_psi_entry, "psi holds a NaN or Inf"),
    (lambda d: d["b"][2].__setitem__(0, float("inf")), "b holds a NaN or Inf"),
    (lambda d: d.update(x_mean=[float("-inf")]), "x_mean holds a NaN or Inf"),
    (lambda d: d["grid"]["U"][0].__setitem__(2, float("nan")), "grid nodes must lie"),
    (lambda d: d["grid"]["mu"].__setitem__(2, float("nan")), "mu must be positive"),
], ids=["b_rows", "x_mean", "x_names", "eps_negative", "eps_zero", "eps_nan",
        "eps_string", "y_names", "psi_nan", "b_inf", "x_mean_inf", "grid_u_nan",
        "grid_mu_nan"])
def test_inconsistent_model_is_data_error(tmp_path, capsys, damage, message):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    doc = json.loads(Path(model).read_text())
    damage(doc)
    with open(model, "w") as fh:
        fh.write(json.dumps(doc))
    table = tmp_path / "q.csv"
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--out", str(table)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{model} is not a valid model file" in err and message in err
    assert not table.exists()


@pytest.mark.parametrize("eta", ["nan", "inf", "-1", "-inf"])
def test_bad_eta_is_config_error(tmp_path, capsys, eta):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    capsys.readouterr()
    table = tmp_path / "q.csv"
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     f"--eta={eta}", "--out", str(table)])
    assert code == cli.EXIT_CONFIG
    assert f"--eta: {float(eta)!r} is not a finite number >= 0" in capsys.readouterr().err
    assert not table.exists()
    assert _compare_qr(tmp_path, "--epsilons", "1", f"--eta={eta}") == cli.EXIT_CONFIG
    assert "--eta: " in capsys.readouterr().err


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
    bom.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
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


def test_quantiles_x_column_is_the_probe_asked_for(tmp_path, capsys):
    # each x cell reads back as its probe, bit for bit: a value as parsed, a
    # level as the empirical quantile of the column in the file. x = v**3
    # carries bits below those of its mean, which centering rounds away
    rng = np.random.default_rng(4)
    x = rng.uniform(size=120) ** 3
    data = str(tmp_path / "data.csv")
    write_csv(data, ["x_1", "y_1"], np.c_[x, x + rng.uniform(size=120)])
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    table = tmp_path / "q.csv"
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--probes", "1e-9,-0.3,0.1,q10,q90", "--out", str(table)])
    assert code == cli.EXIT_OK
    cells = [float(r.split(",")[0]) for r in table.read_text().splitlines()[1::5]]
    assert cells == [1e-9, -0.3, 0.1, classical_qr.empirical_quantile(x, 0.1),
                     classical_qr.empirical_quantile(x, 0.9)]


@pytest.mark.parametrize("command", ["quantiles", "compare-qr"])
def test_probe_list_starting_negative_needs_the_equals_form(tmp_path, capsys, command):
    # argparse reads "-0.5,0.5" after a space as a flag; after "=" it is the value
    data = _synth(tmp_path, n=300)
    if command == "quantiles":
        argv = ["quantiles", "--model", _fit(tmp_path, data)[1], "--data", data]
    else:
        argv = ["compare-qr", "--data", data, "--x-cols", "x_1", "--y-cols", "y_1",
                "--grid", "5", "--epsilons", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--probes", "-0.5,0.5", "--out", str(tmp_path / "t.csv")])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "argument --probes: expected one argument" in capsys.readouterr().err
    for probes, out in (("-0.5,0.5", "t.csv"), ("0.5,-0.5", "r.csv")):
        assert cli.main([*argv, f"--probes={probes}", "--out", str(tmp_path / out)]) == cli.EXIT_OK
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    flipped = (tmp_path / "r.csv").read_text().splitlines()[1:]
    if command == "quantiles":
        assert [float(r.split(",")[0]) for r in rows[::5]] == [-0.5, 0.5]
        assert rows == flipped[5:] + flipped[:5]
    else:
        assert [r.split(",")[1] for r in rows] == [r.split(",")[1] for r in flipped[::-1]]


def test_explicit_radius_at_a_huge_probe(tmp_path, capsys):
    # at x = 1e200 every squared distance overflows; a radius of 1e210 still
    # holds every row, and the readout is finite
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    table = str(tmp_path / "q.csv")
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--probes", "1e200", "--eta", "1e210", "--out", table])
    assert code == cli.EXIT_OK
    assert np.isfinite(np.loadtxt(table, delimiter=",", skiprows=1)).all()
    out = str(tmp_path / "cmp.csv")
    assert _compare_qr(tmp_path, "--epsilons", "1", "--probes", "1e200", "--eta", "1e210",
                       "--out", out) == cli.EXIT_OK
    # the baseline reads ~1e200 and the soft readout O(1): an error of 1
    assert Path(out).read_text() == "probe,eps_1\np1,1\n"


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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_capped_small_epsilon_fit_writes_finite_objective(tmp_path, capsys):
    data = _synth(tmp_path, n=200, seed=3)
    code, model = _fit(tmp_path, data, grid=10, eps=1e-4,
                       extra=("--max-iter", "1", "--tol", "1e-7"))
    assert code == cli.EXIT_NONCONV
    printed = capsys.readouterr().out
    line = next(s for s in printed.splitlines() if s.startswith("dual objective"))
    assert np.isfinite(float(line.split()[-1]))
    doc = json.loads(Path(model).read_text(), parse_constant=_reject_constant)
    assert np.isfinite(doc["report"]["objective"])


def _data_rows(path):
    with open(path) as fh:
        return fh.read().splitlines()[1:]


def test_quantiles_permuted_rows_are_config_error(tmp_path, capsys):
    # psi has one entry per row: a permutation keeps the shape and the
    # covariate mean but pairs psi with other observations
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    rows = _data_rows(data)
    permuted = tmp_path / "permuted.csv"
    permuted.write_text("x_1,y_1\n" + "\n".join(rows[::-1]) + "\n")
    table = tmp_path / "q.csv"
    code = cli.main(["quantiles", "--model", model, "--data", str(permuted),
                     "--out", str(table)])
    assert code == cli.EXIT_CONFIG
    assert "does not match the model" in capsys.readouterr().err
    assert not table.exists()


def test_quantiles_reads_the_fitted_values_in_another_form(tmp_path, capsys):
    # the checksum is of the values read: an extra column, another column
    # order, quotes, padding and CRLF line ends leave them as they were
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    lines = ["note,y_1,x_1"]
    for n, row in enumerate(_data_rows(data)):
        x, y = (float(v) for v in row.split(","))
        lines.append(f'row {n},"{y:.20e}", {x!r} ')
    other = tmp_path / "other.csv"
    other.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    table = tmp_path / "q.csv"
    code = cli.main(["quantiles", "--model", model, "--data", str(other),
                     "--out", str(table)])
    assert code == cli.EXIT_OK
    reference = tmp_path / "q_ref.csv"
    assert cli.main(["quantiles", "--model", model, "--data", data,
                     "--out", str(reference)]) == cli.EXIT_OK
    assert table.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("damage", [
    lambda d: d["data_meta"].pop("crc32"), lambda d: d.pop("data_meta"),
    lambda d: d.update(data_meta=["crc32"])], ids=["no_crc32", "no_data_meta", "list"])
def test_quantiles_model_without_checksum_is_config_error(tmp_path, capsys, damage):
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    doc = json.loads(Path(model).read_text())
    damage(doc)
    with open(model, "w") as fh:
        fh.write(json.dumps(doc))
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--out", str(tmp_path / "q.csv")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "does not match the model" in err and "refit" in err


@pytest.mark.parametrize("size", [119, 121])
def test_quantiles_psi_length_not_matching_rows_is_config_error(tmp_path, capsys, size):
    # psi cut or padded by one entry, with the checksum of the fitted CSV kept
    data = _synth(tmp_path)
    code, model = _fit(tmp_path, data)
    assert code == cli.EXIT_OK
    doc = json.loads(Path(model).read_text())
    psi = np.resize(_psi(doc), size)
    doc["psi"] = base64.b64encode(psi.astype("<f8").tobytes()).decode("ascii")
    with open(model, "w") as fh:
        fh.write(json.dumps(doc))
    table = tmp_path / "q.csv"
    code = cli.main(["quantiles", "--model", model, "--data", data,
                     "--out", str(table)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "does not match the model" in err and f"{size} psi entries for 120 rows" in err
    assert not table.exists()


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
    assert Path(a).read_text() == Path(b).read_text()


@pytest.mark.parametrize("flag", [["--x-law", "normal"], ["--a1", "-2"]])
def test_synth_law_flags_are_unknown(tmp_path, capsys, flag):
    # the law is fixed, so truth.json holds for every file synth writes
    out = tmp_path / "data.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--out", str(out), *flag])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compare_qr_table_shape(tmp_path, capsys):
    data = _synth(tmp_path, n=300)
    out = str(tmp_path / "cmp.csv")
    code = cli.main(["compare-qr", "--data", data, "--x-cols", "x_1",
                     "--y-cols", "y_1", "--grid", "5",
                     "--epsilons", "0.1,0.5", "--probes", "q30,q70",
                     "--tol", "1e-8", "--out", out])
    assert code == cli.EXIT_OK
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "probe,eps_0.1,eps_0.5"
    assert len(lines) == 3
    vals = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
    assert np.isfinite(vals).all() and (vals >= 0).all()


def _compare_qr_table(tmp_path, data, epsilons, *extra):
    """(exit code, header, P x E values) of compare-qr on a 5-node grid."""
    out = tmp_path / "cmp.csv"
    code = cli.main(["compare-qr", "--data", data, "--x-cols", "x_1",
                     "--y-cols", "y_1", "--grid", "5", "--epsilons", epsilons,
                     "--probes", "q30,q70", "--tol", "1e-8", *extra,
                     "--out", str(out)])
    head, *rows = out.read_text().strip().splitlines()
    return code, head, np.array([[float(v) for v in r.split(",")[1:]] for r in rows])


def test_compare_qr_nonconvergent_epsilon_keeps_other_columns(tmp_path, capsys):
    # eps 1 converges within 5 Newton steps (it takes 4); eps 0.001, warm
    # started from eps 1's solution, does not
    data = _synth(tmp_path, n=300)
    code, head, vals = _compare_qr_table(tmp_path, data, "1,0.001", "--max-iter", "5")
    assert code == cli.EXIT_NONCONV
    assert "eps 0.001" in capsys.readouterr().err
    assert head == "probe,eps_1,eps_0.001"
    assert vals.shape == (2, 2)
    assert np.isfinite(vals[:, 0]).all() and np.isnan(vals[:, 1]).all()


def test_compare_qr_failed_middle_epsilon_restarts_from_last_converged(
        tmp_path, capsys, monkeypatch):
    # eps 0.5 stalls (its Newton directions ascend); eps 0.1, solved after
    # it, starts from eps 1's solution as it would without eps 0.5 in the list
    data = _synth(tmp_path, n=300)
    _, _, ref = _compare_qr_table(tmp_path, data, "1,0.1")
    real = solver._newton_step
    monkeypatch.setattr(solver, "_newton_step", lambda sd, grad, r, eps: (
        grad if eps == 0.5 else real(sd, grad, r, eps)))
    code, head, vals = _compare_qr_table(tmp_path, data, "0.1,0.5,1")
    assert code == cli.EXIT_NONCONV
    assert "eps 0.5" in capsys.readouterr().err
    assert head == "probe,eps_0.1,eps_0.5,eps_1"
    assert np.isnan(vals[:, 1]).all() and np.isfinite(vals[:, [0, 2]]).all()
    np.testing.assert_array_equal(vals[:, [2, 0]], ref)


def test_compare_qr_column_order_does_not_change_cells(tmp_path, capsys):
    # the epsilons are solved largest first whatever their order on the
    # command line, so each column reads the same
    data = _synth(tmp_path, n=300)
    code, head, up = _compare_qr_table(tmp_path, data, "0.05,0.1,0.5,1")
    assert code == cli.EXIT_OK and head == "probe,eps_0.05,eps_0.1,eps_0.5,eps_1"
    code, head, down = _compare_qr_table(tmp_path, data, "1,0.5,0.1,0.05")
    assert code == cli.EXIT_OK and head == "probe,eps_1,eps_0.5,eps_0.1,eps_0.05"
    assert np.isfinite(up).all()
    np.testing.assert_array_equal(up, down[:, ::-1])


def test_check_command(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = cli.main(["check", "--seed", "0", "--out", out])
    assert code == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert "pass" in printed and "FAIL" not in printed
    doc = json.loads(Path(out).read_text())
    assert all(r["passed"] for r in doc.values())


def _strict_json(path):
    """The document at path; fails on NaN or Infinity."""
    def refuse(constant):
        raise AssertionError(f"{path} holds {constant}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


@pytest.mark.parametrize("max_iter, code", [("100", cli.EXIT_OK), ("1", cli.EXIT_NONCONV)])
def test_large_fit_reports_its_levels(tmp_path, capsys, monkeypatch, max_iter, code):
    # 120 rows on 5 nodes reach a COARSE_MIN_ENTRIES of 600: the fit starts
    # from the one on rows 0, 4, 8, ...; capped at one Newton step it exits
    # 2 with a strict-JSON model that quantiles reads
    monkeypatch.setattr(solver, "COARSE_MIN_ENTRIES", 600)
    data = _synth(tmp_path)
    got, model = _fit(tmp_path, data, extra=("--max-iter", max_iter))
    assert got == code
    doc = _strict_json(model)
    assert doc["report"]["levels"] == [30, 120]
    assert doc["report"]["converged"] is (code == cli.EXIT_OK)
    assert "levels (rows)     30, 120" in capsys.readouterr().out
    assert cli.main(["quantiles", "--model", model, "--data", data, "--probes",
                     "q25,q75", "--out", str(tmp_path / "q.csv")]) == cli.EXIT_OK


def test_overflowing_epsilon_is_config_error(tmp_path, capsys):
    # psi = eps (lse - log nu) overflows float64: exit 3, and no model
    data = _synth(tmp_path, n=5000)
    code, model = _fit(tmp_path, data, grid=20, eps=2e307)
    assert code == cli.EXIT_CONFIG
    assert "epsilon 2e+307" in capsys.readouterr().err
    assert not Path(model).exists()
    out = tmp_path / "cmp.csv"
    code = cli.main(["compare-qr", "--data", data, "--x-cols", "x_1", "--y-cols",
                     "y_1", "--grid", "5", "--epsilons", "0.5,1e308", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "epsilon 1e+308" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["tiny_eps", "subnormal_eps", "inf_spread", "huge_y"])
def test_fit_whose_ladder_would_overflow_is_config_error(tmp_path, case):
    # epsilon 4^k for the rungs of the epsilon ladder would pass the float64
    # range before it reaches LADDER_TOP times the spread of u.y: the solve
    # runs, its dual point is not finite, and the fit exits 3 with one
    # error line after numpy's warnings, writing no model
    data = tmp_path / "d.csv"
    eps, y = {"tiny_eps": ("1e-308", None), "subnormal_eps": ("5e-324", None),
              "inf_spread": ("0.1", [1e308, -1e308] * 3),
              "huge_y": ("1e-3", np.random.default_rng(4).standard_normal(30) * 1e306)}[case]
    if y is None:
        assert cli.main(["synth", "--out", str(data), "--n-samples", "200", "--seed", "3"]) == 0
    else:  # x_1 = 0, 1, 2, ...
        data.write_text("x_1,y_1\n" + "".join(f"{j},{float(v)!r}\n" for j, v in enumerate(y)))
    model = tmp_path / "model.json"
    run = subprocess.run([sys.executable, "-m", "rvqr.cli", "fit", "--data", str(data),
                          "--x-cols", "x_1", "--y-cols", "y_1", "--grid", "5",
                          "--epsilon", eps, "--out", str(model)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == cli.EXIT_CONFIG
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines()[-1].startswith("error: the dual point at epsilon")
    assert not model.exists()


@pytest.mark.parametrize("command", ["synth", "check"])
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    argv = ["--out", str(tmp_path / "out")]
    assert cli.main([command, "--seed", "-1", *argv]) == cli.EXIT_CONFIG
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# 10^15 entries: more bytes than any address space maps, so the allocation
# fails at once; 10^30 or (10^10)^2 nodes: more bytes than an array may index
@pytest.mark.parametrize("argv, message", [
    (["fit", "--y-cols", "y_1", "--grid", "1000000000000000"], "Unable to allocate"),
    (["fit", "--y-cols", "y_1", "--grid", str(10 ** 30)],
     f"grid of {10 ** 30}^1 nodes is too large for memory"),
    (["fit", "--y-cols", "y_1,y_2", "--grid", str(10 ** 10)],
     f"grid of {10 ** 10}^2 nodes is too large for memory"),
    (["compare-qr", "--y-cols", "y_1", "--grid", "1000000000000000"], "Unable to allocate"),
    (["compare-qr", "--y-cols", "y_1", "--grid", str(10 ** 30)], "too large for memory"),
    (["synth", "--n-samples", "1000000000000000"], "Unable to allocate"),
    (["synth", "--n-samples", str(10 ** 30)],
     f"{10 ** 30} rows of 2 columns are too large for memory")])
def test_size_too_large_for_memory_is_config_error(tmp_path, capsys, argv, message):
    if argv[0] != "synth":
        data = str(tmp_path / "data.csv")
        assert cli.main(["synth", "--out", data, "--n-samples", "50", "--dim", "2"]) == 0
        argv = [*argv, "--data", data, "--x-cols", "x_1"]
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_module_run_maps_a_failed_allocation_to_config_error(tmp_path):
    out = tmp_path / "data.csv"
    run = subprocess.run([sys.executable, "-m", "rvqr.cli", "synth", "--out", str(out),
                          "--n-samples", "1000000000000000"], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == cli.EXIT_CONFIG
    assert run.stderr.startswith("error: Unable to allocate") and run.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "d.csv", "--x-cols", "x_1", "--y-cols", "y_1,y_2", "--grid", "7",
     "--epsilon", "0.2", "--tol", "1e-8", "--max-iter", "9", "--out", "m.json"],
    ["quantiles", "--model", "m.json", "--data", "d.csv", "--probes=-0.5,q50",
     "--eta", "0.25", "--phi-mode", "hard", "--out", "q.csv"],
    ["compare-qr", "--data", "d.csv", "--x-cols", "x_1,x_2", "--y-cols", "y_1", "--grid", "9",
     "--epsilons", "1,0.5", "--probes", "q20", "--eta", "0.1", "--mode", "softhard",
     "--tol", "1e-6", "--max-iter", "50", "--out", "c.csv"],
    ["synth", "--out", "s.csv", "--n-samples", "300", "--seed", "4", "--dim", "2",
     "--n-cov", "3"],
    ["check", "--seed", "2", "--out", "c.json"],
])
def test_named_command_parser_reads_as_the_full_one(argv):
    assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv, code", [
    ([], cli.EXIT_CONFIG), (["-h"], cli.EXIT_OK), (["--help"], cli.EXIT_OK),
    (["bogus"], cli.EXIT_CONFIG),
    # the top parser's error, though only the check parser was built
    (["check", "--no-such-flag"], cli.EXIT_CONFIG)])
def test_usage_lists_every_command(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert "{" + ",".join(cli.COMMANDS) + "}" in out + err
    assert cli.COMMANDS == ("fit", "quantiles", "compare-qr", "synth", "check")
