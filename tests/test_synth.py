import json
from dataclasses import fields, replace

import numpy as np
import pytest

from rvqr import measures, synth
from rvqr.errors import ConfigError


def test_generate_shapes_and_reproducibility():
    spec = synth.SynthSpec(n_samples=50, seed=3)
    d1, u1 = synth.generate(spec)
    d2, u2 = synth.generate(spec)
    assert d1.X.shape == (50, 1) and d1.Y.shape == (50, 1)
    np.testing.assert_array_equal(d1.Y, d2.Y)
    np.testing.assert_array_equal(u1, u2)
    d3, _ = synth.generate(synth.SynthSpec(n_samples=50, seed=4))
    assert not np.array_equal(d1.Y, d3.Y)


def test_generated_data_matches_structural_equation():
    data, U = synth.generate(synth.SynthSpec(n_samples=30, seed=1))
    assert data.X.min() >= 0.0 and data.X.max() <= 1.0
    np.testing.assert_array_equal(data.Y, U + (1.0 + U) * data.X)


def test_true_quantile_defaults():
    spec = synth.SynthSpec()
    # Q(x, t) = t + (1 + t) x with the default coefficients
    q = synth.true_quantile(spec, [0.5], [0.2])
    assert q[0] == pytest.approx(0.2 + 1.2 * 0.5)


def test_multivariate_weights():
    # every response loads on x . (1, 1/2, ..., 1/2)
    assert synth.SynthSpec(d=2, n_cov=3).weights == ((1.0, 0.5, 0.5),) * 2
    assert synth.SynthSpec(n_cov=0).weights == ((),)
    spec = synth.SynthSpec(n_samples=10, d=2, n_cov=2)
    data, U = synth.generate(spec)
    assert data.Y.shape == (10, 2)
    proj = data.X[:, :1] + 0.5 * data.X[:, 1:]
    np.testing.assert_array_equal(data.Y, U + (1.0 + U) * proj)


def test_rejects_bad_shape_and_law():
    for shape in ({"n_samples": 0}, {"d": 0}, {"n_cov": -1}):
        with pytest.raises(ConfigError, match="shape"):
            synth.SynthSpec(**shape)
    # 10^18 rows of two float64 columns: more bytes than an array may index
    with pytest.raises(ConfigError, match=f"{10 ** 18} rows of 2 columns are too large"):
        synth.SynthSpec(n_samples=10 ** 18)
    # the law is fixed: the spec has no field that changes it
    assert [f.name for f in fields(synth.SynthSpec)] == ["n_samples", "seed", "d", "n_cov"]
    for law in ({"x_law": "normal"}, {"a1": -2.0}, {"weights": ((1.0,),)}):
        with pytest.raises(TypeError):
            synth.SynthSpec(**law)


@pytest.mark.parametrize("d, n_cov, n, half, probes", [
    (1, 1, 400_000, 0.01, [[0.1], [0.5], [0.9]]),
    (2, 2, 1_000_000, 0.03, [[0.2, 0.7], [0.8, 0.3]])])
def test_true_quantile_matches_binned_sample(d, n_cov, n, half, probes):
    # the empirical t-quantiles of Y over the rows whose x lies in a box
    # around the probe; about 8,000 rows (d = 1) or 3,600 (d = 2) per box,
    # whose largest miss over seeds 0-2 is 0.023. The inverted truth, the
    # (1 - t)-quantile, misses by at least 0.8
    spec = synth.SynthSpec(n_samples=n, seed=0, d=d, n_cov=n_cov)
    data, _ = synth.generate(spec)
    t = np.array([0.1, 0.5, 0.9])
    for x in probes:
        box = (np.abs(data.X - x) <= half).all(axis=1)
        sample = np.quantile(data.Y[box], t, axis=0)
        truth = np.array([synth.true_quantile(spec, x, tk) for tk in t])
        assert np.all(np.diff(truth, axis=0) > 0)
        np.testing.assert_allclose(sample, truth, atol=0.04)


@pytest.mark.parametrize("d,n_cov", [(2, 2), (1, 0)])
def test_write_csv_bytes_match_17g_format(tmp_path, d, n_cov):
    # every value as "%.17g" (round-trip exact), comma separated, one header
    data, _ = synth.generate(synth.SynthSpec(n_samples=6, seed=3, d=d, n_cov=n_cov))
    odd = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300, 1 / 3]
    data = replace(data, Y=np.r_[data.Y, np.tile(np.c_[odd], (1, d))],
                   X=np.r_[data.X, np.tile(np.c_[odd], (1, n_cov))],
                   nu=np.full(13, 1 / 13))
    out = tmp_path / "s.csv"
    synth.write_csv(str(out), data)
    rows = np.hstack([data.X, data.Y])
    expected = ",".join(data.x_names + data.y_names) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert out.read_bytes() == expected.encode()


def test_write_csv_blocks_match_17g_format(tmp_path, monkeypatch):
    # three rows per format call: 10 rows are written as 3, 3, 3 and 1
    monkeypatch.setattr(measures, "WRITE_ROWS", 3)
    data, _ = synth.generate(synth.SynthSpec(n_samples=10, seed=3, d=2, n_cov=2))
    out = tmp_path / "s.csv"
    synth.write_csv(str(out), data)
    expected = "x_1,x_2,y_1,y_2\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in np.hstack([data.X, data.Y]))
    assert out.read_bytes() == expected.encode()


def test_write_csv_and_truth(tmp_path):
    spec = synth.SynthSpec(n_samples=5, seed=2)
    data, _ = synth.generate(spec)
    out = str(tmp_path / "s.csv")
    synth.write_csv(out, data)
    synth.write_truth(out + ".truth.json", spec)
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(got[:, 0], data.X[:, 0])
    np.testing.assert_allclose(got[:, 1], data.Y[:, 0])
    doc = json.loads((tmp_path / "s.csv.truth.json").read_text())
    assert doc["seed"] == 2 and doc["n_samples"] == 5


def test_negative_seed_is_config_error():
    # numpy's default_rng refuses it with a ValueError; the spec says why
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        synth.SynthSpec(seed=-1)
