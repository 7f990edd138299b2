import json
from dataclasses import replace

import numpy as np
import pytest

from rvqr import synth
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
    spec = synth.SynthSpec(n_samples=30, seed=1, a0=0.5, a1=2.0, b0=1.0, b1=3.0)
    data, U = synth.generate(spec)
    expect = 0.5 + 2.0 * U + (1.0 + 3.0 * U) * data.X
    np.testing.assert_allclose(data.Y, expect, atol=1e-12)


def test_true_quantile_defaults():
    spec = synth.SynthSpec()
    # Q(x, t) = t + (1 + t) x with the default coefficients
    q = synth.true_quantile(spec, [0.5], [0.2])
    assert q[0] == pytest.approx(0.2 + 1.2 * 0.5)


def test_multivariate_weights():
    spec = synth.SynthSpec(n_samples=10, d=2, n_cov=2)
    assert spec.weights == ((1.0, 0.5), (1.0, 0.5))
    data, _ = synth.generate(spec)
    assert data.Y.shape == (10, 2)


def test_rejects_bad_shape_and_law():
    with pytest.raises(ConfigError):
        synth.SynthSpec(n_samples=0)
    with pytest.raises(ConfigError):
        synth.SynthSpec(x_law="cauchy")


@pytest.mark.parametrize("field", ["a0", "a1", "b0", "b1"])
def test_rejects_non_finite_coefficients(field):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            synth.SynthSpec(**{field: bad})
    with pytest.raises(ConfigError):
        synth.SynthSpec(weights=((1.0, float("nan")),), n_cov=2)


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
