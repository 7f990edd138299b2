import numpy as np
import pytest

from rvqr.errors import (
    DataError,
    EmptyDataError,
    InvalidGridError,
    MissingColumnError,
    ParseError,
)
from rvqr.measures import (
    Dataset,
    RankGrid,
    center_covariates,
    load_csv,
    make_rank_grid,
    value_scale,
)


def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "x,y,z\n1,2,3\n4,5,6\n")
    data = load_csv(path, ["x"], ["y", "z"])
    assert data.n_obs == 2 and data.n_cov == 1 and data.n_dim == 2
    np.testing.assert_allclose(data.X[:, 0], [1, 4])
    np.testing.assert_allclose(data.Y, [[2, 3], [5, 6]])
    np.testing.assert_allclose(data.nu, [0.5, 0.5])
    assert data.x_names == ("x",) and data.y_names == ("y", "z")


def test_load_csv_comma_separated_columns_and_blank_rows(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n\n3,4\n")
    data = load_csv(path, "a", "b")
    assert data.n_obs == 2


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(MissingColumnError):
        load_csv(path, ["a"], ["c"])


def test_load_csv_parse_error_names_location(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\nfoo,4\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path, ["a"], ["b"])
    msg = str(exc.value)
    assert "a" in msg and "foo" in msg


def test_load_csv_rejects_nan_and_empty(tmp_path):
    with pytest.raises(ParseError):
        load_csv(_write(tmp_path, "a,b\nnan,1\n"), ["a"], ["b"])
    with pytest.raises(EmptyDataError):
        load_csv(_write(tmp_path, "a,b\n", name="e.csv"), ["a"], ["b"])
    with pytest.raises(EmptyDataError):
        load_csv(_write(tmp_path, "", name="f.csv"), ["a"], ["b"])


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(X=np.zeros((2, 1)), Y=np.zeros((3, 1)),
                nu=np.full(2, 0.5), x_mean=np.zeros(1))
    with pytest.raises(DataError):
        Dataset(X=np.zeros((2, 1)), Y=np.zeros((2, 1)),
                nu=np.array([0.9, 0.2]), x_mean=np.zeros(1))
    with pytest.raises(DataError):
        Dataset(X=np.zeros((2, 1)), Y=np.array([[np.inf], [0.0]]),
                nu=np.full(2, 0.5), x_mean=np.zeros(1))


def test_center_covariates_idempotent(rng):
    data = Dataset(X=rng.standard_normal((10, 2)), Y=rng.standard_normal((10, 1)),
                   nu=np.full(10, 0.1), x_mean=np.zeros(2))
    c1 = center_covariates(data)
    assert np.abs(c1.nu @ c1.X).max() <= 1e-12
    c2 = center_covariates(c1)
    np.testing.assert_allclose(c2.X, c1.X, atol=1e-14)
    np.testing.assert_allclose(c2.x_mean, c1.x_mean, atol=1e-14)
    # raw coordinates are recoverable
    np.testing.assert_allclose(c1.X + c1.x_mean, data.X)


def test_make_rank_grid_1d():
    g = make_rank_grid(1, 4)
    np.testing.assert_allclose(g.U[:, 0], [0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(g.mu, 0.25)


def test_make_rank_grid_tensor_product():
    g = make_rank_grid(2, 3)
    assert g.n_nodes == 9 and g.n_dim == 2
    # lexicographic product of the axis 1/3, 2/3, 1
    np.testing.assert_allclose(g.U[0], [1 / 3, 1 / 3])
    np.testing.assert_allclose(g.U[-1], [1.0, 1.0])


def test_make_rank_grid_rejects_bad_shapes():
    with pytest.raises(InvalidGridError):
        make_rank_grid(1, 1)
    with pytest.raises(InvalidGridError):
        make_rank_grid(0, 5)
    with pytest.raises(InvalidGridError):
        RankGrid(U=np.array([[0.0], [0.5]]), mu=np.full(2, 0.5))
    with pytest.raises(InvalidGridError):
        RankGrid(U=np.array([[0.5], [1.1]]), mu=np.full(2, 0.5))


def test_value_scale():
    assert value_scale(np.array([1.0, 3.0, 2.0])) == 2.0
    assert value_scale(np.array([5.0, 5.0])) == 1.0


def test_rank_grid_json_roundtrip():
    g = make_rank_grid(2, 3)
    # model files written before the grid lost its "scheme" label still load
    for doc in (g.to_json_dict(), {**g.to_json_dict(), "scheme": "tensor-product"}):
        back = RankGrid.from_json_dict(doc)
        np.testing.assert_allclose(back.U, g.U)
        np.testing.assert_allclose(back.mu, g.mu)
