import itertools
import re

import numpy as np
import pytest

from rvqr import measures
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
    # 1-based line of the file, the header being line 1; blank lines count
    assert exc.value.line == 3 and "line 3" in msg and path in msg
    path = _write(tmp_path, "a,b\n\n1,2\n,,\n3,x\n", name="g.csv")
    with pytest.raises(ParseError) as exc:
        load_csv(path, ["a"], ["b"])
    assert (exc.value.line, exc.value.column, exc.value.value) == (5, "b", "x")


@pytest.mark.parametrize("cell", ["1_000", "\u0661", "1d5", "0x10", "", "  ", '"1"x'])
def test_load_csv_refuses_syntax_loadtxt_does_not_read(tmp_path, cell):
    # float() accepts "1_000" and the Arabic-Indic digit; the reader does not
    path = _write(tmp_path, f"a,b\n1,2\n3,{cell}\n5,6\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path, ["a"], ["b"])
    assert (exc.value.line, exc.value.column) == (3, "b")


def test_load_csv_first_bad_cell_in_file_order(tmp_path):
    # a NaN on line 2 comes before unparseable text on line 3; within a
    # record the x columns are checked before the y columns
    path = _write(tmp_path, "y,x\n1,2\nnan,inf\nfoo,5\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path, ["x"], ["y"])
    assert (exc.value.line, exc.value.column, exc.value.value) == (3, "x", "inf")


def test_load_csv_record_loadtxt_cannot_read_is_data_error(tmp_path):
    # a quoted cell spanning two lines: csv sees two valid records, the bulk
    # parse one unreadable cell; no cell is to blame, the file is
    path = _write(tmp_path, 'a,b\n1,"1\n.1,"1.1\n')
    with pytest.raises(DataError) as exc:
        load_csv(path, ["a"], ["b"])
    assert str(exc.value).startswith(f"{path}: ")


def test_load_csv_ragged_record_names_column(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path, ["a"], ["b"])
    assert (exc.value.line, exc.value.column, exc.value.value) == (3, "b", None)
    assert "'b'" in str(exc.value) and "too few fields" in str(exc.value)


def test_load_csv_syntax_reads_the_same_bits_as_float(tmp_path, rng):
    values = rng.standard_normal((30, 2)) * 10.0 ** rng.integers(-8, 9, (30, 2))
    forms = [repr, lambda v: f"{v:.17g}", lambda v: f"{v:.3e}", lambda v: f'"{v!r}"',
             lambda v: f"  {v!r}\t", lambda v: f"{v:+.6f}"]
    cells = [[forms[(2 * r + k) % len(forms)](v) for k, v in enumerate(row)]
             for r, row in enumerate(values.tolist())]
    # a trailing comma, an unrequested text column, or neither
    records = [",".join(c) + ("," if r % 3 == 0 else ",n/a" if r % 3 == 1 else "")
               for r, c in enumerate(cells)]
    records[5:5] = ["", ",,", '"",""', " , "]  # blank records are skipped
    want = np.array([[float(c.strip().strip('"')) for c in row] for row in cells])
    for eol, bom in (("\n", ""), ("\r\n", ""), ("\r", ""), ("\n", "\ufeff")):
        p = tmp_path / "s.csv"
        p.write_bytes((bom + eol.join(["a,b,note"] + records) + eol).encode("utf-8"))
        data = load_csv(str(p), ["a"], ["b"])
        assert np.array_equal(np.hstack([data.X, data.Y]), want)


@pytest.mark.parametrize("text, rows", [
    ("a,b\n\n1,2\n3,4\n", 2),  # blank first data record
    ("a,b\n \t\n1,2\n3,4", 2),
    ("a,b\n1,2\n3,4\n\n", 2),  # blank last record, with a final newline
    ("a,b\n1,2\n3,4\n,,", 2),  # and without one
    ("a,b\n1,2\n3,4\n", 2),  # no blank record, with a final newline
    ("a,b\n1,2\n3,4", 2),  # and without one
    ("a,b\n1,2\n\t\n\x0c\n,,\n\" \"\n3,4\n", 2),
    ("a,b\r\n1,2\r\n\r\n3,4\r\n", 2),  # CRLF
    ("a,b\r\n1,2\r\n3,4\r\n", 2),
    ("a,b\n\n", 0),
    ("a,b\n", 0),
], ids=["first", "first_ws", "last_eol", "last_no_eol", "clean_eol", "clean_no_eol",
        "ws_only", "crlf", "crlf_clean", "only_blank", "header_only"])
def test_load_csv_bulk_blank_scan_matches_per_line_filter(tmp_path, monkeypatch,
                                                          text, rows):
    path = tmp_path / "b.csv"
    path.write_bytes(text.encode("utf-8"))

    def load():
        try:
            data = load_csv(str(path), ["a"], ["b"])
        except EmptyDataError as exc:
            return str(exc)
        return np.hstack([data.X, data.Y])

    got = load()
    # an always-matching scan sends every file through the per-line filter
    monkeypatch.setattr(measures, "_MAYBE_BLANK_LINE", re.compile(""))
    want = load()
    if rows:
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, [[1, 2], [3, 4]])
    else:
        assert got == want == f"{path}: no data rows"


@pytest.mark.parametrize("text, calls", [
    ("a,b\n1,2\n3,4\n", 0), ("a,b\n1,2\n3,4", 0), ("a,b\r\n 1, 2\r\n3,4\r\n", 0),
    ("a,b\n1,2\n\n3,4\n", 4),
])
def test_load_csv_clean_file_makes_no_per_line_call(tmp_path, monkeypatch, text, calls):
    seen = []
    is_blank = measures._is_blank
    monkeypatch.setattr(measures, "_is_blank", lambda line: seen.append(line) or is_blank(line))
    path = tmp_path / "c.csv"
    path.write_bytes(text.encode("utf-8"))
    assert load_csv(str(path), ["a"], ["b"]).n_obs == 2
    assert len(seen) == calls


def test_load_csv_splits_lines_at_newlines_only(tmp_path):
    # str.splitlines would also break at these whitespace characters
    path = _write(tmp_path, "a,b\n1\x0b,2\n3\u2028,4\x1c\n")
    data = load_csv(path, ["a"], ["b"])
    np.testing.assert_array_equal(data.X[:, 0], [1, 3])
    np.testing.assert_array_equal(data.Y[:, 0], [2, 4])


def test_load_csv_non_utf8_is_data_error(tmp_path):
    latin = tmp_path / "latin.csv"
    latin.write_bytes("a,b\n1,2\n3,4 \u00b0C\n".encode("latin-1"))
    with pytest.raises(DataError) as exc:
        load_csv(str(latin), ["a"], ["b"])
    assert str(latin) in str(exc.value) and "line 3" in str(exc.value)


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


def test_dataset_with_no_rows_is_empty_data_error():
    with pytest.raises(EmptyDataError, match="^dataset has no rows$"):
        Dataset(X=np.zeros((0, 1)), Y=np.zeros((0, 1)), nu=np.zeros(0), x_mean=np.zeros(1))


@pytest.mark.parametrize("nu", [[1.0, 0.0], [1.5, -0.5]])
def test_dataset_refuses_a_weight_that_is_not_positive(nu):
    # both sum to 1, so only the sign test can refuse them
    with pytest.raises(DataError, match="^all weights nu_j must be strictly positive$"):
        Dataset(X=np.zeros((2, 1)), Y=np.zeros((2, 1)), nu=nu, x_mean=np.zeros(1))


@pytest.mark.parametrize("names, message", [
    ({"x_names": ("a",)}, "1 names for the 2 columns of X"),
    ({"y_names": ("y", "z")}, "2 names for the 1 columns of Y")])
def test_dataset_names_must_match_their_columns(names, message):
    # a model saved from such a dataset would not load
    with pytest.raises(DataError, match=message):
        Dataset(X=np.zeros((50, 2)), Y=np.zeros((50, 1)), nu=np.full(50, 0.02),
                x_mean=np.zeros(2), **names)


@pytest.mark.parametrize("n_cov, x_mean", [(2, np.zeros(1)), (1, [np.nan])])
def test_dataset_needs_one_finite_mean_per_covariate(n_cov, x_mean):
    # solve would run, and the model saved from it would not load
    with pytest.raises(DataError, match=f"x_mean must hold {n_cov} finite means"):
        Dataset(X=np.zeros((50, n_cov)), Y=np.zeros((50, 1)), nu=np.full(50, 0.02),
                x_mean=x_mean)


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
    for d, n in [(1, 4), (2, 3), (3, 5), (4, 2), (2, 20)]:
        axis = np.arange(1, n + 1) / n
        np.testing.assert_array_equal(make_rank_grid(d, n).U,
                                      list(itertools.product(axis, repeat=d)))


def test_make_rank_grid_rejects_bad_shapes():
    with pytest.raises(InvalidGridError):
        make_rank_grid(1, 1)
    with pytest.raises(InvalidGridError):
        make_rank_grid(0, 5)
    # 10^24 nodes: refused before any allocation
    with pytest.raises(InvalidGridError, match="1000\\^8 nodes is too large for memory"):
        make_rank_grid(8, 1000)
    # 10^15 nodes: one allocation, larger than any address space, fails
    with pytest.raises(MemoryError):
        make_rank_grid(3, 10 ** 5)
    with pytest.raises(InvalidGridError):
        RankGrid(U=np.array([[0.0], [0.5]]), mu=np.full(2, 0.5))
    with pytest.raises(InvalidGridError):
        RankGrid(U=np.array([[0.5], [1.1]]), mu=np.full(2, 0.5))
    with pytest.raises(InvalidGridError):
        RankGrid(U=np.array([[0.5], [np.nan]]), mu=np.full(2, 0.5))
    with pytest.raises(InvalidGridError):
        RankGrid(U=np.array([[0.5], [1.0]]), mu=np.array([np.nan, 0.5]))


def test_rank_grid_refuses_u_and_mu_of_other_row_counts():
    with pytest.raises(InvalidGridError, match="^U and mu row counts differ$"):
        RankGrid(U=np.array([[0.5], [1.0]]), mu=np.full(3, 1 / 3))


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
