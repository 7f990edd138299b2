"""The benchmark's workloads: inputs, the `rvqr` CLI argument list of one
operation, and the checks on that operation's output.

Each workload is a fixed synthetic instance (synth seed 7, the package's
default) whose rows are put in an order drawn from the benchmark seed.
Across synth seeds 0-9 the d=2 fit takes 261 to 1,305 descent iterations,
so a freshly drawn sample per seed would put a 5x data spread into every
timing; the row order changes the inputs and the floating-point summation
order but not the problem.
"""

import csv
import math
from dataclasses import replace

import numpy as np

from rvqr import classical_qr, quantiles, solver, synth
from rvqr.measures import center_covariates, load_csv, value_scale

INSTANCE_SEED = 7
PROBE_LEVELS = (0.1, 0.3, 0.5, 0.7, 0.9)  # quantile_err probes
BALL_SHARE = 0.05  # compare-qr's ball: 5% quantile of covariate distances

# Output thresholds; every run at the commit that introduced the benchmark
# passes them with at least a factor 4 to spare.
GAP_MAX = 1e-5
ROW_RESIDUAL_MAX = 1e-12
COL_RESIDUAL_MAX = 1e-6
MI_RESIDUAL_MAX = 1e-6
CROSSING_TOL = 1e-9  # share of value_scale(Y)


def write_instance(path, seed, n_samples, d=1, n_cov=1):
    """Synthesize the fixed instance, order its rows by `seed`, write the CSV.

    Returns the SynthSpec, which gives the closed-form truth."""
    spec = synth.SynthSpec(n_samples=n_samples, seed=INSTANCE_SEED, d=d, n_cov=n_cov)
    data, _ = synth.generate(spec)
    order = np.random.default_rng(seed).permutation(n_samples)
    synth.write_csv(path, replace(data, X=data.X[order], Y=data.Y[order]))
    return spec


def cols(prefix, n):
    return ",".join(f"{prefix}_{k + 1}" for k in range(n))


def interior_nodes(grid):
    """Nodes whose every coordinate lies strictly between the grid's first
    and last axis value (compare-qr's range(1, I - 1) when d = 1)."""
    axis = np.unique(grid.U)
    inside = (grid.U > axis[0]) & (grid.U < axis[-1])
    return np.nonzero(inside.all(axis=1))[0]


def ball_probes(data):
    """(raw x, centered x, ball radius) at the componentwise covariate
    quantiles PROBE_LEVELS."""
    raw = data.X + data.x_mean
    out = []
    for lv in PROBE_LEVELS:
        x_raw = np.array([classical_qr.empirical_quantile(raw[:, k], lv)
                          for k in range(data.n_cov)])
        x = x_raw - data.x_mean
        eta = float(np.quantile(np.linalg.norm(data.X - x, axis=1), BALL_SHARE))
        out.append((x_raw, x, eta))
    return out


def check_fit(rc, model_path, csv_path, spec):
    """Checks on one `rvqr fit`. Returns (problems, quantile_err)."""
    if rc != 0:
        return [f"fit exit code {rc}"], math.nan
    doc, dv, grid = solver.load_model(model_path)
    data = center_covariates(load_csv(csv_path, doc["x_names"], doc["y_names"]))
    coupling = solver.extract_coupling(dv, data, grid, doc["epsilon"])
    report = doc["report"]
    problems = []
    if not report["converged"]:
        problems.append("report.converged is false")
    for label, value, limit in (
        ("duality gap", report["duality_gap"], GAP_MAX),
        ("row residual", np.abs(coupling.row_residual).max(), ROW_RESIDUAL_MAX),
        ("column residual", np.abs(coupling.col_residual).max(), COL_RESIDUAL_MAX),
        ("MI residual", np.abs(coupling.mi_residual).max(), MI_RESIDUAL_MAX),
    ):
        if not value <= limit:
            problems.append(f"{label} {value:.3e} above {limit:g}")

    model = quantiles.QuantileModel.from_fit(coupling, data, grid, doc["epsilon"])
    inner = interior_nodes(grid)
    err = 0.0
    for x_raw, x, eta in ball_probes(data):
        for i in inner:
            q = quantiles.ball_conditional_quantile(model, x, eta, i)
            err = max(err, float(np.abs(q - synth.true_quantile(spec, x_raw, grid.U[i])).max()))
        if data.n_dim > 1:
            bad = quantiles.monotonicity_diagnostic(model, x, eta=eta)
            if bad:
                problems.append(f"{len(bad)} monotonicity violations at x={x_raw.tolist()}")
    if not math.isfinite(err):
        problems.append("quantile error is not finite")
    return problems, err


class FitWorkload:
    """One `rvqr fit` per operation, each in a fresh process. Inside one
    long-lived process the same fit takes 4.3, 8.5 or 12 s depending on
    the allocator's state (0, 1.7M or 3.6M page faults for vqr-2d); a fresh
    process starts from the same state every time."""

    IN_PROCESS = False

    def __init__(self, workdir, seed, n_samples, d, n_cov, grid, epsilon):
        self.csv = str(workdir / "data.csv")
        self.model = str(workdir / "model.json")
        self.seed = seed
        self.shape = (n_samples, d, n_cov)
        self.argv = ["fit", "--data", self.csv, "--x-cols", cols("x", n_cov),
                     "--y-cols", cols("y", d), "--grid", str(grid),
                     "--epsilon", str(epsilon), "--out", self.model]
        self.spec = None
        self.quantile_err = math.nan

    def setup(self, run):
        """Writes the inputs. `run(argv, in_process=False)` runs one CLI
        operation and returns its exit code; returns one problem list per
        operation run."""
        self.spec = write_instance(self.csv, self.seed, *self.shape)
        return []

    def check(self, rc):
        problems, self.quantile_err = check_fit(rc, self.model, self.csv, self.spec)
        return problems

    def finish(self, run):
        """Untimed operations after the loop; one problem list per operation."""
        return []


class QueryWorkload:
    """One `rvqr quantiles` over probes q1..q99 with the default eta, on a
    model fitted in set-up, run warm in the benchmark's process: the first
    (cold) query runs in set-up. Fresh processes put a 2x spread into the
    query time; warm queries in one process vary far less."""

    IN_PROCESS = True
    N_PROBES = 99

    def __init__(self, workdir, seed):
        self.fit = FitWorkload(workdir, seed, 5000, 1, 1, 20, 0.1)
        self.table = str(workdir / "table.csv")
        self.argv = ["quantiles", "--model", self.fit.model, "--data", self.fit.csv,
                     "--probes", ",".join(f"q{k}" for k in range(1, self.N_PROBES + 1)),
                     "--out", self.table]
        self.n_nodes = 20

    @property
    def quantile_err(self):
        return self.fit.quantile_err

    def setup(self, run):
        self.fit.setup(run)
        return [self.fit.check(run(self.fit.argv)),
                self.check(run(self.argv, in_process=True))]

    def check(self, rc):
        if rc != 0:
            return [f"quantiles exit code {rc}"]
        with open(self.table, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        expected = self.N_PROBES * self.n_nodes
        if len(rows) != expected:
            return [f"quantile table has {len(rows)} rows, expected {expected}"]
        table = np.array(rows, dtype=float)  # columns x_1, u_1, q_1
        if not np.isfinite(table).all():
            return ["quantile table has non-finite values"]
        tol = CROSSING_TOL * value_scale(table[:, 2])
        problems = []
        for x in np.unique(table[:, 0]):
            at = table[table[:, 0] == x]
            q = at[np.argsort(at[:, 1]), 2]
            if (np.diff(q) < -tol).any():
                problems.append(f"quantiles cross in u at x={x:.6g}")
        return problems

    def finish(self, run):
        return []


class SweepWorkload:
    """One `rvqr compare-qr` over four epsilons on the query-5k data. The
    quantile error comes from one untimed fit at the smallest epsilon."""

    IN_PROCESS = False
    EPSILONS = (1.0, 0.5, 0.1, 0.05)
    N_PROBES = 4  # compare-qr's default probes q10,q30,q60,q90

    def __init__(self, workdir, seed):
        self.fit = FitWorkload(workdir, seed, 5000, 1, 1, 20, min(self.EPSILONS))
        self.table = str(workdir / "compare.csv")
        self.argv = ["compare-qr", "--data", self.fit.csv, "--x-cols", "x_1",
                     "--y-cols", "y_1", "--grid", "20",
                     "--epsilons", ",".join(f"{e:g}" for e in self.EPSILONS),
                     "--out", self.table]
        self.qr_rel_err = math.nan

    @property
    def quantile_err(self):
        return self.fit.quantile_err

    def setup(self, run):
        return self.fit.setup(run)

    def check(self, rc):
        if rc != 0:
            return [f"compare-qr exit code {rc}"]
        with open(self.table, newline="", encoding="utf-8") as fh:
            head, *rows = list(csv.reader(fh))
        if head[1:] != [f"eps_{e:g}" for e in self.EPSILONS] or len(rows) != self.N_PROBES:
            return [f"compare-qr table has header {head} and {len(rows)} rows"]
        table = np.array([r[1:] for r in rows], dtype=float)
        if not np.isfinite(table).all():
            return ["compare-qr table has non-finite values"]
        self.qr_rel_err = float(table[:, int(np.argmin(self.EPSILONS))].max())
        return []

    def finish(self, run):
        return [self.fit.check(run(self.fit.argv))]


def make(name, workdir, seed):
    if name == "fit-20k":
        return FitWorkload(workdir, seed, 20000, 1, 1, 20, 0.1)
    if name == "vqr-2d":
        return FitWorkload(workdir, seed, 2000, 2, 2, 6, 0.05)
    if name == "query-5k":
        return QueryWorkload(workdir, seed)
    if name == "eps-sweep":
        return SweepWorkload(workdir, seed)
    raise ValueError(f"unknown workload {name!r}")


# per-command name of each workload's op_s, used in the printed summary
OP_NAMES = {"fit-20k": "fit_s", "vqr-2d": "fit_s", "query-5k": "query_s",
            "eps-sweep": "sweep_s"}
