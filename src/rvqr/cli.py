"""Command-line entry point.

Subcommands: fit, quantiles, compare-qr, synth, check.
Exit codes: 0 success, 1 I/O error, 2 non-convergence, 3 config error or
a request too large for memory, 4 oracle-check failure.
"""

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import classical_qr, quantiles, solver, synth
from .errors import ConfigError, NonConvergenceError, RvqrError
from .measures import center_covariates, load_csv, make_rank_grid

EXIT_OK = 0
EXIT_IO = 1
EXIT_NONCONV = 2
EXIT_CONFIG = 3
EXIT_CHECK = 4
# defaults that more than one command shares
GRID = 20
PROBES = "q10,q30,q60,q90"


def _number(tok, what):
    """A finite float from one list token; ConfigError naming it otherwise."""
    try:
        v = float(tok)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise ConfigError(f"{what}: {tok!r} is not a finite number")
    return v


def _parse_probes(spec_str):
    """Probe list: 'q10,q30' (covariate quantile levels in [0, 100]) or raw
    values."""
    probes = []
    for tok in spec_str.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok.startswith("q"):
            level = _number(tok[1:], f"--probes level {tok!r}")
            if not 0.0 <= level <= 100.0:
                raise ConfigError(f"--probes: level {tok!r} is outside [0, 100]")
            probes.append(("level", level / 100.0))
        else:
            probes.append(("value", _number(tok, "--probes")))
    return probes


def _eta(v):
    """The --eta value: None (the command's default radius) or a finite
    number >= 0; ConfigError naming the flag otherwise."""
    if v is not None and not (math.isfinite(v) and v >= 0):
        raise ConfigError(f"--eta: {v!r} is not a finite number >= 0")
    return v


def _resolve_probes(probes, raw):
    """Map probe specs to covariate vectors of the uncentered dataset raw, one
    row per probe: a value as parsed, a level as the empirical quantile of
    each column."""
    level = np.array([kind == "level" for kind, _ in probes], dtype=bool)
    val = np.array([v for _, v in probes], dtype=float)
    x = np.repeat(val[:, None], raw.n_cov, axis=1)
    for k in range(raw.n_cov):
        x[level, k] = classical_qr.empirical_quantile(raw.X[:, k], val[level])
    return x


def cmd_fit(args):
    data = center_covariates(load_csv(args.data, args.x_cols, args.y_cols))
    grid = make_rank_grid(data.n_dim, args.grid)
    cfg = solver.SolverConfig(epsilon=args.epsilon, tol=args.tol,
                              max_iter=args.max_iter)
    dv, coupling, report = solver.solve(data, grid, cfg)
    if not report.converged:
        print(f"warning: {solver.shortfall(report, cfg)}", file=sys.stderr)
    solver.save_model(args.out, dv, data, grid, cfg, report)
    print(f"model written to {args.out}")
    print(f"levels (rows)     {', '.join(map(str, report.levels))}")
    print(f"epsilon stages    {report.stages}")
    print(f"newton steps      {report.iterations}")
    print(f"oracle calls      {report.oracle_calls}")
    print(f"backtracks        {report.backtracks}")
    print(f"cg products       {report.cg_products}")
    print(f"dual objective    {report.objective:.10g}")
    print(f"gradient inf-norm {report.grad_inf:.3e}")
    print(f"duality gap       {report.duality_gap:.3e}")
    print(f"col residual      {np.abs(coupling.col_residual).max():.3e}")
    if coupling.mi_residual.size:
        print(f"mi residual       {np.abs(coupling.mi_residual).max():.3e}")
    print(f"wall time         {report.wall_time:.2f}s")
    return EXIT_OK if report.converged else EXIT_NONCONV


def _model_from_files(args):
    doc, dv, grid = solver.load_model(args.model)
    raw = load_csv(args.data, doc["x_names"], doc["y_names"])
    data = center_covariates(raw)
    meta = doc.get("data_meta")
    crc = meta.get("crc32") if isinstance(meta, dict) else None
    # psi has one entry per row: the same rows in another order are other data
    if crc != data.meta["crc32"]:
        why = (f"{args.model} has no data checksum (data_meta.crc32); refit it"
               if crc is None else f"{args.model} was fitted on other values")
        raise ConfigError(f"{args.data} does not match the model: {why}")
    if dv.psi.size != data.n_obs:
        raise ConfigError(f"{args.data} does not match the model: {args.model} has "
                          f"{dv.psi.size} psi entries for {data.n_obs} rows")
    coupling = solver.extract_coupling(dv, data, grid, doc["epsilon"])
    model = quantiles.QuantileModel.from_fit(coupling, data, grid, doc["epsilon"])
    return doc, raw, data, model


def cmd_quantiles(args):
    eta = _eta(args.eta)
    doc, raw, data, model = _model_from_files(args)
    x = _resolve_probes(_parse_probes(args.probes), raw)
    Q = quantiles.quantile_table(
        model, x - data.x_mean, eta=eta, hard=(args.phi_mode == "hard"))
    quantiles.table_to_csv(args.out, x, model.U, Q, doc["x_names"])
    print(f"quantile table ({Q.shape[0] * Q.shape[1]} rows) written to {args.out}")
    return EXIT_OK


def cmd_compare_qr(args):
    raw = load_csv(args.data, args.x_cols, args.y_cols)
    data = center_covariates(raw)
    if data.n_dim != 1:
        raise ConfigError("compare-qr supports univariate responses only")
    eps_list = [_number(e, "--epsilons") for e in args.epsilons.split(",")]
    eta = _eta(args.eta)
    # validated before the baseline fit, which a bad --tol would waste
    cfgs = [solver.SolverConfig(epsilon=e, tol=args.tol, max_iter=args.max_iter)
            for e in eps_list]
    probes = _resolve_probes(_parse_probes(args.probes), raw) - data.x_mean
    grid = make_rank_grid(1, args.grid)
    if grid.n_nodes < 3:
        raise ConfigError(f"compare-qr needs --grid >= 3 (an interior rank "
                          f"node), got {args.grid}")
    interior = np.arange(1, grid.n_nodes - 1)
    t_levels = grid.U[interior, 0]

    if args.mode == "qr":
        # the baseline's rank-deficiency warning, as a CLI warning line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            qr_fits = classical_qr.fit_qr_curve(data, t_levels)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        # P x T baseline quantiles, empty when no probe is given
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            qr_q = (np.array([f.alpha for f in qr_fits])
                    + probes @ np.array([f.beta for f in qr_fits]).T)
        bad = np.flatnonzero(~np.isfinite(qr_q).all(axis=1))
        if bad.size:
            raise ConfigError(f"--probes: the baseline quantiles at probe p{bad[0] + 1} "
                              "are not finite in float64")

    by_x1 = quantiles.RowSort.of(data.X)  # one sort of the rows for every epsilon

    def relative_errors(coupling, eps):
        model = quantiles.QuantileModel(alpha=coupling.alpha, X=data.X, Y=data.Y,
                                        U=grid.U, epsilon=eps, by_x1=by_x1)
        soft = quantiles.quantile_table(model, probes, interior, eta=eta)[:, :, 0]
        if args.mode == "qr":
            ref, est = qr_q, soft
        else:
            ref, est = soft, quantiles.quantile_table(
                model, probes, interior, eta=eta, hard=True)[:, :, 0]
        # both scaled by the power of two at max |ref| per probe: exact, and
        # the squares in the norms cannot overflow at a probe like 1e200
        scale = np.ldexp(1.0, -np.frexp(np.abs(ref).max(axis=1, keepdims=True))[1])
        return (np.linalg.norm((ref - est) * scale, axis=1)
                / np.linalg.norm(ref * scale, axis=1))

    header = ["probe"] + [f"eps_{e:g}" for e in eps_list]
    lines = [",".join(header)]
    # one descending chain, largest epsilon first, each solve warm-started
    # from the last converged one; the columns keep the order of --epsilons
    order = sorted(range(len(cfgs)), key=lambda k: -eps_list[k])
    table = [None] * len(cfgs)
    exit_code = EXIT_OK
    chain = solver.solve_chain(data, grid, [cfgs[k] for k in order])
    for k in order:
        _, coupling, report = next(chain)
        if report.converged:
            table[k] = relative_errors(coupling, eps_list[k])
        else:
            # keep the sweep going; this column reads nan
            print(f"warning: eps {eps_list[k]:g}: {solver.shortfall(report, cfgs[k])}",
                  file=sys.stderr)
            table[k] = [math.nan] * len(probes)
            exit_code = EXIT_NONCONV
        del coupling  # the next coupling is extracted with this one freed
    for p in range(len(probes)):
        cells = [f"p{p + 1}"] + [f"{table[e][p]:.6g}" for e in range(len(eps_list))]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return exit_code


def cmd_synth(args):
    spec = synth.SynthSpec(n_samples=args.n_samples, seed=args.seed, d=args.dim,
                           n_cov=args.n_cov)
    data, _ = synth.generate(spec)
    synth.write_csv(args.out, data)
    synth.write_truth(args.out + ".truth.json", spec)
    print(f"{spec.n_samples} samples written to {args.out} "
          f"(truth in {args.out}.truth.json)")
    return EXIT_OK


def cmd_check(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    # imported here: oracles loads scipy.special and scipy.sparse, which no other command uses
    from . import oracles
    results = oracles.run_all_checks(seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    ok = True
    for name, r in results.items():
        status = "pass" if r["passed"] else "FAIL"
        print(f"{status}  {name}: measured {r['measured']:.3e} "
              f"(tolerance {r['tolerance']:.3e})")
        ok = ok and r["passed"]
    return EXIT_OK if ok else EXIT_CHECK


COMMANDS = ("fit", "quantiles", "compare-qr", "synth", "check")


def build_parser(command=None):
    """The parser of every subcommand, or of `command`'s alone: main parses
    a named command with that, as the other four cost more to build than
    most commands take to parse."""
    # the usage names all five either way, as in an unrecognized-flag error
    p = argparse.ArgumentParser(prog="rvqr", description=__doc__,
                                usage="%(prog)s [-h] {" + ",".join(COMMANDS) + "} ...")
    sub = p.add_subparsers(dest="command", required=True, prog="rvqr")

    def add_solver_flags(sp):
        sp.add_argument("--tol", type=float, default=solver.SolverConfig.tol)
        sp.add_argument("--max-iter", type=int, default=solver.SolverConfig.max_iter)

    if command in (None, "fit"):
        f = sub.add_parser("fit", help="fit the regularized transport dual")
        f.add_argument("--data", required=True)
        f.add_argument("--x-cols", required=True)
        f.add_argument("--y-cols", required=True)
        f.add_argument("--grid", type=int, default=GRID)
        f.add_argument("--epsilon", type=float, default=0.1)
        add_solver_flags(f)
        f.add_argument("--out", required=True)
        f.set_defaults(func=cmd_fit)

    if command in (None, "quantiles"):
        q = sub.add_parser("quantiles", help="conditional quantile table from a fit")
        q.add_argument("--model", required=True)
        q.add_argument("--data", required=True)
        q.add_argument("--probes", default=PROBES)
        q.add_argument("--eta", type=float, default=None)
        q.add_argument("--phi-mode", choices=["soft", "hard"], default="soft")
        q.add_argument("--out", required=True)
        q.set_defaults(func=cmd_quantiles)

    if command in (None, "compare-qr"):
        c = sub.add_parser("compare-qr", help="relative error vs the pinball baseline")
        c.add_argument("--data", required=True)
        c.add_argument("--x-cols", required=True)
        c.add_argument("--y-cols", required=True)
        c.add_argument("--grid", type=int, default=GRID)
        c.add_argument("--epsilons", default="0.05,0.1,0.5,1")
        c.add_argument("--probes", default=PROBES)
        c.add_argument("--eta", type=float, default=None)
        c.add_argument("--mode", choices=["qr", "softhard"], default="qr")
        add_solver_flags(c)
        c.add_argument("--out", default=None)
        c.set_defaults(func=cmd_compare_qr)

    if command in (None, "synth"):
        s = sub.add_parser("synth", help="generate a synthetic dataset with known truth")
        s.add_argument("--out", required=True)
        s.add_argument("--n-samples", type=int, default=synth.SynthSpec.n_samples)
        s.add_argument("--seed", type=int, default=synth.SynthSpec.seed)
        s.add_argument("--dim", type=int, default=synth.SynthSpec.d)
        s.add_argument("--n-cov", type=int, default=synth.SynthSpec.n_cov)
        s.set_defaults(func=cmd_synth)

    if command in (None, "check"):
        k = sub.add_parser("check", help="run the independent oracle suite")
        k.add_argument("--seed", type=int, default=0)
        k.add_argument("--out", default=None)
        k.set_defaults(func=cmd_check)

    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # no command, -h or an unknown name: the full parser's usage lists all five
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; remap to the config-error code
        raise SystemExit(EXIT_CONFIG if exc.code else EXIT_OK) from None
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    except RvqrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
