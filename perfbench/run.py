"""End-to-end and per-layer benchmark of the rvqr command-line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload fit-20k --seed 1 --seconds 20 --trace 0

Set-up synthesizes the workload's instance from --seed and writes it as CSV.
The timed loop then runs the workload's `rvqr` command one at a time (a
closed loop with one client) until --seconds have passed, through op.py,
which calls `rvqr.cli.main` with the argument list a user would type. Fits
and sweeps run each operation in a fresh process, as a user's command runs,
which also gives every operation the same allocator state (inside one
long-lived process that state moves a fit's time by up to 2x); queries run
warm in this process (see workloads.py). Every operation's output is
checked; an operation that fails a check counts as failed.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced operations and prints the per-layer metrics, including the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record (provenance, every
sample) goes to perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA_VERSION = 1
SETUP_REPEATS = 3
OP_TIMEOUT_S = 150
# With OpenBLAS's default of one thread per core, its worker busy-waits on
# the second core through a whole fit (15 s of CPU for a 10 s fit on two
# cores), so the fit's time follows the load on both cores. One thread keeps
# an operation on one core.
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["fit-20k", "vqr-2d", "query-5k", "eps-sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args):
    import numpy
    import scipy
    import rvqr
    out = {
        "schema_version": SCHEMA_VERSION,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }
    if hasattr(rvqr, "BACKEND"):
        out["rvqr_backend"] = rvqr.BACKEND
    return out


def run_op(argv, spans_path=None):
    """One CLI operation in a fresh process; returns op.py's record."""
    cmd = [sys.executable, str(HERE / "op.py")]
    if spans_path:
        cmd += ["--trace", str(spans_path)]
    try:
        proc = subprocess.run(cmd + ["--"] + argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": f"no result within {OP_TIMEOUT_S} s", "seconds": math.nan}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"rc": f"op process exited {proc.returncode}: {tail[0]}", "seconds": math.nan}


def checked(fn, *args):
    """Run an output check; a check that raises reports a problem."""
    try:
        return fn(*args)
    except Exception:  # a broken output must count as a failure, not end the run
        return ["check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]]


def median(values):
    """Median of the finite values; 0 when there are none (a failed run)."""
    finite = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


class Bench:
    """Set-up repeats, the timed closed loop, and the failure count."""

    def __init__(self, args, make, out_dir):
        self.args, self.make, self.out_dir = args, make, out_dir
        self.load = None
        self.attempted = 0
        self.failures = []
        self.setup_samples = []
        self.import_samples = []  # `import rvqr` in each fresh op process
        self.untraced, self.traced = [], []  # op records
        self.tracer = None

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append({"op": label, "problems": problems})

    def run(self, argv, in_process=False, spans_path=None, run_id=0):
        """One CLI operation, in this process or a fresh one."""
        if not in_process:
            rec = run_op(argv, spans_path)
            self.import_samples.append(rec.get("import_s", math.nan))
            return rec
        import op
        from rvqr import cli
        rec = op.execute(cli, argv, self.tracer if spans_path else None, run_id)
        if spans_path:
            self.tracer.write(spans_path, run_id)
        return rec

    def setup(self):
        """Set up SETUP_REPEATS times from scratch; the last one is kept."""
        def run(argv, in_process=False):
            return self.run(argv, in_process)["rc"]
        for rep in range(SETUP_REPEATS):
            self.load = self.make()
            start = time.perf_counter()
            checks = self.load.setup(run)
            self.setup_samples.append(time.perf_counter() - start)
            for n, problems in enumerate(checks):
                self.record(f"setup {rep} op {n}", problems)

    def loop(self, tracer):
        """Operations until --seconds have passed; with a tracer every other
        one is traced, and at least one of each kind runs."""
        self.tracer = tracer
        deadline = time.perf_counter() + self.args.seconds
        k = 0
        while True:
            spans = None
            if tracer and k % 2 == 1:
                spans = self.out_dir / f"spans-{self.args.workload}-seed{self.args.seed}-op{k}.json"
            rec = self.run(self.load.argv, self.load.IN_PROCESS, spans, k)
            (self.traced if spans else self.untraced).append(rec)
            self.record(f"op {k}", checked(self.load.check, rec["rc"]))
            k += 1
            if time.perf_counter() >= deadline and (tracer is None or k >= 2):
                break
        for n, problems in enumerate(self.load.finish(lambda argv: self.run(argv)["rc"])):
            self.record(f"finish op {n}", problems)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "rvqr" / "__init__.py").is_file():
        print(f"error: no rvqr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))
    # before numpy loads, here and in every operation process
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

    import tracing
    import workloads

    (HERE / "work").mkdir(exist_ok=True)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    bench = Bench(args, lambda: workloads.make(args.workload, workdir, args.seed), out_dir)
    try:
        bench.setup()
        bench.loop(tracing.Tracer() if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_name = workloads.OP_NAMES[args.workload]
    import_s = median(bench.import_samples)
    untraced_s = [r["seconds"] for r in bench.untraced]
    op_s = median(untraced_s)
    values = {
        "setup_s": import_s + median(bench.setup_samples),
        "op_s": op_s,
        "peak_rss_mb": median([r.get("peak_rss_mb", float("nan")) for r in bench.untraced]),
        "quantile_err": bench.load.quantile_err,
    }
    doc = {
        "provenance": provenance(args),
        "failures": bench.failures,
        "samples": {"import_s": bench.import_samples, "setup_s": bench.setup_samples,
                    op_name: untraced_s,
                    "peak_rss_mb": [r.get("peak_rss_mb") for r in bench.untraced]},
        "qr_rel_err": getattr(bench.load, "qr_rel_err", None),
    }
    lines = [f"{op_name} (op_s) median of {len(untraced_s)}: {op_s:.4f} s; "
             f"setup_s median of {SETUP_REPEATS} set-ups plus median import "
             f"{import_s:.3f} s: "
             f"{values['setup_s']:.4f} s"]
    if args.trace:
        layers = [r["layers"] for r in bench.traced if "layers" in r]
        values = {m["name"]: median([x[m["name"]] for x in layers])
                  for m in spec["per_layer"] if not m["name"].startswith(("trace.", "process."))}
        traced_s = median([r["seconds"] for r in bench.traced])
        missing = sorted({h for r in bench.traced for h in r.get("missing_hooks", [])})
        values.update({
            "trace.untraced_op_s": op_s, "trace.traced_op_s": traced_s,
            "trace.overhead_s": traced_s - op_s, "trace.missing_hooks": len(missing),
            "trace.spans": median([x["trace.spans"] for x in layers]),
            "process.minor_faults": median([r.get("minor_faults", float("nan"))
                                            for r in bench.untraced]),
        })
        doc["samples"]["traced_" + op_name] = [r["seconds"] for r in bench.traced]
        doc["missing_hooks"] = missing
        lines.append(f"tracing overhead {traced_s - op_s:+.4f} s per op (median of "
                     f"{len(bench.traced)} traced vs {len(untraced_s)} untraced)")
        if missing:
            lines.append("missing hooks: " + ", ".join(missing))

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in names},
    }
    doc["result"] = result
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}: {bench.attempted} operations "
          f"checked, {len(bench.failures)} failed")
    for f in bench.failures:
        print(f"  failed {f['op']}: {'; '.join(f['problems'])}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
