"""One benchmark operation: an `rvqr` command through `rvqr.cli.main`.

    python3 perfbench/op.py [--trace SPANS.json] -- <rvqr arguments>

runs the command in this fresh process, as a user's `rvqr` command runs, and
prints one JSON line: exit code, seconds inside `main`, the import time, and
this process's own peak resident memory and page faults. With --trace the
package's public functions are wrapped first (tracing.py); the spans are
written to SPANS.json and the per-layer numbers join the JSON line.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def execute(cli, argv, tracer=None, run_id=0):
    """Run `rvqr.cli.main(argv)` with its output captured; returns the
    operation's record. With a tracer, the call is traced as run_id."""
    if tracer:
        tracer.install(run_id)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    log = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # reported as a failed operation by the caller
        rc = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    seconds = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {"rc": rc, "seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "minor_faults": usage.ru_minflt - before}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics(run_id)
        out["missing_hooks"] = tracer.missing
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--trace", default=None, metavar="SPANS.json")
    p.add_argument("command", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    sys.path.insert(0, str(HERE.parent / "src"))
    start = time.perf_counter()
    from rvqr import cli
    import tracing
    import_s = time.perf_counter() - start

    tracer = tracing.Tracer() if args.trace else None
    out = execute(cli, command, tracer)
    out["import_s"] = import_s
    if tracer:
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
