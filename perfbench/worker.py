"""Run one workload's jobs in a fresh process and report them as JSON.

run.py starts this with `src` on PYTHONPATH and the BLAS thread count
pinned in the environment.  Each job is one `lambspec.cli.run` call with
stdout captured; jobs run back to back (a closed loop with one client).

Kinds of timed job:
  setup   import lambspec.cli, validate the config, print "ready", exit
  plain   untraced jobs
  traced  traced jobs
  paired  an untraced job, then a traced one, repeated
Jobs are timed until the next one would end past --seconds, and at
least one runs.  The last stdout line is the report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--kind", choices=("setup", "plain", "traced", "paired"),
                        required=True)
    parser.add_argument("--warmup", action="store_true",
                        help="run one untimed, untraced job first")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="where to write the spans of traced jobs")
    args = parser.parse_args()

    import lambspec.cli as cli
    cli.load_config(args.config)
    if args.kind == "setup":
        print("ready", flush=True)
        return 0

    argv = [args.command, "--config", args.config]
    tracer = Tracer()
    jobs = []
    outputs = []

    def job(kind):
        buf = io.StringIO()
        job_id = len(jobs)
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if kind == "traced":
                    rc = tracer.job(cli, job_id, lambda: cli.run(argv))
                else:
                    rc = cli.run(argv)
        except Exception:              # a crashed job is a failed job
            rc, error = None, traceback.format_exc()
            print(error, file=sys.stderr)
        seconds = time.perf_counter() - start
        text = buf.getvalue()
        if not outputs:
            outputs.append(text)
        jobs.append({"id": job_id, "kind": kind, "seconds": seconds, "rc": rc,
                     "error": error,
                     "sha256": hashlib.sha256(text.encode()).hexdigest(),
                     "layers": tracer.summary(job_id) if kind == "traced" else None})
        return seconds

    if args.warmup:
        job("warmup")
    cycle = {"plain": ("plain",), "traced": ("traced",),
             "paired": ("plain", "traced")}[args.kind]
    start = time.perf_counter()
    while True:
        last = sum(job(kind) for kind in cycle)
        if time.perf_counter() - start + last > args.seconds:
            break

    if args.spans is not None:
        tracer.write(args.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"jobs": jobs, "reference_output": outputs[0],
                      "peak_rss_mb": peak_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
