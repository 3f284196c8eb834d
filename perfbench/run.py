"""Benchmark of lambspec's CLI workloads, gated by the independent oracles.

Run from the repository root:

    python3 perfbench/run.py --workload modes-free-n128 --seed 1 --seconds 25 --trace 0

With --trace 0 it times the workload end to end, with tracing off: set-up
(fresh interpreter to a validated config) in separate probe processes,
then, in one fresh worker process, an untimed warm-up job and timed jobs
back to back for --seconds.  With --trace 1 it runs untraced and traced
jobs in turn and reports per-layer numbers from the spans, plus one
traced job with BLAS on a single thread (`job_s.blas1`).  Every job's output is
checked by gate.py, and the gate is shown to refuse corrupted copies.

The last stdout line is the result object; the line before it holds the
run's metadata (machine, versions, job-time quartiles, output sha256).
Spans of traced runs go to .perfbench/spans/.  README.md describes the
workloads and what each metric should track.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

from workloads import WORKLOADS, command, config_doc, config_seed

SETUP_PROBES = 5
#: workers are killed once the run is this old, so it ends within 180 s
RUN_DEADLINE_S = 170.0
_STARTED = time.monotonic()


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env(blas_threads):
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                **{var: str(blas_threads) for var in BLAS_VARS})


def _worker_argv(workload, config, *options):
    return [sys.executable, str(HERE / "worker.py"), "--command", command(workload),
            "--config", str(config), *options]


def _setup_seconds(workload, config):
    """Fresh interpreter to `import lambspec.cli` and a validated config."""
    start = time.perf_counter()
    with subprocess.Popen(_worker_argv(workload, config, "--kind", "setup"),
                          cwd=ROOT, env=_env(NPROC), stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if rc != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe failed with exit code {rc}")
    return ready


def _run_worker(workload, config, blas_threads, *options):
    proc = subprocess.run(_worker_argv(workload, config, *options), cwd=ROOT,
                          env=_env(blas_threads), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, RUN_DEADLINE_S - (time.monotonic() - _STARTED)))
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _judge(gate, report, reference_sha):
    """Mark each job of a worker report failed or not; return the gate problems."""
    problems = gate.problems(report["reference_output"])
    for job in report["jobs"]:
        job["failed"] = bool(job["rc"] != 0 or job["sha256"] != reference_sha or problems)
    return problems


def _metadata(workload, seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "config_seed": config_seed(seed),
        "nproc": NPROC, "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": NPROC,
        "git_commit": _git_commit(),
        "src_lines": sum(len(path.read_text().splitlines()) for path in sources),
        "src_sha256": digest.hexdigest(),
    }


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of a git checkout at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _end_to_end(workload, config, seconds):
    setup = [_setup_seconds(workload, config) for _ in range(SETUP_PROBES)]
    report = _run_worker(workload, config, NPROC, "--kind", "plain", "--warmup",
                         "--seconds", str(seconds))
    timed = [job["seconds"] for job in report["jobs"] if job["kind"] == "plain"]
    values = {"setup_s": statistics.median(setup), "job_s": statistics.median(timed),
              "peak_rss_mb": report["peak_rss_mb"]}
    detail = {"setup_s": _quartiles(setup), "job_s": _quartiles(timed)}
    return values, [report], detail


def _traced(workload, config, seconds, seed):
    spans = ROOT / ".perfbench" / "spans"
    report = _run_worker(workload, config, NPROC, "--kind", "paired", "--warmup",
                         "--seconds", str(seconds),
                         "--spans", str(spans / f"{workload}-seed{seed}.json"))
    blas1 = _run_worker(workload, config, 1, "--kind", "traced",
                        "--spans", str(spans / f"{workload}-seed{seed}-blas1.json"))
    layers = [job["layers"] for job in report["jobs"] if job["kind"] == "traced"]
    values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    untraced = statistics.median(job["seconds"] for job in report["jobs"]
                                 if job["kind"] == "plain")
    values["trace.overhead_s"] = values["job_s.traced"] - untraced
    values["job_s.blas1"] = blas1["jobs"][0]["layers"]["job_s.traced"]
    # self times partition each traced job, so this is rounding error only
    sums = [sum(layer[key] for key in layer if key.endswith(".self_s")) - layer["job_s.traced"]
            for layer in layers]
    detail = {"job_s.untraced": untraced, "self_time_sum_error_s": max(map(abs, sums)),
              "traced_jobs": len(layers)}
    return values, [report, blas1], detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lambspec" / "cli.py").is_file():
        print(f"perfbench: no lambspec source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:         # before numpy is first imported
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(ROOT / "src"))
    from gate import Gate, corruptions

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = ROOT / ".perfbench" / "work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(config_doc(args.workload, args.seed)))
        if args.trace:
            values, reports, detail = _traced(args.workload, config, args.seconds, args.seed)
        else:
            values, reports, detail = _end_to_end(args.workload, config, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work)

    gate = Gate(args.workload)
    reference = reports[0]["reference_output"]
    reference_sha = hashlib.sha256(reference.encode()).hexdigest()
    problems = _judge(gate, reports[0], reference_sha)
    if args.trace:
        # another BLAS thread count may round differently, so the
        # single-thread job is gated by the oracle but not compared bytewise
        blas1 = reports[1]
        blas1_sha = blas1["jobs"][0]["sha256"]
        problems += _judge(gate, blas1, blas1_sha)
        detail["blas1_output_identical"] = blas1_sha == reference_sha
        values["oracle.rayleigh_lamb_roots_s"] = gate.roots_s
    # the gate must refuse every corrupted copy of the good output; an
    # output that cannot be corrupted fails the self-check
    try:
        damaged = corruptions(args.workload, reference)
        tripped = {name: bool(gate.problems(bad)) for name, bad in damaged.items()}
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        tripped = {f"corruptions: {exc}": False}
    jobs = [job for report in reports for job in report["jobs"]]
    failed = sum(job["failed"] for job in jobs)

    meta = _metadata(args.workload, args.seed)
    meta.update(detail, output_sha256=reference_sha, gate_problems=problems,
                gate_self_check=tripped, fail_frac=failed / len(jobs),
                jobs=[{key: job[key] for key in ("kind", "seconds", "rc", "failed")}
                      for job in jobs])
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0 and bool(tripped) and all(tripped.values()),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
