"""Spans around the calls `lambspec.cli` makes into each layer.

The tracer wraps the public names exactly as `lambspec.cli` imports them,
so nothing inside the package changes: a span covers one call from the
CLI into `core`, `discretize`, `eigen`, `oracle` or `analysis`, and each
job is a root span in the `cli` layer.  Counts are taken from the objects
those calls return.  Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

#: the functions `lambspec.cli` imports, by the layer that defines them
TRACED = {
    "core": ("make_material", "symbol_det_l0"),
    "discretize": ("assemble_operator", "sesquilinear_forms"),
    "eigen": ("solve_modes", "detect_jordan_chains", "biorthogonalize"),
    "oracle": ("sh_modes_closed_form", "stable_solution_check"),
    "analysis": ("adjoint_defect", "coercivity_scan", "expand_field", "measured_b",
                 "nonorthogonality_witness", "random_trig_fields", "resolvent_scan"),
}
LAYERS = (*TRACED, "cli")
JOB_SPAN = "cli.run"


class Tracer:
    """Records spans (name, start, end, parent, job) and per-job counts."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None, job id]
        self.counts = {}       # job id -> Counter
        self._stack = []
        self._job = None

    @contextlib.contextmanager
    def _span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self._job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer, fn):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name):
                result = fn(*args, **kwargs)
            self._count(fn.__name__, result)
            return result
        return traced

    def _count(self, fn_name, result):
        c = self.counts[self._job]
        if fn_name == "solve_modes":
            c["eigen.raw_eigs"] += result.raw_count
            c["eigen.retained_modes"] += len(result)
        elif fn_name == "detect_jordan_chains":
            c["eigen.chains"] += len(result)
            c["eigen.defective_chains"] += sum(chain.length > 1 for chain in result)
        elif fn_name == "resolvent_scan":
            c["analysis.resolvent_probes"] += result.norms.size
            c["analysis.resolvent_skipped"] += len(result.skipped)
        elif fn_name == "assemble_operator":
            c["discretize.operator_dim"] = max(c["discretize.operator_dim"],
                                               result.m.shape[0])

    def job(self, cli_module, job_id, fn):
        """Run fn() as one traced job, with the CLI's layer calls wrapped."""
        saved = {name: getattr(cli_module, name) for names in TRACED.values()
                 for name in names}
        for layer, names in TRACED.items():
            for name in names:
                setattr(cli_module, name, self._wrap(layer, saved[name]))
        self._job = job_id
        self.counts[job_id] = Counter()
        try:
            with self._span(JOB_SPAN):
                return fn()
        finally:
            self._job = None
            for name, original in saved.items():
                setattr(cli_module, name, original)

    def summary(self, job_id) -> dict:
        """Per-layer numbers of one job: totals, calls, self times, counts.

        A span's self time is its duration minus that of its children, so
        the layers' self times (with `cli.self_s` for the job span itself)
        add up to the traced job time.
        """
        own = [i for i, span in enumerate(self.spans) if span[4] == job_id]
        self_time = {i: self.spans[i][2] - self.spans[i][1] for i in own}
        for i in own:
            parent = self.spans[i][3]
            if parent is not None:
                self_time[parent] -= self.spans[i][2] - self.spans[i][1]
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for layer, names in TRACED.items():
            for name in names:
                out[f"{layer}.{name}_s"] = 0.0
                out[f"{layer}.{name}.calls"] = 0
        for i in own:
            name, start, end = self.spans[i][:3]
            out[f"{name.split('.')[0]}.self_s"] += self_time[i]
            if name == JOB_SPAN:
                out["job_s.traced"] = end - start
            else:
                out[f"{name}_s"] += end - start
                out[f"{name}.calls"] += 1
        counts = self.counts[job_id]
        for key in ("eigen.raw_eigs", "eigen.retained_modes", "eigen.chains",
                    "eigen.defective_chains", "analysis.resolvent_probes",
                    "analysis.resolvent_skipped", "discretize.operator_dim"):
            out[key] = counts[key]
        out["eigen.retained_ratio"] = (counts["eigen.retained_modes"] / counts["eigen.raw_eigs"]
                                       if counts["eigen.raw_eigs"] else 0.0)
        probes = counts["analysis.resolvent_probes"]
        out["analysis.resolvent_probe_s"] = (out["analysis.resolvent_scan_s"] / probes
                                             if probes else 0.0)
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, span)) for span in self.spans]))
