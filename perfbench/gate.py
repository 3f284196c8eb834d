"""Correctness gate: check a job's output against lambspec's oracles.

The roots come from `lambspec.oracle.rayleigh_lamb_roots`, the certified
argument-principle root finder, which shares no code with the collocation
solver under test.  `problems` returns an empty list for a good output and
one line per defect otherwise.  `corruptions` derives damaged copies of a
good output; each must be refused, or the gate itself is broken.
"""

from __future__ import annotations

import csv
import io
import json
import time

import numpy as np

from lambspec.core import BCKind, make_material
from lambspec.oracle import rayleigh_lamb_roots
from workloads import MATERIAL, SWEEP, command

#: largest |beta| compared, and the oracle's search box around it
BETA_MAX = 10.0
BOX = (-10.3, 10.3, -10.3, 10.3)
PAIR_TOL = 1e-8
MODES_RETAINED = 26
#: dispersion sweep steps checked against the oracle, both ends included
DISPERSION_STEPS = (0, 10, 20, 30, 40)
VERIFY_CHECKS = frozenset((
    "retained_modes", "mode_residual_max", "conjugation_closure",
    "negation_closure", "parity_resolved", "sh_closed_form_error",
    "symbol_identity_error", "stable_solution_ode_residual",
    "stable_solution_boundary_error", "coercivity_constant",
    "resolvent_skipped_probes", "resolvent_ray_ratio",
    "nonorthogonality_witness", "adjoint_defect",
    "completeness_mode_fraction", "jordan_chain_certificates"))
PARITIES = ("symmetric", "antisymmetric")


def _material(omega):
    m = MATERIAL
    return make_material(m["lambda"], m["mu"], m["rho"], m["h"], float(omega))


def _sweep():
    return np.linspace(SWEEP["start"], SWEEP["stop"], SWEEP["steps"])


class Gate:
    """The gate of one workload; `roots_s` is the time spent in the oracle."""

    def __init__(self, workload: str):
        self.command = command(workload)
        self.roots_s = 0.0
        self._roots = None

    def _oracle(self, material, parity, bc):
        start = time.perf_counter()
        roots = rayleigh_lamb_roots(material, parity, BOX, bc=bc)
        self.roots_s += time.perf_counter() - start
        return [z for z in roots if abs(z) <= BETA_MAX]

    def roots(self):
        """Reference roots: {parity: roots} for modes, {step: roots} for dispersion."""
        if self._roots is None:
            if self.command == "modes":
                self._roots = {p: self._oracle(_material(3.0), p, BCKind.FREE_FREE)
                               for p in PARITIES}
            elif self.command == "dispersion":
                omegas = _sweep()
                self._roots = {k: self._oracle(_material(omegas[k]), None,
                                               BCKind.CLAMPED_FREE)
                               for k in DISPERSION_STEPS}
            else:
                self._roots = {}
        return self._roots

    def problems(self, text: str) -> list:
        try:
            if self.command == "verify":
                return _verify_problems(text)
            if self.command == "modes":
                return _modes_problems(text, self.roots())
            return _dispersion_problems(text, self.roots())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]


def _rows(text, header):
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != list(header):
        raise ValueError("unexpected CSV header")
    return [row for row in reader]


def _beta(row, re_col, im_col):
    return complex(float(row[re_col]), float(row[im_col]))


def _pairing(betas, roots, label):
    """One-to-one pairing of betas and roots within PAIR_TOL, or problems.

    Returns (problems, root index for each beta).
    """
    if len(betas) != len(roots):
        return [f"{label}: {len(betas)} betas with |beta| <= {BETA_MAX} "
                f"but {len(roots)} oracle roots"], None
    if not roots:
        return [], []
    close = np.abs(np.subtract.outer(np.array(betas), np.array(roots))) <= PAIR_TOL
    problems = []
    if not np.all(close.sum(axis=0) == 1):
        problems.append(f"{label}: {int(np.sum(close.sum(axis=0) != 1))} oracle roots "
                        f"without exactly one beta within {PAIR_TOL}")
    if not np.all(close.sum(axis=1) == 1):
        problems.append(f"{label}: {int(np.sum(close.sum(axis=1) != 1))} betas "
                        f"without exactly one oracle root within {PAIR_TOL}")
    return problems, (None if problems else list(np.argmax(close, axis=1)))


def _modes_problems(text, roots):
    rows = _rows(text, ("re_beta", "im_beta", "parity", "residual", "chain_length"))
    kept = [row for row in rows if abs(_beta(row, 0, 1)) <= BETA_MAX]
    problems = []
    if len(kept) != MODES_RETAINED:
        problems.append(f"{len(kept)} retained betas with |beta| <= {BETA_MAX}, "
                        f"expected {MODES_RETAINED}")
    families = [p for p in PARITIES for _ in roots[p]]
    flat = [z for p in PARITIES for z in roots[p]]
    found, match = _pairing([_beta(row, 0, 1) for row in kept], flat, "modes")
    problems += found
    if match is not None:
        wrong = sum(row[2] != families[j] for row, j in zip(kept, match))
        if wrong:
            problems.append(f"{wrong} parity labels differ from the paired root's family")
    return problems


def _dispersion_problems(text, roots):
    rows = _rows(text, ("omega", "branch", "re_beta", "im_beta", "discontinuity"))
    omegas = _sweep()
    by_step = {}
    index = {float(w): k for k, w in enumerate(omegas)}
    for row in rows:
        k = index.get(float(row[0]))
        if k is None:
            return [f"row at omega {row[0]} is not a sweep step"]
        by_step.setdefault(k, []).append(_beta(row, 2, 3))
    problems = []
    if len(by_step) != len(omegas):
        problems.append(f"{len(by_step)} sweep steps in the output, expected {len(omegas)}")
    for k in DISPERSION_STEPS:
        betas = [b for b in by_step.get(k, []) if abs(b) <= BETA_MAX]
        problems += _pairing(betas, roots[k], f"step {k} (omega {omegas[k]:.3g})")[0]
    return problems


def _verify_problems(text):
    report = json.loads(text)
    names = [check["name"] for check in report["checks"]]
    problems = []
    if sorted(names) != sorted(VERIFY_CHECKS):
        problems.append(f"checks {sorted(set(names) ^ VERIFY_CHECKS)} missing or "
                        f"unexpected, or a check repeated")
    failing = [check["name"] for check in report["checks"] if check["pass"] is not True]
    if failing:
        problems.append(f"failing checks: {failing}")
    if report["passed"] is not True:
        problems.append("report says passed = false")
    return problems


# ----------------------------------------------------------------------
# gate self-check

def _fmt(value):
    return f"{float(value):.17g}"


def _edit_csv(text, pick, edit):
    """Apply edit(fields) to the first data line pick(fields) selects; None drops it."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        fields = line.rstrip("\n").split(",")
        if pick(fields):
            new = edit(fields)
            lines[i] = "" if new is None else ",".join(new) + "\n"
            return "".join(lines)
    raise ValueError("no row to corrupt")


def corruptions(workload: str, text: str) -> dict:
    """Damaged copies of a good output, by name; the gate must refuse each."""
    if command(workload) == "verify":
        report = json.loads(text)
        failed = dict(report, passed=False)
        dropped = dict(report, checks=report["checks"][1:])
        return {"report_passed_false": json.dumps(failed, indent=2) + "\n",
                "check_dropped": json.dumps(dropped, indent=2) + "\n"}

    if command(workload) == "modes":
        re_col, im_col = 0, 1

        def gated(fields):
            return abs(complex(float(fields[re_col]), float(fields[im_col]))) <= BETA_MAX
    else:
        re_col, im_col = 2, 3
        first = float(_sweep()[DISPERSION_STEPS[0]])

        def gated(fields):
            return (float(fields[0]) == first and
                    abs(complex(float(fields[re_col]), float(fields[im_col]))) <= BETA_MAX)

    def moved(fields):
        fields[re_col] = _fmt(float(fields[re_col]) + 1e-6)
        return fields

    out = {"beta_moved_1e-6": _edit_csv(text, gated, moved),
           "row_dropped": _edit_csv(text, gated, lambda fields: None)}
    if command(workload) == "modes":
        def flipped(fields):
            fields[2] = PARITIES[1 - PARITIES.index(fields[2])]
            return fields
        out["parity_flipped"] = _edit_csv(text, gated, flipped)
    return out
