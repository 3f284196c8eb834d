"""Batch front end: JSON config in, deterministic CSV/JSON out.

Subcommands
-----------
modes
    Eigenvalues, parities, residuals and chain lengths for one
    operating point, as CSV sorted by |beta|.
dispersion
    Frequency sweep of the wavenumber branches.  The steps are solved
    in parallel, one process per CPU the run may use (_sweep_workers),
    then adjacent steps are paired by nearest beta per branch, in
    branch order; a step whose jump exceeds 0.25*(1 + |previous beta|)
    is flagged in the `discontinuity` column (as is the birth of a new
    branch), and rows are never reordered to hide it.
resolvent
    Energy-metric resolvent norms along the five admissible rays.
completeness
    Least-squares expansion residuals of seeded smooth targets over
    the retained mode profiles.
verify
    The full invariant suite as a JSON report; exit code 0 only if
    every check passes.

Determinism: all randomness is derived from the config seed, every float
is written with 17 significant digits, and every subcommand runs on one
BLAS thread whatever the environment asks for (`_blas.one_thread`), so
identical configs give byte-identical output at any BLAS thread count.
A sweep's worker processes each run the serial code path on the one BLAS
thread they inherit, so its output does not depend on the worker count
either.  A run fixes the process's malloc thresholds (`_heap.map_large_arrays`),
so repeated solves reuse the heap instead of handing it back and
faulting it in again.  Exit codes: 0 success, 1 failed verification or
runtime error, 2 config violation or an unwritable --out (the message
names the constraint).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._blas import one_thread
from ._heap import map_large_arrays
from .analysis import (
    _checked_moduli,
    adjoint_defect,
    coercivity_scan,
    expand_field,
    measured_b,
    nonorthogonality_witness,
    random_trig_fields,
    resolvent_scan,
    THETA0_MAX,
    THETA0_MIN,
)
from .core import BCKind, Material, make_material, symbol_det_l0
from .discretize import assemble_operator, sesquilinear_forms
from .eigen import (
    DEFECT_PAIR_TOL,
    ModeSet,
    _cluster_indices,
    biorthogonalize,  # unused here; tests and perfbench's tracer wrap it by name
    classify_parity,
    detect_jordan_chains,
    solve_modes,
)
from .oracle import sh_modes_closed_form, stable_solution_check

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "run", "main"]

#: default sector half-angle, the midpoint of the admissible interval
THETA0_DEFAULT = 0.45 * np.pi

#: memory one subcommand may take.  The largest path is verify: its
#: tracemalloc peak is about twelve 4n x 4n float64 arrays (11.6-12.0 at n =
#: 64 and 128 on both plates), set by the adjoint defect (free-free) or the
#: resolvent scan (clamped); modes peaks in solve_modes at 8.4-10.8.  The
#: bound allows 32
MEMORY_BUDGET = 4 * 2 ** 30
N_COLLOC_MAX = math.isqrt(MEMORY_BUDGET // (32 * 16 * 8))
#: one solve_modes peak in 4n x 4n float64 arrays, the 8.4-10.8 above rounded up
SOLVE_ARRAYS = 11
#: memory per dispersion CSV row.  Each row is held as its one joined line;
#: from the sweep's start, tracemalloc peaks in _csv at 227 B a row when every
#: number prints at full length and branch ids have 3 digits (180 B a row on
#: the dispersion-clamped-n32 sweep).  Ids of up to 8 digits, the most a
#: budgeted sweep can number, add 10 B.  A step writes at most 4 n_colloc
#: rows, one per finite eigenvalue, and the rows share the budget with one
#: solve.
CSV_ROW_BYTES = 240
#: the range the largest collocated entry must lie in: norms and products
#: square the entries, so their squares must be finite normal floats
ENTRY_MIN = math.sqrt(sys.float_info.min)
ENTRY_MAX = math.sqrt(sys.float_info.max)

_BC_NAMES = {"free-free": BCKind.FREE_FREE, "clamped-free": BCKind.CLAMPED_FREE}
_REQUIRED_KEYS = ("lambda", "mu", "rho", "h", "omega")
_OPTIONAL_KEYS = ("bc", "n_colloc", "accept_tol", "chain_tol", "theta0",
                  "moduli", "omega_sweep", "seed")
_SWEEP_KEYS = ("start", "stop", "steps")


class ConfigError(ValueError):
    """A config document violates a constraint (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by all subcommands."""

    material: Material
    bc: BCKind
    n_colloc: int
    accept_tol: float
    chain_tol: float
    theta0: float
    moduli: tuple | None
    omega_sweep: tuple | None
    seed: int


def _number(doc, key, default=None):
    if key not in doc:
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite")
    return float(value)


def _integer(doc, key, default):
    if key not in doc:
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer")
    return value


def _check_scale(material: Material, n_colloc: int) -> None:
    """Reject a material whose collocated entries leave [ENTRY_MIN, ENTRY_MAX].

    The largest entries of the pencil at the 2n reference are about
    (λ+2μ)(2n)⁴/h², from the second derivative, and ω²ρ.  Above the
    range LAPACK is handed inf and prints its complaints to stdout; below
    it the operator is flushed to zero.
    """
    stiffness = (material.lam + 2.0 * material.mu) / material.h / material.h \
        * (2 * n_colloc) ** 4
    if not ENTRY_MIN <= stiffness <= ENTRY_MAX:
        raise ConfigError(f"invalid scale: (λ+2μ)(2n)⁴/h² = {stiffness:.3g} at "
                          f"n_colloc={n_colloc} outside [{ENTRY_MIN:.3g}, {ENTRY_MAX:.3g}]")
    if material.omega ** 2 * material.rho > ENTRY_MAX:
        raise ConfigError(f"invalid scale: ω²ρ above {ENTRY_MAX:.3g}")


def parse_config(doc) -> RunConfig:
    """Validate a decoded JSON document into a RunConfig.

    Raises ConfigError naming the violated constraint: unknown fields,
    missing material fields, non-finite numbers (JSON Infinity or NaN),
    invalid material values (e.g. "h ≤ 0", or an omega whose omega^2 rho
    overflows, at omega and at the sweep's stop), n_colloc < 8 or above
    N_COLLOC_MAX (checked before anything is allocated), collocated
    entries outside [ENTRY_MIN, ENTRY_MAX] (_check_scale), theta0 outside
    (2*pi/5, pi/2), moduli that are non-increasing or whose squares
    overflow, or a malformed omega_sweep or one whose rows could exceed
    MEMORY_BUDGET.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in doc:
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise ConfigError(f"unknown config field {key!r}")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise ConfigError(f"missing config field {key!r}")

    try:
        material = make_material(_number(doc, "lambda"), _number(doc, "mu"),
                                 _number(doc, "rho"), _number(doc, "h"),
                                 _number(doc, "omega"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    bc_name = doc.get("bc", "free-free")
    if bc_name not in _BC_NAMES:
        raise ConfigError(f"bc must be one of {sorted(_BC_NAMES)}, got {bc_name!r}")

    n_colloc = _integer(doc, "n_colloc", 64)
    if n_colloc < 8:
        raise ConfigError("n_colloc < 8")
    if n_colloc > N_COLLOC_MAX:
        raise ConfigError(f"n_colloc > {N_COLLOC_MAX}: a run could exceed the "
                          f"{MEMORY_BUDGET / 2 ** 30:g} GiB memory budget")
    _check_scale(material, n_colloc)
    accept_tol = _number(doc, "accept_tol", 1e-8)
    if accept_tol <= 0.0:
        raise ConfigError("accept_tol ≤ 0")
    chain_tol = _number(doc, "chain_tol", 1e-6)
    if chain_tol <= 0.0:
        raise ConfigError("chain_tol ≤ 0")
    theta0 = _number(doc, "theta0", THETA0_DEFAULT)
    if not (THETA0_MIN < theta0 < THETA0_MAX):
        raise ConfigError("theta0 outside (2*pi/5, pi/2)")
    seed = _integer(doc, "seed", 0)
    if seed < 0:
        raise ConfigError("seed < 0")

    moduli = None
    if "moduli" in doc:
        raw = doc["moduli"]
        if (not isinstance(raw, list) or not raw
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)):
            raise ConfigError("moduli must be a non-empty list of numbers")
        try:
            moduli = _checked_moduli(raw)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    omega_sweep = None
    if "omega_sweep" in doc:
        raw = doc["omega_sweep"]
        if not isinstance(raw, dict):
            raise ConfigError("omega_sweep must be an object")
        for key in raw:
            if key not in _SWEEP_KEYS:
                raise ConfigError(f"unknown omega_sweep field {key!r}")
        for key in _SWEEP_KEYS:
            if key not in raw:
                raise ConfigError(f"missing omega_sweep field {key!r}")
        start = _number(raw, "start")
        stop = _number(raw, "stop")
        steps = _integer(raw, "steps", None)
        if steps is None:
            raise ConfigError("omega_sweep steps must be an integer")
        if start <= 0.0:
            raise ConfigError("omega_sweep start ≤ 0")
        if stop <= start:
            raise ConfigError("omega_sweep stop ≤ start")
        if steps < 2:
            raise ConfigError("omega_sweep steps < 2")
        try:  # the largest omega of the sweep, before any step runs
            _check_scale(make_material(material.lam, material.mu, material.rho,
                                       material.h, stop), n_colloc)
        except ValueError as exc:
            raise ConfigError(f"omega_sweep stop: {exc}") from exc
        rows_budget = MEMORY_BUDGET - SOLVE_ARRAYS * (4 * n_colloc) ** 2 * 8
        if steps > (max_steps := rows_budget // (4 * n_colloc * CSV_ROW_BYTES)):
            raise ConfigError(f"omega_sweep steps > {max_steps} at n_colloc={n_colloc}: rows "
                              f"could exceed the {MEMORY_BUDGET / 2 ** 30:g} GiB memory budget")
        omega_sweep = (start, stop, steps)

    return RunConfig(material=material, bc=_BC_NAMES[bc_name], n_colloc=n_colloc,
                     accept_tol=accept_tol, chain_tol=chain_tol, theta0=theta0,
                     moduli=moduli, omega_sweep=omega_sweep, seed=seed)


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


# ----------------------------------------------------------------------
# emission helpers

def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _csv(header, lines) -> str:
    """The CSV text: the header, then one line per row, each ending in a newline.

    The subcommands join each row into its line as they go, so a row is
    held as one str, and the text is the one join of those lines.
    """
    return "\n".join([",".join(header), *lines, ""])


def _solve(config: RunConfig, material: Material | None = None) -> ModeSet:
    op = assemble_operator(material or config.material, config.n_colloc, config.bc)
    return solve_modes(op, accept_tol=config.accept_tol)


# ----------------------------------------------------------------------
# subcommands

def _cmd_modes(config: RunConfig) -> str:
    modes = _solve(config)
    chains = detect_jordan_chains(modes, chain_tol=config.chain_tol)
    lengths = {}
    for chain in chains:
        for idx in chain.mode_indices:
            lengths[idx] = max(lengths.get(idx, 1), chain.length)
    lines = [f"{_fmt(b.real)},{_fmt(b.imag)},{p},{_fmt(r)},{lengths.get(i, 1)}"
             for i, (b, p, r) in enumerate(zip(modes.betas, modes.parity, modes.residuals))]
    return _csv(("re_beta", "im_beta", "parity", "residual", "chain_length"), lines)


def _sweep_workers(cpus: int, steps: int, n_colloc: int) -> int:
    """How many processes solve a sweep's steps at once.

    One per CPU, at most one per step, and no more concurrent solves
    than MEMORY_BUDGET holds beside the gathered betas: 16 B each, at
    most 4 n_colloc a step, counted twice for the copy a worker hands
    over.  At n_colloc = N_COLLOC_MAX that is 2.
    """
    solve = SOLVE_ARRAYS * (4 * n_colloc) ** 2 * 8
    betas = 2 * steps * 4 * n_colloc * 16
    return max(1, min(cpus, steps, (MEMORY_BUDGET - betas) // solve))


def _solve_share(config: RunConfig, omegas, first: int, stride: int) -> tuple:
    """Solve sweep steps first, first + stride, ... in order.

    Returns (betas of each step, None), or, from the first step that
    raises, (betas of the steps before it, (step, exception)).
    """
    m = config.material
    betas = []
    for step in range(first, len(omegas), stride):
        try:
            material = make_material(m.lam, m.mu, m.rho, m.h, float(omegas[step]))
            betas.append(_solve(config, material).betas)
        except Exception as exc:
            return betas, (step, exc)
    return betas, None


def _start_worker(config: RunConfig, omegas, share: int, workers: int, inherited) -> tuple:
    """Fork a process that solves one share and pickles its report to a pipe.

    Returns (pid, read end).  The child closes the read ends it inherited
    (those of earlier workers), so once the parent is gone a broken pipe
    ends it, and it leaves through os._exit whatever happens: it never
    returns into the caller's frames.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            for pipe in inherited:
                pipe.close()
            report = _solve_share(config, omegas, share, workers)
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(report, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _sweep_betas(config: RunConfig, omegas) -> list:
    """Each step's betas, from _sweep_workers processes solving the steps at once.

    Share k is steps k, k + workers, ...  The parent forks one worker per
    share but the first, solves share 0 itself (and any share it could
    not fork), then reads each worker's report.  Every process runs
    _solve as the serial loop does, so the betas are the same bits at
    any worker count; with one worker nothing is forked.  The exception
    of the earliest step that raised is re-raised; a worker that ends
    without a report raises ChildProcessError.  Every worker is reaped,
    and killed first when the parent unwinds early, before this returns.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = _sweep_workers(cpus, len(omegas), config.n_colloc)
    children = {}                      # share -> (pid, read end)
    local = [0]
    reports = {}
    try:
        sys.stdout.flush()             # so no buffered output is written twice
        sys.stderr.flush()
        for share in range(1, workers):
            try:
                children[share] = _start_worker(config, omegas, share, workers,
                                                 [pipe for _, pipe in children.values()])
            except OSError:            # no process or pipe to spare
                local.append(share)
        for share in local:
            reports[share] = _solve_share(config, omegas, share, workers)
        for share, (pid, pipe) in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[share]
            try:
                reports[share] = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):    # none, or cut short
                code = os.waitstatus_to_exitcode(status)
                ended = (f"exited with status {code}" if code >= 0 else
                         f"was killed by signal {-code} ({signal.strsignal(-code)})")
                raise ChildProcessError(
                    f"dispersion worker {share} {ended} before it reported") from None
    finally:
        for pid, pipe in children.values():
            pipe.close()
            # the suppression covers a worker reaped just before an interrupt
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [failure for _, failure in reports.values() if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    betas = [None] * len(omegas)
    for share, (solved, _) in reports.items():
        betas[share::workers] = solved
    return betas


def _cmd_dispersion(config: RunConfig) -> str:
    if config.omega_sweep is None:
        raise ConfigError("omega_sweep is required for the dispersion subcommand")
    omegas = np.linspace(*config.omega_sweep)
    solved = _sweep_betas(config, omegas)
    lines = []
    branches = []          # list of [branch_id, last_beta]
    next_id = 0
    for step, omega in enumerate(omegas):
        current = list(solved[step])
        solved[step] = None    # each step's betas go as its rows are made
        used = [False] * len(current)
        survivors = []
        for branch_id, last in branches:
            best, best_d = None, np.inf
            for j, beta in enumerate(current):
                if not used[j] and abs(beta - last) < best_d:
                    best, best_d = j, abs(beta - last)
            if best is None:
                continue               # branch ends: fewer modes retained
            used[best] = True
            beta = current[best]
            flag = int(best_d > 0.25 * (1.0 + abs(last)))
            lines.append(f"{_fmt(omega)},{branch_id},{_fmt(beta.real)},"
                         f"{_fmt(beta.imag)},{flag}")
            survivors.append([branch_id, beta])
        first_step = not branches
        for j, beta in enumerate(current):
            if used[j]:
                continue
            lines.append(f"{_fmt(omega)},{next_id},{_fmt(beta.real)},"
                         f"{_fmt(beta.imag)},{0 if first_step else 1}")
            survivors.append([next_id, beta])
            next_id += 1
        branches = survivors
    return _csv(("omega", "branch", "re_beta", "im_beta", "discontinuity"), lines)


def _scan_moduli(config: RunConfig, modes) -> tuple:
    """The config's moduli verbatim, or the resolved part of b .. 100 b.

    The default takes geomspace(b, 100 b, 9) for the measured b and keeps
    its leading moduli up to the largest retained |beta|.  Above it the
    grid does not resolve the operator: there the norms at n = 64 and
    n = 256 differ by up to 180%, against under 1% below.  At least two
    are kept, since a ray ratio compares two moduli and an empty
    spectrum has no largest |beta|.
    """
    if config.moduli is not None:
        return config.moduli
    b = measured_b(modes)
    moduli = np.geomspace(b, 100.0 * b, 9)
    reach = np.max(np.abs(modes.betas), initial=0.0)
    return tuple(moduli[:max(2, int(np.count_nonzero(moduli <= reach)))])


def _cmd_resolvent(config: RunConfig) -> str:
    modes = _solve(config)
    scan = resolvent_scan(modes.op, config.theta0, _scan_moduli(config, modes))
    skipped = set(scan.skipped)
    lines = [f"{j},{_fmt(theta)},{_fmt(modulus)},{_fmt(scan.norms[j, k])},"
             f"{_fmt(scan.hs_norms[j, k])},{int((j, modulus) in skipped)}"
             for j, theta in enumerate(scan.rays)
             for k, modulus in enumerate(scan.sample_moduli)]
    return _csv(("ray", "theta", "modulus", "operator_norm", "hs_norm", "skipped"),
                lines)


def _expansions(config: RunConfig, modes: ModeSet) -> list:
    """Expansion reports of five seeded targets over k = 1 .. all retained modes.

    The targets are random_trig_fields of the config seed, vanishing on
    the lower face of the clamped plate; modes enter in |beta| order.
    """
    targets = random_trig_fields(modes.op.pencil.grid, 5, config.seed,
                                 vanish_lower=config.bc is BCKind.CLAMPED_FREE)
    ks = tuple(range(1, len(modes) + 1))
    return [expand_field(modes, target, ks) for target in targets]


def _cmd_completeness(config: RunConfig) -> str:
    lines = [f"{t},{k},{_fmt(residual)}"
             for t, report in enumerate(_expansions(config, _solve(config)))
             for k, residual in zip(report.n_modes_used, report.residuals)]
    return _csv(("target", "k", "residual"), lines)


def _closure_defects(betas: np.ndarray) -> tuple:
    """Relative distances of the spectrum from closure under conjugation and negation.

    A split defective eigenvalue is only sqrt(eps) accurate in each half,
    so each DEFECT_PAIR_TOL group counts by its mean, as solve_modes
    matches it.  Both read inf on an empty spectrum.
    """
    groups = _cluster_indices(1j * betas, DEFECT_PAIR_TOL)
    means = np.array([np.mean(betas[list(group)]) for group in groups])
    conj_d = max((np.min(np.abs(means - np.conj(b))) / (1.0 + abs(b)) for b in means),
                 default=np.inf)
    neg_d = max((np.min(np.abs(means + b)) / (1.0 + abs(b)) for b in means),
                default=np.inf)
    return conj_d, neg_d


def _verify_checks(config: RunConfig) -> list:
    rng = np.random.default_rng(config.seed)
    m = config.material
    checks = []

    def check(name, measured, threshold, ok):
        checks.append({"name": name, "measured": float(measured),
                       "threshold": float(threshold), "pass": bool(ok)})

    modes = _solve(config)
    op, grid = modes.op, modes.op.pencil.grid
    check("retained_modes", len(modes), 1, len(modes) >= 1)

    # statistics over the retained modes read inf on an empty spectrum,
    # so their checks fail instead of passing vacuously
    worst = max(modes.residuals, default=np.inf)
    check("mode_residual_max", worst, config.accept_tol, worst <= config.accept_tol)

    conj_d, neg_d = _closure_defects(modes.betas)
    check("conjugation_closure", conj_d, 1e-6, conj_d <= 1e-6)
    check("negation_closure", neg_d, 1e-6, neg_d <= 1e-6)
    if config.bc is BCKind.FREE_FREE:
        # each label comes from its reflection block; a profile without
        # the labelled symmetry means the split itself went wrong
        unresolved = sum(classify_parity(v, grid) != p
                         for v, p in zip(modes.states[:op.mask.size // 2].T, modes.parity))
        check("parity_resolved", unresolved, 0, unresolved == 0)

    sh_op = assemble_operator(m, config.n_colloc, BCKind.FREE_FREE, n_channels=1)
    sh_modes = solve_modes(sh_op, accept_tol=config.accept_tol)
    sh_err = np.inf
    if len(sh_modes):
        targets = [t for beta, _shape in sh_modes_closed_form(m, 10) for t in (beta, -beta)]
        sh_err = max(float(np.min(np.abs(sh_modes.betas - t))) for t in targets)
    check("sh_closed_form_error", sh_err, 1e-10, sh_err <= 1e-10)

    # the entries come from the pencil blocks, the closed form from the
    # material, so a defective block shows here
    xi, beta = rng.standard_normal((10_000, 4)).view(complex).T
    expected = (m.lam + 2.0 * m.mu) * m.mu * (xi * xi + beta * beta) ** 2
    got = symbol_det_l0(xi, beta, m)
    sym_err = np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected)))
    check("symbol_identity_error", sym_err, 1e-12, sym_err <= 1e-12)

    ode_err, bnd_err = 0.0, 0.0
    for _ in range(20):
        angle = rng.uniform(-0.95 * THETA0_MIN, 0.95 * THETA0_MIN)
        beta = (1.0 + 9.0 * rng.random()) * np.exp(1j * angle)
        for gamma in (1, -1):
            report = stable_solution_check(m, beta, gamma)
            ode_err = max(ode_err, max(report.ode_residuals))
            bnd_err = max(bnd_err, abs(report.boundary_det + beta) / abs(beta))
    check("stable_solution_ode_residual", ode_err, 1e-10, ode_err <= 1e-10)
    check("stable_solution_boundary_error", bnd_err, 1e-12, bnd_err <= 1e-12)

    forms = sesquilinear_forms(m, grid)
    coercivity = coercivity_scan(forms, 0.5, 200, seed=config.seed)
    check("coercivity_constant", coercivity.c_const, 0.0, coercivity.c_const > 0.0)

    scan = resolvent_scan(op, config.theta0, _scan_moduli(config, modes))
    check("resolvent_skipped_probes", len(scan.skipped), 0, not scan.skipped)
    ratio = 0.0
    for j in range(scan.norms.shape[0]):
        row = scan.norms[j]
        if np.isnan(row[0]) or np.all(np.isnan(row)):
            ratio = np.inf
            break
        ratio = max(ratio, float(np.nanmax(row) / row[0]))
    check("resolvent_ray_ratio", ratio, 2.0, ratio <= 2.0)

    witness = nonorthogonality_witness(modes)[1] if len(modes) >= 2 else 0.0
    check("nonorthogonality_witness", witness, 0.01, witness >= 0.01)
    if config.bc is BCKind.FREE_FREE:
        # the boundary rows can be solved for the U2 face values only
        # when every one of them reaches U2, i.e. for traction rows on
        # both faces (analysis._eliminated_operator)
        defect = adjoint_defect(op)
        check("adjoint_defect", defect, 0.01, defect >= 0.01)

    frac = np.inf
    if len(modes):
        frac = 0.0
        for report in _expansions(config, modes):
            hit = next((k for k, r in zip(report.n_modes_used, report.residuals)
                        if r <= 1e-3), None)
            frac = max(frac, np.inf if hit is None else hit / len(modes))
    check("completeness_mode_fraction", frac, 0.8, frac <= 0.8)

    chains = detect_jordan_chains(modes, chain_tol=config.chain_tol)
    cert = max((max(chain.relation_residuals) for chain in chains), default=0.0)
    check("jordan_chain_certificates", cert, config.chain_tol,
          cert <= config.chain_tol)
    return checks


def _cmd_verify(config: RunConfig):
    checks = _verify_checks(config)
    passed = all(check["pass"] for check in checks)
    payload = json.dumps({"checks": checks, "passed": passed}, indent=2) + "\n"
    return payload, passed


# ----------------------------------------------------------------------
# entry points

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambspec",
        description="Spectral solver and verification suite for plate "
                    "waveguide modes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("modes", "eigenvalues and mode data for one operating point"),
            ("dispersion", "frequency sweep of the wavenumber branches"),
            ("resolvent", "resolvent norms along the five admissible rays"),
            ("completeness", "expansion residuals of seeded smooth targets"),
            ("verify", "run the invariant suite; exit 0 only if all pass")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
    return parser


def _emit(payload: str, out) -> None:
    if out is None:
        sys.stdout.write(payload)
        return
    try:
        Path(out).write_text(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def run(argv) -> int:
    """Parse arguments, run one subcommand on one BLAS thread, return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    map_large_arrays()
    with one_thread():
        try:
            config = load_config(args.config)
            if args.command == "verify":
                payload, passed = _cmd_verify(config)
            else:
                handler = {"modes": _cmd_modes, "dispersion": _cmd_dispersion,
                           "resolvent": _cmd_resolvent,
                           "completeness": _cmd_completeness}[args.command]
                payload, passed = handler(config), True
            _emit(payload, args.out)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (np.linalg.LinAlgError, ValueError, ChildProcessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0 if passed else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
