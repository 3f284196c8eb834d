"""Batch front end: JSON config in, deterministic CSV/JSON out.

Subcommands
-----------
modes
    Eigenvalues, parities, residuals and chain lengths for one
    operating point, as CSV sorted by |beta|.
dispersion
    Frequency sweep of the wavenumber branches.  Adjacent sweep steps
    are paired by nearest beta per branch, in branch order; a step
    whose jump exceeds 0.25*(1 + |previous beta|) is flagged in the
    `discontinuity` column (as is the birth of a new branch), and rows
    are never reordered to hide it.
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
Large arrays are mapped afresh rather than carved from the heap
(`_heap.map_large_arrays`), so a run's peak memory does not depend on
the runs before it in the same process.  Exit codes: 0 success, 1
failed verification or runtime error, 2 config violation (the message
names the constraint).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._blas import one_thread
from ._heap import map_large_arrays
from .analysis import (
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
    biorthogonalize,
    classify_parity,
    detect_jordan_chains,
    solve_modes,
)
from .oracle import sh_modes_closed_form, stable_solution_check

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "run", "main"]

#: default sector half-angle, the midpoint of the admissible interval
THETA0_DEFAULT = 0.45 * np.pi

#: memory one subcommand may take.  The largest path is verify: its
#: tracemalloc peak is about fourteen 4n x 4n float64 arrays (13.6-13.9 at
#: n = 64 and 128 on both plates), topped by biorthogonalize; the adjoint
#: defect reaches 13.1 and the other subcommands 9.4-11.3 (plus, for
#: dispersion, CSV rows that grow with the steps).  The bound allows 32
MEMORY_BUDGET = 4 * 2 ** 30
N_COLLOC_MAX = math.isqrt(MEMORY_BUDGET // (32 * 16 * 8))

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


def parse_config(doc) -> RunConfig:
    """Validate a decoded JSON document into a RunConfig.

    Raises ConfigError naming the violated constraint: unknown fields,
    missing material fields, non-finite numbers (JSON Infinity or NaN),
    invalid material values (e.g. "h ≤ 0"), n_colloc < 8 or above
    N_COLLOC_MAX (checked before anything is allocated), theta0 outside
    (2*pi/5, pi/2), non-increasing moduli, or a malformed omega_sweep.
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
        moduli = tuple(float(v) for v in raw)
        if not all(math.isfinite(v) for v in moduli):
            raise ConfigError("moduli must be finite")
        if any(v <= 0.0 for v in moduli):
            raise ConfigError("moduli must be positive")
        if any(b <= a for a, b in zip(moduli, moduli[1:])):
            raise ConfigError("moduli must be strictly increasing")

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


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


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
    rows = []
    for i, mode in enumerate(modes):
        rows.append((_fmt(mode.beta.real), _fmt(mode.beta.imag), mode.parity,
                     _fmt(mode.residual), str(lengths.get(i, 1))))
    return _csv(("re_beta", "im_beta", "parity", "residual", "chain_length"), rows)


def _cmd_dispersion(config: RunConfig) -> str:
    if config.omega_sweep is None:
        raise ConfigError("omega_sweep is required for the dispersion subcommand")
    start, stop, steps = config.omega_sweep
    m = config.material
    rows = []
    branches = []          # list of [branch_id, last_beta]
    next_id = 0
    for omega in np.linspace(start, stop, steps):
        material = make_material(m.lam, m.mu, m.rho, m.h, float(omega))
        current = list(_solve(config, material).betas)
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
            rows.append((_fmt(omega), str(branch_id), _fmt(beta.real),
                         _fmt(beta.imag), str(flag)))
            survivors.append([branch_id, beta])
        first_step = not branches
        for j, beta in enumerate(current):
            if used[j]:
                continue
            rows.append((_fmt(omega), str(next_id), _fmt(beta.real),
                         _fmt(beta.imag), "0" if first_step else "1"))
            survivors.append([next_id, beta])
            next_id += 1
        branches = survivors
    return _csv(("omega", "branch", "re_beta", "im_beta", "discontinuity"), rows)


def _scan_moduli(config: RunConfig, modes) -> tuple:
    if config.moduli is not None:
        return config.moduli
    b = measured_b(modes)
    return tuple(np.geomspace(b, 100.0 * b, 9))


def _cmd_resolvent(config: RunConfig) -> str:
    modes = _solve(config)
    scan = resolvent_scan(modes.op, config.theta0, _scan_moduli(config, modes))
    skipped = set(scan.skipped)
    rows = []
    for j, theta in enumerate(scan.rays):
        for k, modulus in enumerate(scan.sample_moduli):
            rows.append((str(j), _fmt(theta), _fmt(modulus),
                         _fmt(scan.norms[j, k]), _fmt(scan.hs_norms[j, k]),
                         str(int((j, modulus) in skipped))))
    return _csv(("ray", "theta", "modulus", "operator_norm", "hs_norm", "skipped"),
                rows)


def _cmd_completeness(config: RunConfig) -> str:
    modes = _solve(config)
    system = biorthogonalize(modes)
    targets = random_trig_fields(modes.op.pencil.grid, 5, config.seed,
                                 vanish_lower=config.bc is BCKind.CLAMPED_FREE)
    ks = tuple(range(1, len(modes) + 1))
    rows = []
    for t, target in enumerate(targets):
        report = expand_field(system, target, ks)
        for k, residual in zip(report.n_modes_used, report.residuals):
            rows.append((str(t), str(k), _fmt(residual)))
    return _csv(("target", "k", "residual"), rows)


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
    worst = max((mode.residual for mode in modes), default=np.inf)
    check("mode_residual_max", worst, config.accept_tol, worst <= config.accept_tol)

    conj_d, neg_d = _closure_defects(modes.betas)
    check("conjugation_closure", conj_d, 1e-6, conj_d <= 1e-6)
    check("negation_closure", neg_d, 1e-6, neg_d <= 1e-6)
    if config.bc is BCKind.FREE_FREE:
        # each label comes from its reflection block; a profile without
        # the labelled symmetry means the split itself went wrong
        unresolved = sum(classify_parity(mode, grid) != mode.parity for mode in modes)
        check("parity_resolved", unresolved, 0, unresolved == 0)

    sh_op = assemble_operator(m, config.n_colloc, BCKind.FREE_FREE, n_channels=1)
    sh_modes = solve_modes(sh_op, accept_tol=config.accept_tol)
    sh_err = np.inf
    if len(sh_modes):
        targets = [t for beta, _shape in sh_modes_closed_form(m, 10) for t in (beta, -beta)]
        sh_err = max(float(np.min(np.abs(sh_modes.betas - t))) for t in targets)
    check("sh_closed_form_error", sh_err, 1e-10, sh_err <= 1e-10)

    xi_beta = rng.standard_normal((10_000, 4))
    sym_err = 0.0
    for x1, x2, b1, b2 in xi_beta:
        xi, beta = complex(x1, x2), complex(b1, b2)
        expected = (m.lam + 2.0 * m.mu) * m.mu * (xi * xi + beta * beta) ** 2
        got = symbol_det_l0(xi, beta, m)
        sym_err = max(sym_err, abs(got - expected) / max(1.0, abs(expected)))
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
        system = biorthogonalize(modes)
        targets = random_trig_fields(grid, 5, config.seed,
                                     vanish_lower=config.bc is BCKind.CLAMPED_FREE)
        ks = tuple(range(1, len(modes) + 1))
        frac = 0.0
        for target in targets:
            report = expand_field(system, target, ks)
            hit = next((k for k, r in zip(ks, report.residuals) if r <= 1e-3), None)
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
    else:
        Path(out).write_text(payload)


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
                _emit(payload, args.out)
                return 0 if passed else 1
            handler = {"modes": _cmd_modes, "dispersion": _cmd_dispersion,
                       "resolvent": _cmd_resolvent,
                       "completeness": _cmd_completeness}[args.command]
            payload = handler(config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (np.linalg.LinAlgError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _emit(payload, args.out)
        return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
