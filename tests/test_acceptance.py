"""Acceptance gate: eleven numbered criteria, one PASS/FAIL line each.

Each test prints (and registers for the terminal summary block) a single
verdict line ``[criterion NN] PASS|FAIL <name>: <measured details>`` and
then asserts the verdict, so a plain pytest run shows every criterion's
outcome.  Expected values come from the frozen analytic references in
``reference_data``; the tolerances pinned below are the acceptance
thresholds themselves.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import record_acceptance_line
from lambspec import (
    BCKind,
    PARITY_SYMMETRIC,
    adjoint_defect,
    assemble_operator,
    biorthogonalize,
    coercivity_scan,
    detect_jordan_chains,
    expand_field,
    find_zero_group_velocity_point,
    make_material,
    measured_b,
    nonorthogonality_witness,
    quadratic_form_value,
    random_trig_fields,
    resolvent_norms,
    resolvent_scan,
    sesquilinear_forms,
    solve_modes,
    stable_solution_check,
    symbol_det_l0,
)
from reference_data import (
    ANTI_ROOTS,
    CLAMPED_ROOTS,
    SH_BETAS,
    SYM_ROOTS,
    ZGV_BETA,
    ZGV_OMEGA,
    bijection_defect,
)

THETA0 = 0.45 * np.pi


def _verdict(number, name, passed, detail):
    line = f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
    record_acceptance_line(line)
    print(line)
    assert passed, line


def _inside(roots, radius=10.0):
    return [z for z in roots if abs(z) <= radius]


def _first_hit(report, threshold=1e-3):
    for k, residual in zip(report.n_modes_used, report.residuals):
        if residual <= threshold:
            return k
    return None


# ----------------------------------------------------------------------


def test_criterion_01_mode_bijection_and_runtime(bench):
    start = time.perf_counter()
    op = assemble_operator(bench, 64, BCKind.FREE_FREE)
    modes = solve_modes(op)
    elapsed = time.perf_counter() - start

    oracle = _inside(SYM_ROOTS + ANTI_ROOTS)
    discrete = _inside(modes.betas)
    counts_match = len(oracle) == len(discrete) == 26
    defect = bijection_defect(oracle, discrete) if counts_match else np.inf
    passed = counts_match and defect <= 1e-8 and elapsed <= 5.0
    _verdict(1, "benchmark spectrum matches certified roots", passed,
             f"{len(discrete)} eigenvalues inside |beta| <= 10, "
             f"worst pairing {defect:.2e} (tol 1e-08), solve {elapsed:.2f}s "
             f"(limit 5s)")


def test_criterion_02_sh_closed_form(sh_modes):
    betas = sh_modes.betas
    worst = 0.0
    for beta_n in SH_BETAS:
        for signed in (beta_n, -beta_n):
            worst = max(worst, float(np.min(np.abs(betas - signed))))
    _verdict(2, "shear-horizontal spectrum vs closed form", worst <= 1e-10,
             f"branches 0..10 both signs, worst distance {worst:.2e} "
             f"(tol 1e-10)")


def test_criterion_03_symbol_determinant_identity(bench):
    rng = np.random.default_rng(0)
    front = (bench.lam + 2.0 * bench.mu) * bench.mu
    worst = 0.0
    for _ in range(10_000):
        xi = complex(*rng.uniform(-3.0, 3.0, 2))
        beta = complex(*rng.uniform(-3.0, 3.0, 2))
        lhs = symbol_det_l0(xi, beta, bench)
        rhs = front * (xi * xi + beta * beta) ** 2
        scale = front * max(1.0, abs(xi) ** 2 + abs(beta) ** 2) ** 2
        worst = max(worst, abs(lhs - rhs) / scale)
    _verdict(3, "principal symbol determinant factorizes", worst <= 1e-12,
             f"10000 random (xi, beta), worst relative error {worst:.2e} "
             f"(tol 1e-12)")


def test_criterion_04_half_space_stable_solutions(bench):
    rng = np.random.default_rng(1)
    worst_ode, worst_boundary = 0.0, 0.0
    for _ in range(100):
        radius = rng.uniform(0.5, 4.0)
        angle = rng.uniform(-THETA0, THETA0)
        beta = radius * np.exp(1j * angle) * rng.choice([1.0, -1.0])
        for gamma in (1, -1):
            report = stable_solution_check(bench, beta, gamma)
            worst_ode = max(worst_ode, float(max(report.ode_residuals)))
            worst_boundary = max(
                worst_boundary,
                abs(report.boundary_det + beta) / max(1.0, abs(beta)))
    passed = worst_ode <= 1e-10 and worst_boundary <= 1e-12
    _verdict(4, "half-space solutions decay and close the boundary system",
             passed,
             f"100 sector wavenumbers x both orientations, worst interior "
             f"residual {worst_ode:.2e} (tol 1e-10), worst boundary "
             f"determinant error {worst_boundary:.2e} (tol 1e-12)")


def test_criterion_05_sector_coercivity(bench_forms):
    report = coercivity_scan(bench_forms, 0.5, 1000, seed=0)
    coercive = [q for beta, q in report.samples
                if abs(beta.real) >= report.beta0]
    scan_ok = (report.c_const > 0.0 and len(coercive) >= 20
               and min(coercive) >= report.c_const - 1e-12)

    material = bench_forms.material
    n = bench_forms.grid.n
    constant = np.concatenate([np.ones(n), np.zeros(n)])
    worst_const = 0.0
    for a in (0.5, 1.0, 2.0, 4.0):
        expected = 2.0 * material.h * (material.mu * a * a
                                       - material.rho * material.omega ** 2)
        for method in ("factored", "matrices"):
            value = quadratic_form_value(bench_forms, a, constant,
                                         method=method)
            worst_const = max(worst_const,
                              abs(value - expected) / max(1.0, abs(expected)))
    passed = scan_ok and worst_const <= 1e-12
    _verdict(5, "shifted form is coercive beyond beta0", passed,
             f"alpha=0.5, 1000 fields: C={report.c_const:.4f} > 0 over "
             f"{len(coercive)} sector points past beta0={report.beta0:.3g}; "
             f"constant-field identity error {worst_const:.2e} (tol 1e-12)")


def test_criterion_06_resolvent_ray_bound(bench_op, bench_modes):
    bound = measured_b(bench_modes)
    moduli = np.geomspace(bound, 100.0 * bound, 9)  # two decades
    scan = resolvent_scan(bench_op, THETA0, moduli)
    ratios = [float(np.max(row) / row[0]) for row in scan.norms]

    conj_err = 0.0
    for theta in scan.rays:
        z = bound * np.exp(1j * theta)
        op_norm, _ = resolvent_norms(bench_op, z)
        op_norm_c, _ = resolvent_norms(bench_op, np.conj(z))
        conj_err = max(conj_err, abs(op_norm - op_norm_c) / op_norm)

    passed = (scan.skipped == () and np.all(np.isfinite(scan.norms))
              and max(ratios) <= 2.0 and conj_err <= 1e-10)
    _verdict(6, "resolvent stays bounded along the five rays", passed,
             f"theta0=0.45pi, moduli {bound:.3g}..{100 * bound:.3g}: "
             f"sup/first ratio {max(ratios):.3f} (limit 2), "
             f"0 skipped probes, conjugation symmetry {conj_err:.2e} "
             f"(tol 1e-10)")


def test_criterion_07_hilbert_schmidt_proxy_grid_stability(bench):
    bound = 12.588528429245384  # measured_b at n = 64, frozen
    rays = (np.pi / 2.0, np.pi / 2.0 + 2.0 * np.pi / 5.0)
    probes = [bound * np.exp(1j * theta) for theta in rays]
    values = {}
    for n in (128, 256):
        op = assemble_operator(bench, n, BCKind.FREE_FREE)
        values[n] = [resolvent_norms(op, z)[1] for z in probes]
    drift = max(abs(a - b) / b for a, b in zip(values[128], values[256]))
    _verdict(7, "Hilbert-Schmidt proxy is grid-stable", drift <= 0.10,
             f"n=128 vs n=256 at two ray probes, worst relative drift "
             f"{drift:.3f} (limit 0.10)")


def test_criterion_08_non_self_adjointness(bench_modes, bench_op):
    _pair, witness = nonorthogonality_witness(bench_modes)
    defect = adjoint_defect(bench_op)
    passed = witness >= 0.01 and defect >= 0.01
    _verdict(8, "eigensystem is measurably non-orthogonal", passed,
             f"witness {witness:.4f} (floor 0.01), energy adjoint defect "
             f"{defect:.4f} (floor 0.01)")


def test_criterion_09_completeness_free(bench):
    op = assemble_operator(bench, 96, BCKind.FREE_FREE)
    modes = solve_modes(op)
    system = biorthogonalize(modes)
    targets = random_trig_fields(op.pencil.grid, 5, seed=0)
    ks = tuple(range(1, len(modes) + 1))
    cap = int(0.8 * len(modes))
    hits, monotone = [], True
    for target in targets:
        report = expand_field(system, target, ks)
        monotone &= all(b - a <= 1e-14 for a, b in
                        zip(report.residuals, report.residuals[1:]))
        hits.append(_first_hit(report))
    passed = monotone and all(k is not None and k <= cap for k in hits)
    _verdict(9, "retained modes expand smooth displacement fields", passed,
             f"5 seeded targets at n=96: residual <= 1e-3 within "
             f"k <= {max(hits)} of {len(modes)} modes (cap {cap}), "
             f"residuals nonincreasing: {monotone}")


def test_criterion_10_jordan_chain_at_double_root(bench, bench_modes,
                                                  bench_op):
    omega, beta = find_zero_group_velocity_point(
        bench, PARITY_SYMMETRIC, (0.3, 1.2), (2.2, 3.1))
    point_ok = (abs(omega - ZGV_OMEGA) <= 1e-8
                and abs(beta - ZGV_BETA) <= 1e-8)

    material = make_material(2.0, 1.0, 1.0, 1.0, ZGV_OMEGA)
    op = assemble_operator(material, 64, BCKind.FREE_FREE)
    modes = solve_modes(op)
    chains = detect_jordan_chains(modes, cluster_tol=1e-4,
                                  chain_tol=1e-6)
    long = [chain for chain in chains
            if chain.length >= 2 and abs(chain.mu - 1j * ZGV_BETA) <= 1e-2]
    cert = max(max(chain.relation_residuals) for chain in long) if long \
        else np.inf

    simple = detect_jordan_chains(bench_modes)
    spurious = [chain for chain in simple
                if chain.length > 1 and min(chain.mode_indices) < 20]

    passed = point_ok and bool(long) and cert <= 1e-6 and not spurious
    _verdict(10, "double root carries a certified chain, simple points do not",
             passed,
             f"double root at (omega, beta) = ({omega:.6f}, {beta:.6f}) "
             f"matches frozen values; chain length "
             f"{max((c.length for c in long), default=0)} with certificate "
             f"{cert:.2e} (tol 1e-06); {len(spurious)} spurious chains at "
             f"the 20 smallest simple eigenvalues")


def test_criterion_11_clamped_geometry(bench, clamped_op, clamped_modes):
    oracle = _inside(CLAMPED_ROOTS)
    discrete = _inside(clamped_modes.betas)
    counts_match = len(oracle) == len(discrete) == 26
    defect = bijection_defect(oracle, discrete) if counts_match else np.inf

    bound = measured_b(clamped_modes)
    scan = resolvent_scan(clamped_op, THETA0,
                          np.geomspace(bound, 100.0 * bound, 9))
    ratios = [float(np.max(row) / row[0]) for row in scan.norms]
    scan_ok = scan.skipped == () and max(ratios) <= 2.0

    op = assemble_operator(bench, 96, BCKind.CLAMPED_FREE)
    modes = solve_modes(op)
    system = biorthogonalize(modes)
    targets = random_trig_fields(op.pencil.grid, 5, seed=0, vanish_lower=True)
    ks = tuple(range(1, len(modes) + 1))
    cap = int(0.8 * len(modes))
    hits = [_first_hit(expand_field(system, target, ks))
            for target in targets]
    completeness_ok = all(k is not None and k <= cap for k in hits)

    passed = counts_match and defect <= 1e-8 and scan_ok and completeness_ok
    _verdict(11, "clamped/free geometry passes spectrum, rays, completeness",
             passed,
             f"bijection over {len(discrete)} eigenvalues worst {defect:.2e} "
             f"(tol 1e-08); ray sup/first {max(ratios):.3f} (limit 2); "
             f"admissible targets hit 1e-3 within k <= {max(hits)} of "
             f"{len(modes)} (cap {cap})")
