"""Session fixtures: the benchmark material with cached discrete solves.

The n = 64 traction-free solve, its shear-horizontal counterpart, the
biorthogonal system and the n = 64 solve at the zero-group-velocity
frequency are shared session-wide because several test modules
probe the same objects; all of them are immutable (frozen dataclasses with
read-only arrays).
"""

from __future__ import annotations

import pytest

from lambspec import (
    BCKind,
    assemble_operator,
    biorthogonalize,
    make_material,
    sesquilinear_forms,
    solve_modes,
)
from reference_data import ZGV_OMEGA

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance_line(line: str) -> None:
    """Collect a criterion verdict for the end-of-run summary block."""
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bench():
    """lam=2, mu=1, rho=1, h=1, omega=3: bulk speeds c_l = 2, c_t = 1."""
    return make_material(lam=2.0, mu=1.0, rho=1.0, h=1.0, omega=3.0)


@pytest.fixture(scope="session")
def bench_op(bench):
    return assemble_operator(bench, 64, BCKind.FREE_FREE)


@pytest.fixture(scope="session")
def bench_modes(bench_op):
    return solve_modes(bench_op)


@pytest.fixture(scope="session")
def bench_forms(bench, bench_op):
    return sesquilinear_forms(bench, bench_op.pencil.grid)


@pytest.fixture(scope="session")
def bench_system(bench_modes, bench_op):
    return biorthogonalize(bench_modes)


@pytest.fixture(scope="session")
def sh_op(bench):
    return assemble_operator(bench, 64, BCKind.FREE_FREE, n_channels=1)


@pytest.fixture(scope="session")
def sh_modes(sh_op):
    return solve_modes(sh_op)


@pytest.fixture(scope="session")
def clamped_op(bench):
    return assemble_operator(bench, 64, BCKind.CLAMPED_FREE)


@pytest.fixture(scope="session")
def clamped_modes(clamped_op):
    return solve_modes(clamped_op)


@pytest.fixture(scope="session")
def zgv_modes():
    """The zero-group-velocity point at n = 64: its double roots +-ZGV_BETA
    split by rounding into two pairs about 2.2e-6 apart, each one
    DEFECT_PAIR_TOL cluster."""
    material = make_material(2.0, 1.0, 1.0, 1.0, ZGV_OMEGA)
    return solve_modes(assemble_operator(material, 64, BCKind.FREE_FREE))
