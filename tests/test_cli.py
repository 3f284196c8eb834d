"""Command line interface: config validation, CSV reports, verification gate."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import lambspec
from lambspec import BCKind, DiscreteOperator, _blas, analysis, cli, core, discretize
from lambspec.cli import (
    CSV_ROW_BYTES,
    MEMORY_BUDGET,
    N_COLLOC_MAX,
    SOLVE_ARRAYS,
    THETA0_DEFAULT,
    ENTRY_MAX,
    ConfigError,
    _closure_defects,
    _step_threads,
    _sweep_workers,
    parse_config,
    run,
)
from reference_data import ZGV_BETA, ZGV_OMEGA

BASE = {"lambda": 2.0, "mu": 1.0, "rho": 1.0, "h": 1.0, "omega": 3.0}


def write_config(tmp_path, overrides=None, drop=(), name="config.json"):
    doc = dict(BASE)
    doc.update(overrides or {})
    for key in drop:
        doc.pop(key, None)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _src_env():
    src = str(Path(lambspec.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


# ----------------------------------------------------------------------
# config parsing


def test_parse_config_defaults():
    config = parse_config(dict(BASE))
    assert config.material.lam == 2.0
    assert config.bc is BCKind.FREE_FREE
    assert config.n_colloc == 64
    assert config.accept_tol == 1e-8
    assert config.chain_tol == 1e-6
    assert config.theta0 == THETA0_DEFAULT == pytest.approx(0.45 * np.pi)
    assert config.moduli is None
    assert config.omega_sweep is None
    assert config.seed == 0


def test_parse_config_accepts_clamped():
    config = parse_config({**BASE, "bc": "clamped-free"})
    assert config.bc is BCKind.CLAMPED_FREE


@pytest.mark.parametrize(
    ("overrides", "drop", "fragment"),
    [
        ({}, ("mu",), "missing config field 'mu'"),
        ({"acept_tol": 1e-8}, (), "unknown config field 'acept_tol'"),
        ({"h": 0.0}, (), "h ≤ 0"),
        ({"bc": "periodic"}, (), "bc must be one of"),
        ({"n_colloc": 4}, (), "n_colloc < 8"),
        ({"accept_tol": 0.0}, (), "accept_tol ≤ 0"),
        ({"chain_tol": -1.0}, (), "chain_tol ≤ 0"),
        ({"theta0": 1.2}, (), "theta0 outside"),
        ({"seed": -1}, (), "seed < 0"),
        ({"moduli": []}, (), "non-empty"),
        ({"moduli": [3.0, 2.0]}, (), "strictly increasing"),
        ({"moduli": [-1.0, 2.0]}, (), "positive"),
        ({"omega_sweep": {"start": 1.0, "stop": 2.0}}, (),
         "missing omega_sweep field 'steps'"),
        ({"omega_sweep": {"start": 2.0, "stop": 1.0, "steps": 3}}, (),
         "stop ≤ start"),
        ({"omega_sweep": {"start": 1.0, "stop": 2.0, "steps": 1}}, (),
         "steps < 2"),
        ({"omega_sweep": {"start": 1.0, "stop": 2.0, "steps": 3, "pace": 1}}, (),
         "unknown omega_sweep field 'pace'"),
        ({"accept_tol": float("inf")}, (), "accept_tol must be finite"),
        ({"chain_tol": float("nan")}, (), "chain_tol must be finite"),
        ({"omega": float("inf")}, (), "omega must be finite"),
        ({"theta0": float("nan")}, (), "theta0 must be finite"),
        ({"moduli": [1.0, float("inf")]}, (), "moduli must be finite"),
        ({"omega_sweep": {"start": 1.0, "stop": float("inf"), "steps": 3}}, (),
         "stop must be finite"),
        ({"n_colloc": 10 ** 6}, (), f"n_colloc > {N_COLLOC_MAX}"),
        ({"moduli": [1.0, 1e160]}, (), "moduli must have finite squares"),
        ({"omega_sweep": {"start": 1.0, "stop": 2.0, "steps": 10 ** 12}}, (),
         "rows could exceed the 4 GiB memory budget"),
        ({"omega": 1e200}, (), "invalid material: ω²ρ overflows"),
        ({"omega_sweep": {"start": 1.0, "stop": 1e200, "steps": 3}}, (),
         "omega_sweep stop: invalid material: ω²ρ overflows"),
        ({"h": 1e-200}, (), "invalid scale: (λ+2μ)(2n)⁴/h² = inf at n_colloc=64"),
        ({"mu": 1e150}, (), "invalid scale: (λ+2μ)(2n)⁴/h² = 5.37e+158 at n_colloc=64"),
        ({"h": 1e200}, (), "invalid scale: (λ+2μ)(2n)⁴/h² = 0 at n_colloc=64"),
        ({"omega": 1e80}, (), "invalid scale: ω²ρ above 1.34e+154"),
        ({"omega_sweep": {"start": 1.0, "stop": 1e80, "steps": 3}}, (),
         "omega_sweep stop: invalid scale: ω²ρ above 1.34e+154"),
    ],
)
def test_parse_config_rejections(overrides, drop, fragment):
    doc = dict(BASE)
    doc.update(overrides)
    for key in drop:
        doc.pop(key)
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_config(doc)


@pytest.mark.parametrize("command", ["resolvent", "verify"])
def test_moduli_whose_squares_overflow_exit_2(tmp_path, capsys, command):
    # each probe factors at z^2, which overflows to nan at |z| = 1e160 and
    # used to end in "SVD did not converge" (exit 1)
    path = write_config(tmp_path, {"n_colloc": 16, "moduli": [1.0, 1e160]})
    assert run([command, "--config", path]) == 2
    assert "moduli must have finite squares" in capsys.readouterr().err


def test_largest_sweep_within_the_budget_parses():
    # n_colloc = 64 solves keep at most 256 eigenvalues, one row each per
    # step, and the rows share the budget with one solve's 256 x 256 arrays
    largest = (MEMORY_BUDGET - SOLVE_ARRAYS * 256 ** 2 * 8) // (256 * CSV_ROW_BYTES)
    assert largest == 69811
    sweep = {"start": 1.0, "stop": 2.0, "steps": largest}
    assert parse_config(dict(BASE, omega_sweep=sweep)).omega_sweep == (1.0, 2.0, largest)
    sweep["steps"] += 1
    with pytest.raises(ConfigError, match=f"omega_sweep steps > {largest} at n_colloc=64"):
        parse_config(dict(BASE, omega_sweep=sweep))


def test_scale_bound_keeps_scaled_materials():
    # the spectrum does not change when lambda, mu and omega^2 rho scale
    # together, and at these scales, inside the bound, the solve follows
    betas = [cli._solve(parse_config({**BASE, "lambda": 2.0 * scale, "mu": scale,
                                      "rho": scale, "n_colloc": 16})).betas
             for scale in (1.0, 1e-140, 1e140)]
    assert len(betas[0]) > 0
    for scaled in betas[1:]:
        np.testing.assert_allclose(scaled, betas[0], rtol=1e-12)
    assert parse_config({**BASE, "omega": 1.1e77}).material.omega ** 2 < ENTRY_MAX


def test_parse_config_rejects_non_object():
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config([1, 2, 3])


# ----------------------------------------------------------------------
# subcommands (small grids keep these fast)


def test_modes_csv_structure_and_determinism(tmp_path, capsys):
    path = write_config(tmp_path, {"n_colloc": 24})
    assert run(["modes", "--config", path]) == 0
    first = capsys.readouterr().out
    assert run(["modes", "--config", path]) == 0
    second = capsys.readouterr().out
    assert first == second

    lines = first.strip().split("\n")
    assert lines[0] == "re_beta,im_beta,parity,residual,chain_length"
    mags = []
    for line in lines[1:]:
        re_b, im_b, parity, residual, chain_length = line.split(",")
        mags.append(abs(complex(float(re_b), float(im_b))))
        assert parity in ("symmetric", "antisymmetric", "mixed")
        assert float(residual) <= 1e-8
        assert int(chain_length) >= 1
    assert mags == sorted(mags)
    assert len(mags) >= 10


@pytest.mark.parametrize("bc", ["free-free", "clamped-free"])
def test_modes_rows_come_in_exact_groups(tmp_path, capsys, bc):
    # every beta has its exact negative and its exact conjugate, so the
    # |beta| ties are bitwise, in groups of 2 (real or imaginary beta) or 4,
    # and the rows inside a group follow (Re beta, Im beta)
    path = write_config(tmp_path, {"n_colloc": 24, "bc": bc})
    assert run(["modes", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    betas = [complex(float(line.split(",")[0]), float(line.split(",")[1]))
             for line in lines]
    present = set(betas)
    assert all(-beta in present and beta.conjugate() in present for beta in betas)
    sizes = []
    for _mag, group in itertools.groupby(betas, key=abs):
        group = list(group)
        sizes.append(len(group))
        assert group == sorted(group, key=lambda beta: (beta.real, beta.imag))
    assert set(sizes) == {2, 4}
    assert sum(sizes) == len(betas) >= 10


def test_modes_out_file(tmp_path, capsys):
    path = write_config(tmp_path, {"n_colloc": 24})
    out = tmp_path / "modes.csv"
    assert run(["modes", "--config", path, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert out.read_text().startswith("re_beta,")


def test_modes_flags_split_double_root_at_zgv(tmp_path, capsys):
    # at the zero-group-velocity frequency the double root +-ZGV_BETA (real,
    # so its own conjugate) splits into two eigenvalues about 2e-6 apart,
    # which coincide to DEFECT_PAIR_TOL and so form one Jordan cluster; the
    # bordered chain probe gives it a chain of length 2, reported on both
    # halves.  The direction of the split follows rounding, so the halves
    # are picked by their distance to the root
    path = write_config(tmp_path, {"omega": ZGV_OMEGA, "n_colloc": 64})
    assert run(["modes", "--config", path]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    betas = np.array([complex(float(row[0]), float(row[1])) for row in rows])
    lengths = np.array([int(row[4]) for row in rows])
    at_root = np.min(np.abs(betas[:, None] - np.array([ZGV_BETA, -ZGV_BETA])),
                     axis=1) <= 1e-5
    assert at_root.sum() == 4
    assert np.all(lengths[at_root] == 2)
    assert np.all(lengths[~at_root] == 1)
    assert (~at_root).sum() == 110


def test_config_errors_exit_with_code_2(tmp_path, capsys):
    path = write_config(tmp_path, {"acept_tol": 1e-8})
    assert run(["modes", "--config", path]) == 2
    assert "unknown config field" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [{"accept_tol": float("inf")},
                                       {"chain_tol": float("nan")}])
def test_non_finite_config_exits_with_code_2(tmp_path, capsys, overrides):
    # json.dumps writes the JSON extensions Infinity and NaN, which
    # json.loads accepts; the config parser must not
    path = write_config(tmp_path, overrides)
    assert run(["modes", "--config", path]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_oversized_grid_exits_with_code_2(tmp_path, capsys):
    # the bound is checked on the config alone; nothing near it is allocated
    assert parse_config({**BASE, "n_colloc": N_COLLOC_MAX}).n_colloc == N_COLLOC_MAX
    path = write_config(tmp_path, {"n_colloc": 10 ** 6})
    assert run(["modes", "--config", path]) == 2
    assert "memory budget" in capsys.readouterr().err


@pytest.mark.parametrize(("command", "overrides", "message"), [
    ("modes", {"omega": 1e200}, "config error: invalid material: ω²ρ overflows"),
    ("verify", {"omega": 1e200}, "config error: invalid material: ω²ρ overflows"),
    ("dispersion", {"omega_sweep": {"start": 2.0, "stop": 1e200, "steps": 3}},
     "config error: omega_sweep stop: invalid material: ω²ρ overflows"),
], ids=["modes", "verify", "dispersion"])
def test_overflowing_frequency_exits_with_code_2(tmp_path, command, overrides, message):
    # omega ** 2 of the pencil's zero-order term used to raise OverflowError;
    # a sweep is checked at its stop, its largest omega, before any step.
    # In a fresh interpreter, so a traceback would reach stderr
    path = write_config(tmp_path, {"n_colloc": 16, **overrides})
    proc = subprocess.run([sys.executable, "-m", "lambspec.cli", command, "--config", path],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == message + "\n" and proc.stdout == ""


@pytest.mark.parametrize(("command", "overrides", "message"), [
    ("modes", {"h": 1e-200},
     "config error: invalid scale: (λ+2μ)(2n)⁴/h² = inf at n_colloc=16 "
     "outside [1.49e-154, 1.34e+154]"),
    ("modes", {"lambda": 1e308},
     "config error: invalid scale: (λ+2μ)(2n)⁴/h² = inf at n_colloc=16 "
     "outside [1.49e-154, 1.34e+154]"),
    ("modes", {"mu": 1e150},
     "config error: invalid scale: (λ+2μ)(2n)⁴/h² = 2.1e+156 at n_colloc=16 "
     "outside [1.49e-154, 1.34e+154]"),
    ("verify", {"h": 1e200},
     "config error: invalid scale: (λ+2μ)(2n)⁴/h² = 0 at n_colloc=16 "
     "outside [1.49e-154, 1.34e+154]"),
    ("dispersion", {"omega_sweep": {"start": 2.0, "stop": 1e80, "steps": 3}},
     "config error: omega_sweep stop: invalid scale: ω²ρ above 1.34e+154"),
], ids=["tiny-h", "huge-lambda", "huge-mu", "huge-h", "sweep-omega"])
def test_out_of_range_collocation_exits_with_code_2(tmp_path, command, overrides, message):
    # h = 1e-200, lambda = 1e308 and mu = 1e150 used to exit 1 with LAPACK's
    # "** On entry to DGEBAL parameter number 3 had an illegal value" lines
    # on stdout, and h = 1e200 with "every shift in REFERENCE_SHIFTS lies on
    # the spectrum".  In a fresh interpreter, so LAPACK's own lines would show
    path = write_config(tmp_path, {"n_colloc": 16, **overrides})
    proc = subprocess.run([sys.executable, "-m", "lambspec.cli", command, "--config", path],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == message + "\n" and proc.stdout == ""


@pytest.mark.parametrize("command", ["modes", "verify"])
def test_unwritable_out_exits_with_code_2(tmp_path, capsys, command):
    path = write_config(tmp_path, {"n_colloc": 16})
    out = tmp_path / "missing" / "result.csv"
    assert run([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ")
    assert "Traceback" not in err and not out.exists()


def test_unreadable_config_exits_with_code_2(tmp_path, capsys):
    assert run(["modes", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_json_exits_with_code_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["modes", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_subcommand_exits_with_code_2(capsys):
    assert run([]) == 2


def test_dispersion_requires_sweep(tmp_path, capsys):
    path = write_config(tmp_path, {"n_colloc": 24})
    assert run(["dispersion", "--config", path]) == 2
    assert "omega_sweep is required" in capsys.readouterr().err


def test_dispersion_csv(tmp_path, capsys):
    path = write_config(tmp_path, {
        "n_colloc": 24,
        "omega_sweep": {"start": 2.8, "stop": 3.0, "steps": 3},
    })
    assert run(["dispersion", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "omega,branch,re_beta,im_beta,discontinuity"
    omegas = set()
    for line in lines[1:]:
        omega, branch, re_b, im_b, flag = line.split(",")
        omegas.add(float(omega))
        assert int(branch) >= 0
        assert flag in ("0", "1")
    assert omegas == {2.8, 2.9, 3.0}


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _assert_no_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sweep_config(tmp_path, steps, bc="free-free"):
    return write_config(tmp_path, {"n_colloc": 16, "bc": bc,
                                   "omega_sweep": {"start": 2.0, "stop": 2.5, "steps": steps}})


@pytest.mark.parametrize("steps", [3, 7])
@pytest.mark.parametrize("bc", ["free-free", "clamped-free"])
def test_sweep_bytes_do_not_follow_the_worker_count(tmp_path, capsys, monkeypatch, bc, steps):
    # 3 steps are fewer than 4 CPUs' workers, 7 are more
    path = _sweep_config(tmp_path, steps, bc)
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    outputs = []
    for cpus in (1, 2, 4):
        _use_cpus(monkeypatch, cpus)
        forks.clear()
        assert run(["dispersion", "--config", path]) == 0
        outputs.append(capsys.readouterr())
        assert len(forks) == min(cpus, steps) - 1
        _assert_no_process_left()
    assert outputs[0].err == "" and outputs[0].out.count("\n") > steps
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_sweep_solves_a_share_it_cannot_fork_itself(tmp_path, capsys, monkeypatch):
    path = _sweep_config(tmp_path, 5)
    _use_cpus(monkeypatch, 1)
    assert run(["dispersion", "--config", path]) == 0
    serial = capsys.readouterr()

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    _use_cpus(monkeypatch, 4)
    assert run(["dispersion", "--config", path]) == 0
    assert capsys.readouterr() == serial
    _assert_no_process_left()


@pytest.mark.parametrize("failing", [{3}, {2}, {3, 4}, {2, 3}, {1, 5}],
                         ids=["child", "parent", "child-first", "parent-first", "same-share"])
def test_failing_step_gives_the_serial_result(tmp_path, capsys, monkeypatch, failing):
    # at 2 workers the parent solves steps 0, 2, 4 and the child 1, 3, 5;
    # at 4 workers the parent solves 0, 4 and three children the rest
    path = _sweep_config(tmp_path, 6)
    omegas = list(np.linspace(2.0, 2.5, 6))
    solve = cli._solve

    def flaky(config, material=None, threads=None):
        step = omegas.index(material.omega)
        if step in failing:
            raise ValueError(f"step {step} failed")
        return solve(config, material, threads)

    monkeypatch.setattr(cli, "_solve", flaky)
    results = []
    for cpus in (1, 2, 4):
        _use_cpus(monkeypatch, cpus)
        code = run(["dispersion", "--config", path])
        results.append((code, *capsys.readouterr()))
        _assert_no_process_left()
    assert results[0] == (1, "", f"error: step {min(failing)} failed\n")
    assert results[1] == results[0]
    assert results[2] == results[0]


_FAKE_CPUS = """
import os, sys
count = int(sys.argv.pop(1))
os.sched_getaffinity = lambda pid: set(range(count))
import lambspec.cli
lambspec.cli.main()
"""


@pytest.mark.parametrize("flags", [[], ["-W", "error"]], ids=["default", "W-error"])
def test_sweep_warnings_show_as_in_the_serial_run(tmp_path, flags):
    # moduli this small overflow a norm in every step: the serial run shows
    # each of its two warnings once, and under -W error the first one ends
    # the run; 4 steps on 4 CPUs fork 3 workers
    path = write_config(tmp_path, {
        "lambda": 2e-160, "mu": 1e-160, "rho": 1e-160, "n_colloc": 16, "bc": "clamped-free",
        "omega_sweep": {"start": 2.0, "stop": 4.0, "steps": 4}})
    runs = [subprocess.run([sys.executable, *flags, "-c", _FAKE_CPUS, str(cpus),
                            "dispersion", "--config", path],
                           env=_src_env(), capture_output=True, text=True, timeout=600)
            for cpus in (1, 2, 4)]
    serial = runs[0]
    if flags:
        assert serial.returncode == 1 and serial.stdout == ""
        assert serial.stderr.endswith("\nRuntimeWarning: overflow encountered in multiply\n")
    else:
        assert serial.returncode == 0 and serial.stdout.count("\n") > 4
        assert serial.stderr.count("RuntimeWarning: overflow encountered in") == 2
    for parallel in runs[1:]:
        assert (parallel.returncode, parallel.stdout, parallel.stderr) == (
            serial.returncode, serial.stdout, serial.stderr)


@pytest.mark.parametrize(("end", "how"), [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9 (Killed)"),
    (lambda: os._exit(3), "exited with status 3"),
], ids=["killed", "exited"])
def test_worker_that_ends_without_a_report_exits_1(tmp_path, capsys, monkeypatch, end, how):
    test_pid = os.getpid()
    solve = cli._solve

    def dying(config, material=None, threads=None):
        if os.getpid() != test_pid:
            end()
        return solve(config, material, threads)

    monkeypatch.setattr(cli, "_solve", dying)
    _use_cpus(monkeypatch, 2)
    assert run(["dispersion", "--config", _sweep_config(tmp_path, 4)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: dispersion worker 1 {how} before it reported\n"
    _assert_no_process_left()


def test_interrupted_sweep_kills_and_reaps_its_workers(tmp_path, monkeypatch):
    test_pid = os.getpid()

    def interrupted(config, material=None, threads=None):
        if os.getpid() != test_pid:
            time.sleep(60)       # a worker still busy when the parent stops
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_solve", interrupted)
    _use_cpus(monkeypatch, 4)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run(["dispersion", "--config", _sweep_config(tmp_path, 4)])
    assert time.monotonic() - start < 30
    _assert_no_process_left()


def test_unexpected_error_propagates_once_the_workers_are_reaped(tmp_path, monkeypatch):
    test_pid = os.getpid()
    solve = cli._solve

    def broken(config, material=None, threads=None):
        if os.getpid() == test_pid:
            raise RuntimeError("unexpected")
        return solve(config, material, threads)

    monkeypatch.setattr(cli, "_solve", broken)
    _use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="unexpected"):
        run(["dispersion", "--config", _sweep_config(tmp_path, 4)])
    _assert_no_process_left()


def test_sweep_worker_cap():
    # computed, not run: one n_colloc = 1024 solve is SOLVE_ARRAYS arrays
    # of 4096 x 4096 float64, and three of them exceed the budget
    solve = SOLVE_ARRAYS * 4096 ** 2 * 8
    assert 2 * solve < MEMORY_BUDGET < 3 * solve
    assert _sweep_workers(64, 41, 1024) == 2
    assert _sweep_workers(2, 41, 32) == 2
    assert _sweep_workers(4, 3, 32) == 3
    assert _sweep_workers(1, 41, 32) == 1
    # the longest sweep parse_config accepts at that size still gets both
    longest = (MEMORY_BUDGET - solve) // (4096 * CSV_ROW_BYTES)
    assert _sweep_workers(64, longest, 1024) == 2


def test_step_threads_share_the_cpus_among_the_workers():
    # a worker per CPU leaves each step one thread; fewer steps than CPUs
    # give each worker the CPUs no other worker takes
    assert _step_threads(1, 1) == 1
    assert _step_threads(2, 2) == 1
    assert _step_threads(4, 3) == 1
    assert _step_threads(4, 2) == 2
    assert _step_threads(64, 3) == 21
    # the benchmark's 41-step sweep on 2 CPUs solves every step on one thread
    assert _step_threads(2, _sweep_workers(2, 41, 32)) == 1
    assert _step_threads(4, _sweep_workers(4, 2, 32)) == 2


def _spy_solve_threads(monkeypatch) -> list:
    """Record the thread count of every solve_modes call the CLI makes."""
    solve_modes, seen = cli.solve_modes, []

    def spy(op, accept_tol=1e-8, threads=1):
        seen.append(threads)
        return solve_modes(op, accept_tol=accept_tol, threads=threads)

    monkeypatch.setattr(cli, "solve_modes", spy)
    return seen


@pytest.mark.parametrize(("command", "solves"), [("modes", 1), ("verify", 2)])
def test_one_operating_point_solves_on_every_cpu(tmp_path, capsys, monkeypatch, command,
                                                 solves):
    # verify solves the Lamb and the SH channel
    path = write_config(tmp_path, {"n_colloc": 16})
    seen = _spy_solve_threads(monkeypatch)
    _use_cpus(monkeypatch, 1)
    code = run([command, "--config", path])
    serial = capsys.readouterr()
    _use_cpus(monkeypatch, 3)
    assert run([command, "--config", path]) == code
    assert capsys.readouterr() == serial
    assert seen == [1] * solves + [3] * solves


@pytest.mark.parametrize(("command", "bc", "expected"), [
    ("verify", "free-free", {"resolvent_scan": [1, 3, 4], "adjoint_defect": [1, 3, 8]}),
    ("verify", "clamped-free", {"resolvent_scan": [1, 3, 4]}),
    ("resolvent", "free-free", {"resolvent_scan": [1, 3, 4]}),
])
def test_analysis_runs_on_every_cpu(tmp_path, capsys, monkeypatch, command, bc, expected):
    # one thread per CPU, the scan's probes up to PROBE_THREADS_MAX, and
    # the same bytes at any count
    path = write_config(tmp_path, {"n_colloc": 16, "bc": bc})
    seen = {name: [] for name in ("resolvent_scan", "adjoint_defect")}
    for name, calls in seen.items():
        def spy(*args, threads, _real=getattr(cli, name), _calls=calls):
            _calls.append(threads)
            return _real(*args, threads=threads)
        monkeypatch.setattr(cli, name, spy)
    outputs = []
    for cpus in (1, 3, 8):
        _use_cpus(monkeypatch, cpus)
        outputs.append((run([command, "--config", path]), capsys.readouterr()))
    assert outputs[1] == outputs[2] == outputs[0]
    assert {name: calls for name, calls in seen.items() if calls} == expected


def test_verify_takes_no_two_norm_through_numpy(tmp_path, capsys, monkeypatch):
    # the 2-norms go through _lapack.gesdd, whose calls run on threads at
    # once; numpy's svd and norm(x, 2) would hold the GIL
    taken = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def svd_spy(*args, **kwargs):
        taken.append("svd")
        return svd(*args, **kwargs)

    def norm_spy(x, ord=None, *args, **kwargs):
        if ord == 2:
            taken.append("norm 2")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(np.linalg, "norm", norm_spy)
    for bc in ("free-free", "clamped-free"):
        run(["verify", "--config", write_config(tmp_path, {"n_colloc": 32, "bc": bc})])
        assert json.loads(capsys.readouterr().out)["checks"]
    assert taken == []
    np.linalg.norm(np.eye(2), 2)
    np.linalg.svd(np.eye(2), compute_uv=False)
    assert taken == ["norm 2", "svd"]


def test_no_solve_thread_is_alive_at_a_fork(tmp_path, capsys, monkeypatch):
    # 2 steps on 4 CPUs: 2 workers, each step solved on 2 threads.  The
    # parent forks its worker before it solves, and each solve joins its
    # threads, so every fork sees only the threads the run began with
    path = _sweep_config(tmp_path, 2)
    _use_cpus(monkeypatch, 1)
    assert run(["dispersion", "--config", path]) == 0
    serial = capsys.readouterr()
    fork, alive = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: alive.append(threading.active_count()) or fork())
    seen = _spy_solve_threads(monkeypatch)
    _use_cpus(monkeypatch, 4)
    before = threading.active_count()
    assert run(["dispersion", "--config", path]) == 0
    assert capsys.readouterr() == serial
    assert alive == [before]
    assert seen == [2]                 # the parent's step; the child's is its own
    assert threading.active_count() == before
    _assert_no_process_left()


def test_sweep_under_warnings_as_errors_writes_nothing_to_stderr(tmp_path):
    # a fork or pickle warning would end the run under -W error
    path = write_config(tmp_path, {"n_colloc": 16, "bc": "clamped-free",
                                   "omega_sweep": {"start": 2.0, "stop": 4.0, "steps": 5}})
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "lambspec.cli", "dispersion",
                           "--config", path],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == "" and proc.stdout.count("\n") > 5


def test_resolvent_at_smallest_admissible_theta0(tmp_path):
    # ray 4 then lies on the sector's edge, where rounding the direction of
    # a probe must not reject a config that parse_config accepted
    theta0 = float(np.nextafter(2.0 * np.pi / 5.0, np.pi / 2.0))
    path = write_config(tmp_path, {"n_colloc": 16, "theta0": theta0})
    assert run(["resolvent", "--config", path]) == 0


def test_resolvent_csv(tmp_path, capsys):
    path = write_config(tmp_path, {"n_colloc": 24, "moduli": [15.0, 40.0]})
    assert run(["resolvent", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "ray,theta,modulus,operator_norm,hs_norm,skipped"
    assert len(lines) == 1 + 5 * 2
    for line in lines[1:]:
        ray, theta, modulus, op_norm, hs_norm, skipped = line.split(",")
        assert 0 <= int(ray) < 5
        assert float(modulus) in (15.0, 40.0)
        assert skipped in ("0", "1")
        if skipped == "0":
            assert float(op_norm) > 0
            assert float(hs_norm) >= float(op_norm)


def test_no_solve_path_builds_the_companion(tmp_path, capsys, monkeypatch):
    # the mode solver and the resolvent probes factor only the lam form,
    # and the adjoint defect of verify eliminates the boundary rows from
    # the pencil's, so with the companion matrix made unreadable every
    # subcommand exits with the same code and prints the same bytes
    sweep = {"omega_sweep": {"start": 2.0, "stop": 4.0, "steps": 3}}
    jobs = [(command, write_config(tmp_path, {"n_colloc": 16, "bc": bc, **extra},
                                   name=f"{command}-{bc}.json"))
            for bc in ("free-free", "clamped-free")
            for command, extra in (("modes", {}), ("dispersion", sweep),
                                   ("resolvent", {}), ("completeness", {}),
                                   ("verify", {}))]
    expected = []
    for command, path in jobs:
        code = run([command, "--config", path])
        expected.append((code, capsys.readouterr().out))
    # n = 16 is too coarse for verify's SH and completeness checks
    assert [code for code, _ in expected] == [0, 0, 0, 0, 1] * 2

    def unreadable(op):
        raise AssertionError("the companion matrix was built")

    monkeypatch.setattr(DiscreteOperator, "m", property(unreadable))
    for (command, path), (code, out) in zip(jobs, expected):
        assert run([command, "--config", path]) == code
        assert capsys.readouterr().out == out


def test_completeness_csv(tmp_path, capsys):
    path = write_config(tmp_path, {"n_colloc": 24})
    assert run(["completeness", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "target,k,residual"
    rows = [line.split(",") for line in lines[1:]]
    targets = sorted({int(r[0]) for r in rows})
    assert targets == [0, 1, 2, 3, 4]
    for t in targets:
        residuals = [float(r[2]) for r in rows if int(r[0]) == t]
        assert all(b - a <= 1e-12 for a, b in zip(residuals, residuals[1:]))
        # physics-level thresholds need the fine grid and live in the
        # acceptance module; at n = 24 just require a real reduction
        assert residuals[-1] <= 0.1 * residuals[0]


def test_expansions_do_not_build_the_biorthogonal_system(tmp_path, capsys, monkeypatch):
    # completeness and verify expand over the mode set's own columns, in
    # |beta| order; no left vector or pairing enters an expansion
    def refuse(mode_set):
        raise AssertionError("biorthogonalize was called")

    monkeypatch.setattr(cli, "biorthogonalize", refuse)
    path = write_config(tmp_path, {"n_colloc": 64})
    assert run(["completeness", "--config", path]) == 0
    assert capsys.readouterr().out.startswith("target,k,residual\n")
    assert run(["verify", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


# ----------------------------------------------------------------------
# verification gate

FREE_CHECKS = (
    "retained_modes",
    "mode_residual_max",
    "conjugation_closure",
    "negation_closure",
    "parity_resolved",
    "sh_closed_form_error",
    "symbol_identity_error",
    "stable_solution_ode_residual",
    "stable_solution_boundary_error",
    "coercivity_constant",
    "resolvent_skipped_probes",
    "resolvent_ray_ratio",
    "nonorthogonality_witness",
    "adjoint_defect",
    "completeness_mode_fraction",
    "jordan_chain_certificates",
)


def _spy_on_probes(monkeypatch):
    calls = []
    probe = analysis._resolvent_probe

    def spy(blocks, z, rcond_min):
        calls.append(z)
        return probe(blocks, z, rcond_min)

    monkeypatch.setattr(analysis, "_resolvent_probe", spy)
    return calls


def test_verify_benchmark_passes(tmp_path, capsys, monkeypatch):
    calls = _spy_on_probes(monkeypatch)
    path = write_config(tmp_path)
    assert run(["verify", "--config", path]) == 0
    # 3 rays x the 3 of the nine moduli b .. 100 b that lie at or below the
    # largest retained |beta|
    assert len(calls) == 9
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    names = [check["name"] for check in payload["checks"]]
    assert names == list(FREE_CHECKS)
    for check in payload["checks"]:
        assert check["pass"] is True
        assert set(check) == {"name", "measured", "threshold", "pass"}


def test_verify_clamped_passes(tmp_path, capsys, monkeypatch):
    calls = _spy_on_probes(monkeypatch)
    path = write_config(tmp_path, {"bc": "clamped-free"})
    assert run(["verify", "--config", path]) == 0
    assert len(calls) == 9
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    names = {check["name"] for check in payload["checks"]}
    # no parity split and no constraint elimination in this geometry
    assert names == set(FREE_CHECKS) - {"parity_resolved", "adjoint_defect"}


def test_verify_reports_failure_with_exit_1(tmp_path, capsys):
    path = write_config(tmp_path, {"chain_tol": 1e-12})
    assert run(["verify", "--config", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    failing = [c["name"] for c in payload["checks"] if not c["pass"]]
    assert failing == ["jordan_chain_certificates"]


def test_verify_adjoint_defect_can_fail(tmp_path, capsys, monkeypatch):
    # an operator self-adjoint in the energy product would read 0
    monkeypatch.setattr(cli, "adjoint_defect", lambda op, threads: 0.005)
    path = write_config(tmp_path)
    assert run(["verify", "--config", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    failing = [c["name"] for c in payload["checks"] if not c["pass"]]
    assert failing == ["adjoint_defect"]


def test_verify_parity_resolved_can_fail(tmp_path, capsys, monkeypatch):
    # a block label that disagrees with its profile's reflection symmetry
    solve = cli._solve

    def one_label_swapped(config, material=None):
        modes = solve(config, material)
        parity = modes.parity.copy()
        parity[0] = {"symmetric": "antisymmetric", "antisymmetric": "symmetric"}[parity[0]]
        return dataclasses.replace(modes, parity=parity)

    monkeypatch.setattr(cli, "_solve", one_label_swapped)
    path = write_config(tmp_path)
    assert run(["verify", "--config", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["parity_resolved"]["measured"] == 1.0
    assert [name for name, c in checks.items() if not c["pass"]] == ["parity_resolved"]


_LAME_BLOCKS = core.pencil_coefficients


def _patch_blocks(monkeypatch, defect):
    """Replace pencil_coefficients by defect(material) wherever lambspec binds it."""
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "lambspec"
                and getattr(module, "pencil_coefficients", None) is _LAME_BLOCKS):
            monkeypatch.setattr(module, "pencil_coefficients", defect)


def _scaled_lam(material):
    return _LAME_BLOCKS(dataclasses.replace(material, lam=1.05 * material.lam))


def _scaled_block(name, factor):
    def defect(material):
        coeff = _LAME_BLOCKS(material)
        return dataclasses.replace(coeff, **{name: factor * getattr(coeff, name)})
    return defect


@pytest.mark.parametrize(("defect", "failing"), [
    # a consistent wrong operator: the symbol no longer factors with the
    # material's (lam + 2 mu) mu, and the analytic stable solution built
    # from the material's lam leaves residuals against the blocks
    (_scaled_lam, {"symbol_identity_error", "stable_solution_ode_residual",
                   "stable_solution_boundary_error"}),
    (_scaled_block("b", 1.05), {"symbol_identity_error", "stable_solution_ode_residual"}),
    (_scaled_block("d", 0.9), {"stable_solution_boundary_error"}),
], ids=["lam-1.05", "b-1.05", "d-0.9"])
def test_verify_fails_on_a_defective_coefficient_block(tmp_path, capsys, monkeypatch,
                                                       defect, failing):
    _patch_blocks(monkeypatch, defect)
    path = write_config(tmp_path)
    assert run(["verify", "--config", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {c["name"] for c in payload["checks"] if not c["pass"]} == failing


def test_verify_coercivity_constant_can_fail(tmp_path, capsys, monkeypatch):
    # forms built from a compression block with its sign flipped: the
    # shifted form is not coercive; the solver keeps the true blocks, whose
    # energy metric a flipped c would leave indefinite
    forms = cli.sesquilinear_forms

    def non_elliptic_forms(material, grid):
        with monkeypatch.context() as patch:
            patch.setattr(discretize, "pencil_coefficients", _scaled_block("c", -1.0))
            return forms(material, grid)

    monkeypatch.setattr(cli, "sesquilinear_forms", non_elliptic_forms)
    path = write_config(tmp_path)
    assert run(["verify", "--config", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["coercivity_constant"]["measured"] < 0.0
    assert [name for name, c in checks.items() if not c["pass"]] == ["coercivity_constant"]


def test_verify_resolvent_skipped_probes_can_fail(tmp_path, capsys, bench_modes):
    # the second modulus is |beta_0| of the real mode on ray 0, where the
    # probe's LU is too ill-conditioned to keep (as in the analysis test
    # test_resolvent_scan_skips_probe_on_spectrum)
    on_ray = [beta for beta in bench_modes.betas[:2] if abs(np.angle(beta)) <= 1e-12]
    assert len(on_ray) == 1
    moduli = [0.5 * abs(on_ray[0]), abs(on_ray[0])]
    path = write_config(tmp_path, {"n_colloc": 64, "moduli": moduli})
    assert run(["verify", "--config", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["resolvent_skipped_probes"]["measured"] == 1.0
    assert {name for name, c in checks.items() if not c["pass"]} == {"resolvent_skipped_probes"}


def test_verify_ray_ratio_can_fail(tmp_path, capsys, bench_modes):
    # a ray that starts inside the spectrum: the first probe on ray 0 at
    # half |beta_0| is finite, the second sits just beyond the first
    # retained eigenvalue (on ray 0), where the resolvent norm is hundreds
    # of times larger but the LU is still well enough conditioned to keep;
    # the row order inside the first +-beta pair follows rounding, so the
    # member on ray 0 is picked by its angle
    on_ray = [beta for beta in bench_modes.betas[:2] if abs(np.angle(beta)) <= 1e-12]
    assert len(on_ray) == 1
    beta0 = on_ray[0]
    moduli = [0.5 * abs(beta0), 1.001 * abs(beta0)]
    path = write_config(tmp_path, {"n_colloc": 64, "moduli": moduli})
    assert run(["verify", "--config", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    failing = [c["name"] for c in payload["checks"] if not c["pass"]]
    assert failing == ["resolvent_ray_ratio"]


def test_resolvent_keeps_two_moduli_on_a_coarse_grid(tmp_path, capsys, monkeypatch):
    # at n = 16 even b lies above every retained |beta|; a ray ratio needs
    # two moduli, so the first two are probed
    calls = _spy_on_probes(monkeypatch)
    path = write_config(tmp_path, {"n_colloc": 16})
    assert run(["resolvent", "--config", path]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert len(calls) == 6 and len(rows) == 5 * 2
    moduli = sorted({float(row[2]) for row in rows})
    assert moduli[1] / moduli[0] == pytest.approx(100.0 ** (1.0 / 8.0))


def test_resolvent_probes_explicit_moduli_as_given(tmp_path, capsys, monkeypatch):
    # moduli from the config are not capped at the largest retained |beta|
    # (about 3.3 at n = 16)
    calls = _spy_on_probes(monkeypatch)
    path = write_config(tmp_path, {"n_colloc": 16, "moduli": [2.0, 1e3, 1e4]})
    assert run(["resolvent", "--config", path]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert len(calls) == 9
    assert [float(row[2]) for row in rows[:3]] == [2.0, 1e3, 1e4]


def test_verify_output_does_not_depend_on_the_dropped_moduli(tmp_path, capsys, monkeypatch):
    # on the benchmark plate the largest norm of every ray is at the first
    # modulus, so probing all nine moduli b .. 100 b prints the same bytes
    path = write_config(tmp_path, {"seed": 1})
    assert run(["verify", "--config", path]) == 0
    capped = capsys.readouterr().out

    def all_nine(config, modes):
        b = cli.measured_b(modes)
        return tuple(np.geomspace(b, 100.0 * b, 9))

    monkeypatch.setattr(cli, "_scan_moduli", all_nine)
    calls = _spy_on_probes(monkeypatch)
    assert run(["verify", "--config", path]) == 0
    assert len(calls) == 27
    assert capsys.readouterr().out == capped


def test_verify_passes_at_zgv(tmp_path, capsys):
    # the split double root's halves are only sqrt(eps) accurate, so the
    # closures compare the means of its DEFECT_PAIR_TOL groups; the halves
    # alone miss their conjugates and negatives by about 2e-6
    path = write_config(tmp_path, {"omega": ZGV_OMEGA, "n_colloc": 64})
    assert run(["verify", "--config", path]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for name in ("conjugation_closure", "negation_closure"):
        assert checks[name]["measured"] <= 1e-9


def test_closures_fail_on_a_moved_eigenvalue(bench_modes):
    betas = bench_modes.betas
    assert max(_closure_defects(betas)) <= 1e-6
    # beta_0 is real, so it is its own conjugate until it moves off the axis
    moved = betas.copy()
    moved[0] += 1e-5j
    conj_d, neg_d = _closure_defects(moved)
    assert conj_d > 1e-6 and neg_d > 1e-6
    assert _closure_defects(betas[:0]) == (np.inf, np.inf)


def test_negation_closure_fails_on_a_dropped_pair_member(bench_modes):
    # +-beta come out exact, so the closures read 0 on a full mode set and a
    # missing member of a pair is what negation_closure is left to catch; a
    # real beta is its own conjugate, so conjugation_closure stays at 0
    betas = bench_modes.betas
    assert _closure_defects(betas) == (0.0, 0.0)
    real = np.flatnonzero(betas.imag == 0.0)[0]
    conj_d, neg_d = _closure_defects(np.delete(betas, real))
    assert conj_d == 0.0 and neg_d > 1e-6


def test_verify_reports_empty_spectrum(tmp_path, capsys):
    # no eigenpair meets accept_tol = 1e-30: every check still reports,
    # and those that need retained modes fail instead of crashing
    path = write_config(tmp_path, {"n_colloc": 24, "accept_tol": 1e-30})
    assert run(["verify", "--config", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert [check["name"] for check in payload["checks"]] == list(FREE_CHECKS)
    failing = {c["name"] for c in payload["checks"] if not c["pass"]}
    assert failing >= {"retained_modes", "mode_residual_max", "conjugation_closure",
                       "negation_closure", "sh_closed_form_error",
                       "nonorthogonality_witness", "completeness_mode_fraction"}


# ----------------------------------------------------------------------
# BLAS thread policy


@pytest.fixture
def blas_at_two():
    """Every loaded OpenBLAS at two threads, so a one can only come from the
    policy; the previous counts are restored afterwards."""
    if not Path("/proc/self/maps").exists():
        pytest.skip("library discovery reads /proc/self/maps")
    libraries = _blas.openblas_libraries()
    assert libraries, "numpy loads OpenBLAS, but none was found"
    previous = [lib.get_num_threads() for lib in libraries]
    for lib in libraries:
        lib.set_num_threads(2)
    yield libraries
    for lib, count in zip(libraries, previous):
        lib.set_num_threads(count)


@pytest.mark.parametrize(("error", "code"), [
    (None, 0),
    (ConfigError("bad config"), 2),
    (ValueError("bad value"), 1),
    (RuntimeError("unexpected"), None),
], ids=["exit-0", "config-error", "value-error", "propagates"])
def test_subcommand_runs_on_one_blas_thread(tmp_path, monkeypatch, blas_at_two,
                                            error, code):
    seen = []

    def handler(config):
        seen.append([lib.get_num_threads() for lib in blas_at_two])
        if error is not None:
            raise error
        return "done\n"

    monkeypatch.setattr(cli, "_cmd_modes", handler)
    argv = ["modes", "--config", write_config(tmp_path)]
    if code is None:
        with pytest.raises(RuntimeError, match="unexpected"):
            run(argv)
    else:
        assert run(argv) == code
    assert seen == [[1] * len(blas_at_two)]
    assert [lib.get_num_threads() for lib in blas_at_two] == [2] * len(blas_at_two)


def test_run_without_openblas(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, {"n_colloc": 16})
    assert run(["modes", "--config", path]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(_blas, "openblas_libraries", lambda: ())
    assert run(["modes", "--config", path]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(("command", "n_colloc"), [("verify", 32), ("modes", 64)])
def test_output_bytes_do_not_follow_blas_threads(tmp_path, command, n_colloc):
    # at these sizes the bytes differ between one and two threads unless
    # the CLI sets its own thread count; verify exits 1 at n = 32, where the
    # shear-horizontal modes miss their closed form
    path = write_config(tmp_path, {"n_colloc": n_colloc})
    src = str(Path(lambspec.__file__).resolve().parents[1])
    base = {key: value for key, value in os.environ.items()
            if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}, {}):
        proc = subprocess.run(
            [sys.executable, "-m", "lambspec.cli", command, "--config", path],
            env={**base, **threads}, capture_output=True, timeout=600)
        assert proc.stderr == b"" and proc.stdout
        outputs.append((proc.returncode, proc.stdout))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


_MODULE_AUDIT = """
import contextlib, io, json, sys
import lambspec.cli
loaded = set(sys.modules)
report = {"import": sorted(loaded), "jobs": []}
for command, path in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = lambspec.cli.run([command, "--config", path])
    report["jobs"].append([command, path, code, sorted(set(sys.modules) - loaded)])
print(json.dumps(report))
"""


def test_cli_runs_load_no_unused_scipy_module(tmp_path):
    # in a fresh interpreter, because the test modules themselves import
    # scipy: neither the import nor any subcommand loads a scipy module (the
    # LAPACK calls go to numpy's own library), so no import cost hides
    # inside a job either
    sweep = {"omega_sweep": {"start": 2.0, "stop": 4.0, "steps": 3}}
    jobs = [(command, write_config(tmp_path, {"n_colloc": 16, "bc": bc, **extra},
                                   name=f"{command}-{bc}.json"))
            for bc in ("free-free", "clamped-free")
            for command, extra in (("modes", {}), ("dispersion", sweep),
                                   ("verify", {}), ("resolvent", {}),
                                   ("completeness", {}))]
    proc = subprocess.run([sys.executable, "-c", _MODULE_AUDIT, json.dumps(jobs)],
                          env=_src_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # n = 16 is too coarse for verify's SH and completeness checks
    assert [code for _, _, code, _ in report["jobs"]] == [0, 0, 1, 0, 0] * 2
    assert [name for name in report["import"] if name.split(".")[0] == "scipy"] == []
    for command, path, _, added in report["jobs"]:
        assert [name for name in added if name.split(".")[0] == "scipy"] == [], (command, path)
