"""Command line interface: config validation, CSV reports, verification gate."""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lambspec
from lambspec import BCKind, DiscreteOperator, _blas, cli
from lambspec.cli import (
    N_COLLOC_MAX,
    THETA0_DEFAULT,
    ConfigError,
    _closure_defects,
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
    ],
)
def test_parse_config_rejections(overrides, drop, fragment):
    doc = dict(BASE)
    doc.update(overrides)
    for key in drop:
        doc.pop(key)
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_config(doc)


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
    # which the default cluster tolerance keeps as singletons; their
    # eigenvalue condition lies below sqrt(chain_tol), so the Jordan screen
    # hands them to the bordered chain probe, which gives them chain length
    # 2.  The direction of the split follows rounding, so the halves are
    # picked by their distance to the root
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


def test_verify_benchmark_passes(tmp_path, capsys):
    path = write_config(tmp_path)
    assert run(["verify", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    names = [check["name"] for check in payload["checks"]]
    assert names == list(FREE_CHECKS)
    for check in payload["checks"]:
        assert check["pass"] is True
        assert set(check) == {"name", "measured", "threshold", "pass"}


def test_verify_clamped_passes(tmp_path, capsys):
    path = write_config(tmp_path, {"bc": "clamped-free"})
    assert run(["verify", "--config", path]) == 0
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
    monkeypatch.setattr(cli, "adjoint_defect", lambda op: 0.005)
    path = write_config(tmp_path)
    assert run(["verify", "--config", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    failing = [c["name"] for c in payload["checks"] if not c["pass"]]
    assert failing == ["adjoint_defect"]


def test_verify_ray_ratio_can_fail(tmp_path, capsys, bench_modes):
    # a ray that starts inside the spectrum: the first probe on ray 0 at
    # half |beta_0| is finite, the second sits just beyond the first
    # retained eigenvalue (on ray 0), where the resolvent norm is hundreds
    # of times larger but the LU is still well enough conditioned to keep;
    # the row order inside the first +-beta pair follows rounding, so the
    # member on ray 0 is picked by its angle
    on_ray = [mode.beta for mode in bench_modes.modes[:2]
              if abs(np.angle(mode.beta)) <= 1e-12]
    assert len(on_ray) == 1
    beta0 = on_ray[0]
    moduli = [0.5 * abs(beta0), 1.001 * abs(beta0)]
    path = write_config(tmp_path, {"n_colloc": 64, "moduli": moduli})
    assert run(["verify", "--config", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    failing = [c["name"] for c in payload["checks"] if not c["pass"]]
    assert failing == ["resolvent_ray_ratio"]


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
    assert libraries, "numpy and scipy load OpenBLAS, but none was found"
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
