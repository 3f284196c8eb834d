"""The benchmark's workloads: one `lambspec` subcommand and config each.

All three use the material lambda=2, mu=1, rho=1, h=1.  The workload seed
goes into the config `seed` field; only `verify` draws random inputs from
it (symbol-identity samples, stable-solution probes, coercivity trials and
the expansion targets), so the `modes` and `dispersion` output does not
depend on the seed.  README.md explains why each workload was chosen.
"""

from __future__ import annotations

MATERIAL = {"lambda": 2.0, "mu": 1.0, "rho": 1.0, "h": 1.0}

#: dispersion sweep, shared by the config and the gate
SWEEP = {"start": 2.0, "stop": 4.0, "steps": 41}

#: name -> (subcommand, config fields beyond MATERIAL and seed)
WORKLOADS = {
    "verify-free-n64": ("verify", {"omega": 3.0, "bc": "free-free", "n_colloc": 64}),
    "modes-free-n128": ("modes", {"omega": 3.0, "bc": "free-free", "n_colloc": 128}),
    "dispersion-clamped-n32": ("dispersion", {"omega": 3.0, "bc": "clamped-free",
                                              "n_colloc": 32, "omega_sweep": SWEEP}),
}


def config_seed(seed: int) -> int:
    """Map any benchmark seed onto the non-negative range the config accepts."""
    return seed % 2**32


def config_doc(workload: str, seed: int) -> dict:
    """The JSON config document of one workload at one seed."""
    _command, fields = WORKLOADS[workload]
    return {**MATERIAL, **fields, "seed": config_seed(seed)}


def command(workload: str) -> str:
    return WORKLOADS[workload][0]
