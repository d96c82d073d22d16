"""Workload definitions: one CLI config per pool dataset, built from the seed.

A workload is a full four-stage pipeline run (generate-data, identify,
validate, simulate) on each dataset of a small pool.  The pool members
differ only in their data and scenario seeds, which are derived from the
benchmark seed, so the same seed always gives the same inputs.  Timing
several datasets per run averages out how much one record's pivot count or
replay length depends on its noise draw.  Why each workload exists, and
which per-layer metric should move which end-to-end metric on it, is in
BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

U_MIN, U_MAX = -1.0, 1.0
XI = 0.005  # disturbance box half-width of the noisy plants


@dataclass(frozen=True)
class Workload:
    name: str
    plant: str
    data_xi: float   # disturbance bound while recording the data
    sim_xi: float    # disturbance bound of the closed-loop scenarios
    length: int
    degree: int
    n_max: int
    horizon: int     # steps per closed-loop scenario
    pool: int        # datasets per run


# Full-size workloads.  Record lengths, degrees and orders are part of the
# workload definition; horizons and pool sizes set how much work one run
# measures.
WORKLOADS = {
    w.name: w for w in (
        # simplex pivots on the ~330-row order-4 l1 dual do >90% of the work
        Workload("ident-order4", "bilinear2", XI, XI, length=200, degree=3,
                 n_max=4, horizon=400, pool=10),
        # every control step solves a 15x15 companion eigenproblem; LP idle
        Workload("track-deg8", "deadzone2", 0.0, 0.0, length=300, degree=8,
                 n_max=1, horizon=400, pool=24),
        # five 3000-step mu-grid replays and O(P^2) pair arrays dominate.
        # The record is noise-free: with +-0.005 noise the fit picks up
        # spurious u^2/u^3 terms on some seeds and not others, which moves
        # the control latency 2.7x between seeds.  ident-order4 keeps the
        # noisy identification.
        Workload("validate-long", "bilinear2", 0.0, XI, length=3000, degree=3,
                 n_max=2, horizon=500, pool=3),
    )
}

# Reduced sizes used by the self-test: same plants and stages, one dataset.
QUICK = {
    "ident-order4": dict(length=120, n_max=2, horizon=120, pool=1),
    "track-deg8": dict(length=150, horizon=150, pool=1),
    "validate-long": dict(length=400, horizon=120, pool=1),
}

SCENARIOS = (
    ("steps", {"kind": "steps", "low": -0.3, "high": 0.3, "hold": 80}),
    ("sine", {"kind": "sine", "amplitude": 0.25, "period": 120}),
    ("filtered", {"kind": "filtered", "low": -0.3, "high": 0.3, "pole": 0.95}),
)


def pipeline_config(w: Workload, seed: int, index: int,
                    data: str = "data.csv") -> dict:
    """The CLI config of pool dataset ``index``, reading its record from
    ``data``; relative paths resolve against the config's directory."""
    plant = {"name": w.plant, "params": {}, "xi_bound": w.sim_xi}
    base = 1000 * seed + index
    return {
        "data": {
            "plant": {**plant, "xi_bound": w.data_xi},
            "excitation": {"kind": "uniform", "length": w.length,
                           "u_min": U_MIN, "u_max": U_MAX},
            "seed": base,
            "y0": 0.0,
        },
        "identify": {"data": data, "degree": w.degree,
                     "n_max": w.n_max},
        "controller": {"u_min": U_MIN, "u_max": U_MAX, "mu": 0.0},
        "validate": {"model": "model.yaml", "data": data},
        "simulate": {
            "model": "model.yaml",
            "scenarios": [
                {"name": name, "horizon": w.horizon, "y0": 0.0,
                 "reference": ref, "plant": plant,
                 "xi_amplitude": w.sim_xi, "seed": 10 * base + j}
                for j, (name, ref) in enumerate(SCENARIOS)
            ],
        },
    }


def get(name: str, quick: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **QUICK[name]) if quick else w
