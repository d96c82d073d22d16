#!/usr/bin/env python3
"""End-to-end benchmark of the nic pipeline, one workload per invocation.

Usage (from the repository root):

    python3 bench/run.py --workload ident-order4 --seed 1 --seconds 10 --trace 0

A run sets up every pool dataset in fresh interpreters (median reported as
``setup_s``), then runs ``identify``, ``validate`` and ``simulate``
in-process through ``nic.cli.main``, cycling over the pool until
``--seconds`` have passed (at least once).  It then re-issues every
recorded closed-loop step to ``nic.invert.control`` for the latency
percentiles and checks the outputs.  With ``--trace 1`` one more cycle runs
with spans around every layer boundary and the per-layer metrics are
reported instead.  bench/README.md defines every metric and check.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full record (git rev, CPUs, CPU model, numpy
version, seed, failures).  Records and spans also go to ``.bench_runs/``.
``--quick`` runs the reduced sizes of the self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 9          # fresh-interpreter set-ups per run (at least)
SETUP_TIMEOUT_S = 60
ORACLE_SAMPLES = 20     # replayed steps per dataset checked on the grid
RSS_PERIOD_S = 0.002    # resident-set sampling period
STAGES = ("identify", "validate", "simulate")
VERDICTS = ("validated-unstable", "invalidated")   # exit 1, report written

# Pin BLAS before numpy loads, here and (through the environment) in the
# set-up children, and import the package from this checkout only.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
if not (SRC / "nic" / "__init__.py").is_file():
    sys.exit(f"error: package source not found at {SRC / 'nic'}; "
             "run from a checkout of the repository")
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import workloads  # noqa: E402
from checks import (ORACLE_TOL, gamma_agrees, gamma_min_blocked,  # noqa: E402
                    oracle_gap, tube_holds)
from nic import fileio  # noqa: E402
from nic.cli import main as nic_main  # noqa: E402
from nic.invert import ControllerConfig, control  # noqa: E402
from nic.validate import closed_loop_prediction_data  # noqa: E402
from spans import Tracer  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes, for the self-test")
    return p.parse_args(argv)


class Run:
    """State of one benchmark invocation: inputs, outcomes, failures.

    Every stage writes into a directory made for it, so each output file is
    created rather than truncated: on ext4 a truncating rewrite waits for
    the old contents' writeback, which would time the disk, not the program.
    """

    def __init__(self, w, seed: int, work: Path):
        self.w = w
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.detail: dict = {}
        self.cycles = 0
        self.times = [[] for _ in range(w.pool)]   # per dataset: (id, val, sim)
        self.first: list[Path] = []                # first cycle's directories
        self.peak_rss = [0] * w.pool               # bytes, per dataset
        self.artifacts: list[dict] = []

    def op(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")

    def data(self, i: int) -> Path:
        return self.work / f"setup{i}" / "data.csv"


class RssSampler:
    """Peak resident set of this process between two ``take`` calls,
    sampled every RSS_PERIOD_S by a child process (bench/rss_sampler.py).

    getrusage only gives the peak over the whole run, which is set by the
    pool's largest dataset and so jumps with the seed; sampling gives each
    dataset its own peak, and the benchmark averages them.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "rss_sampler.py"), str(os.getpid()),
             str(RSS_PERIOD_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def take(self) -> int:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return int(self._proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


# -- set-up ------------------------------------------------------------------

def setup(run: Run) -> float:
    times = []
    for k in range(max(SETUP_REPS, run.w.pool)):
        i = k % run.w.pool
        d = run.work / f"setup{k}"
        cfg = json.dumps(workloads.pipeline_config(run.w, run.seed, i))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_stage.py"), cfg, str(d)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        ok = proc.returncode == 0 and (d / "data.csv").is_file()
        run.op(f"setup ds{i}", None if ok else
               f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return statistics.median(times)


# -- pipeline ----------------------------------------------------------------

def stage(cmd: str, d: Path) -> tuple[int, float, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        rc = nic_main([cmd, "--config", str(d / "config.yaml"), "--out", str(d)])
        dt = time.perf_counter() - t0
    return rc, dt, buf.getvalue()


def stage_failure(cmd: str, rc: int, d: Path, text: str) -> str | None:
    """A validation verdict other than validated-stable (exit 1 with the
    verdict in the report) is a result, not a failure."""
    if rc == 0:
        return None
    if cmd == "validate" and rc == 1:
        report = load_yaml(d / "validation_report.yaml")
        if report and report.get("verdict") in VERDICTS:
            return None
    return f"exit {rc}: {text.strip()[-300:]}"


def load_yaml(path: Path):
    if not path.is_file():
        return None
    with path.open() as fh:
        return yaml.safe_load(fh)


ARTIFACTS = ("identify_report.yaml", "model.yaml", "validation_report.yaml",
             "metrics.yaml")


def cycle(run: Run, rss: RssSampler | None = None,
          generate: bool = False) -> list[float]:
    """Run the pipeline once on every pool dataset, each in a new directory;
    returns the per-dataset pipeline times (identify through simulate).
    With ``rss`` each dataset's peak resident set is recorded; with
    ``generate`` the record is regenerated in-process first."""
    c = run.cycles
    run.cycles += 1
    totals = []
    for i in range(run.w.pool):
        d = run.work / f"c{c}-ds{i}"
        d.mkdir()
        data = "data.csv" if generate else str(run.data(i))
        config = workloads.pipeline_config(run.w, run.seed, i, data=data)
        (d / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=False))
        if generate:
            rc, _, text = stage("generate-data", d)
            run.op(f"generate-data ds{i}", stage_failure("generate-data", rc, d, text))
        if rss is not None:
            rss.take()
        dts = []
        for cmd in STAGES:
            rc, dt, text = stage(cmd, d)
            run.op(f"{cmd} ds{i}", stage_failure(cmd, rc, d, text))
            dts.append(dt)
        totals.append(sum(dts))
        if rss is not None:
            run.peak_rss[i] = max(run.peak_rss[i], rss.take())
        if not generate:
            run.times[i].append(dts)
        outputs = {name: (d / name).read_bytes() if (d / name).is_file() else b""
                   for name in ARTIFACTS}
        if c == 0:
            run.first.append(d)
            run.artifacts.append(outputs)
            continue
        changed = [n for n in ARTIFACTS if outputs[n] != run.artifacts[i][n]]
        run.op(f"deterministic outputs ds{i}",
               f"{changed} differ from the first cycle" if changed else None)
        shutil.rmtree(d)
    return totals


# -- replay, latency and checks ------------------------------------------------

def load_dataset(run: Run, i: int) -> dict:
    d = run.first[i]
    model, diag = fileio.load_model(d / "model.yaml")
    return {
        "dir": d,
        "model": model,
        "diag": diag,
        "data": fileio.load_dataset_csv(run.data(i)),
        "cfg": ControllerConfig(workloads.U_MIN, workloads.U_MAX, mu=0.0),
        "config": load_yaml(d / "config.yaml"),
        "identify": load_yaml(d / "identify_report.yaml"),
        "validate": load_yaml(d / "validation_report.yaml"),
        "metrics": load_yaml(d / "metrics.yaml"),
    }


def recorded_steps(ds: dict) -> list[tuple]:
    """(q, r, u, y) of every closed-loop step, rebuilt from the trajectory files
    with the controller's pre-horizon history (y0 outputs, zero commands)."""
    n = ds["model"].order
    steps = []
    for spec in ds["config"]["simulate"]["scenarios"]:
        traj = np.loadtxt(ds["dir"] / f"traj_{spec['name']}.csv",
                          delimiter=",", skiprows=1, ndmin=2)
        r, y, u = traj[:, 1], traj[:, 2], traj[:, 3]
        yh = np.concatenate([np.full(n, float(spec["y0"])), y])
        uh = np.concatenate([np.zeros(n), u])
        for t in range(r.size):
            q = np.concatenate([yh[t:t + n][::-1], uh[t + 1:t + n][::-1]])
            steps.append((q, float(r[t]), float(u[t]), float(y[t])))
    return steps


def replay_latency(run: Run, datasets: list[dict]) -> dict:
    """Re-issue every recorded step to nic.invert.control, one call at a
    time, timing each call, and check that it reproduces the recorded
    command.

    The pool's steps are interleaved, so machine noise falls on every
    dataset alike.  p50 and p99 are taken over each dataset's calls and
    averaged over the pool, because models differ in cost and a percentile
    of the mixture would jump between them.
    """
    for ds in datasets:   # fill the model caches before timing
        control(ds["model"], ds["steps"][0][0], ds["steps"][0][1], ds["cfg"])
    order = [(i, k) for k in range(max(len(ds["steps"]) for ds in datasets))
             for i, ds in enumerate(datasets) if k < len(ds["steps"])]
    lat = [np.empty(len(ds["steps"])) for ds in datasets]
    mismatched = [0] * len(datasets)
    clock = time.perf_counter_ns
    for i, k in order:
        ds = datasets[i]
        q, r, u_rec, _ = ds["steps"][k]
        t0 = clock()
        u = control(ds["model"], q, r, ds["cfg"])
        lat[i][k] = (clock() - t0) * 1e-3
        mismatched[i] += u != u_rec
    for i, ds in enumerate(datasets):
        steps = ds["steps"]
        run.op(f"replayed commands ds{i}",
               f"{mismatched[i]} replayed commands differ from the recorded run"
               if mismatched[i] else None)
        sample = np.linspace(0, len(steps) - 1, ORACLE_SAMPLES).astype(int)
        worst = max(oracle_gap(ds["model"], ds["cfg"], *steps[k][:3])
                    for k in sample)
        run.op(f"criterion-1 oracle ds{i}",
               None if worst <= ORACLE_TOL else f"J(u) exceeds grid min by {worst:.3e}")
    p50, p99 = np.mean([np.percentile(x, [50, 99]) for x in lat], axis=0)
    return {"p50": float(p50), "p99": float(p99), "calls": len(order)}


def check_outputs(run: Run, ds: dict, i: int) -> None:
    run.op(f"tube ds{i}", tube_holds(ds["identify"], ds["diag"]))
    for spec in ds["config"]["simulate"]["scenarios"]:
        m = ds["metrics"][spec["name"]]
        bad = m["diverged"] or m["steps"] != spec["horizon"]
        run.op(f"scenario {spec['name']} ds{i}",
               f"diverged after {m['steps']} steps" if bad else None)
    rep = ds["validate"]
    cfg = ControllerConfig(workloads.U_MIN, workloads.U_MAX, mu=float(rep["mu"]))
    pairs = closed_loop_prediction_data(ds["model"], cfg, ds["data"],
                                        int(rep["m"]), float(rep["eps"]))
    run.op(f"gamma_min ds{i}",
           gamma_agrees(float(rep["gamma_min"]), gamma_min_blocked(pairs)))


# -- traced cycle --------------------------------------------------------------

def traced_cycle(run: Run, untraced_s: float, spans_path: Path) -> dict:
    tr = Tracer()
    tr.install()
    try:
        traced_s = sum(cycle(run, generate=True))
    finally:
        tr.uninstall()
    tr.write(spans_path)
    return layer_metrics(tr, run.w.pool, traced_s / untraced_s)


def layer_metrics(tr, pool: int, overhead: float) -> dict:
    dur = tr.durations()

    def count(name):
        return dur.get(name, (0, 0.0, 0.0))[0] / pool

    def total(name):
        return dur.get(name, (0, 0.0, 0.0))[1] / pool

    def own(prefix):
        return sum(v[2] for k, v in dur.items() if k.startswith(prefix)) / pool

    def per(key):
        return tr.counts[key] / pool

    def mean(key):
        s = tr.samples[key]
        return sum(s) / len(s) if s else 0.0

    return {
        "optim.solves": (count("optim.solve_standard_form"), "count"),
        "optim.pivots": (per("optim.pivots"), "count"),
        "optim.busy_s": (own("optim."), "s"),
        "optim.max_tableau_cells": (tr.maxima["optim.max_tableau_cells"], "count"),
        "optim.infeasible_solves": (per("optim.infeasible_solves"), "count"),
        "identify.self_s": (own("identify."), "s"),
        "identify.neighbor_sets_s": (total("identify.neighbor_sets"), "s"),
        "identify.sc_rows": (per("identify.sc_rows"), "count"),
        "identify.gamma_probes": (per("identify.gamma_probes"), "count"),
        "identify.order": (mean("identify.order"), "count"),
        "identify.nnz": (mean("identify.nnz"), "count"),
        "poly.real_roots_calls": (count("poly.real_roots"), "count"),
        "poly.real_roots_s": (total("poly.real_roots"), "s"),
        "poly.companion_dim_mean": (mean("poly.companion_dim"), "count"),
        "poly.restrict_s": (total("poly.restrict_to_u"), "s"),
        "poly.basis_matrix_s": (total("poly.basis_matrix"), "s"),
        "invert.calls": (count("invert.control_details"), "count"),
        "invert.self_s": (own("invert."), "s"),
        "invert.candidates_mean": (mean("invert.candidates"), "count"),
        "invert.degenerate_steps": (per("invert.degenerate_steps"), "count"),
        "invert.saturated_steps": (per("invert.saturated_steps"), "count"),
        "validate.replays": (count("validate.replay"), "count"),
        "validate.replay_s": (total("validate.replay"), "s"),
        "validate.gamma_min_s": (total("validate.gamma_min"), "s"),
        "validate.pairs": (per("validate.pairs"), "count"),
        "validate.pair_bytes_computed": (per("validate.pair_bytes_computed"), "B"),
        "validate.gamma_min_peak_bytes": (
            tr.maxima["validate.gamma_min_peak_bytes"], "B"),
        "sim.steps": (per("sim.steps"), "count"),
        "sim.loop_s": (total("sim.run_closed_loop"), "s"),
        "sim.plant_s": (total("sim.plant_update"), "s"),
        "sim.generate_s": (total("sim.generate_dataset"), "s"),
        "fileio.busy_s": (own("fileio."), "s"),
        "fileio.bytes_written": (per("fileio.bytes_written"), "B"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


# -- environment -------------------------------------------------------------

def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "seed": seed,
    }


# -- main --------------------------------------------------------------------

def measure(run: Run, seconds: float, trace: bool, spans_path: Path) -> dict:
    setup_s = setup(run)
    if run.failures:
        return {}
    deadline = time.perf_counter() + seconds
    with RssSampler() as rss:
        while True:
            cycle(run, rss)
            if time.perf_counter() >= deadline:
                break
    med = [[statistics.median(col) for col in zip(*ts)] for ts in run.times]
    pipe = [statistics.median(sum(c) for c in ts) for ts in run.times]

    datasets = [load_dataset(run, i) for i in range(run.w.pool)]
    for ds in datasets:
        ds["steps"] = recorded_steps(ds)
    lat = replay_latency(run, datasets)
    for i, ds in enumerate(datasets):
        check_outputs(run, ds, i)

    steps = sum(len(ds["steps"]) for ds in datasets)
    sq_err = sum((y - r) ** 2 for ds in datasets for _, r, _, y in ds["steps"])
    run.detail = {"cycles": run.cycles, "datasets": run.w.pool,
                  "control_samples": lat["calls"],
                  "closed_loop_steps": steps}
    if trace:
        return {**traced_cycle(run, sum(pipe), spans_path),
                "control_p99_us": (lat["p99"], "us")}
    return {
        "setup_s": (setup_s, "s"),
        "identify_s": (float(np.mean([m[0] for m in med])), "s"),
        "validate_s": (float(np.mean([m[1] for m in med])), "s"),
        "pipeline_s": (float(np.mean(pipe)), "s"),
        "control_p50_us": (lat["p50"], "us"),
        "loop_steps_per_s": (steps / sum(m[2] for m in med), "1/s"),
        "peak_rss_mb": (float(np.mean(run.peak_rss)) / 2**20, "MB"),
        "track_rms": (float(np.sqrt(sq_err / steps)), "y"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    w = workloads.get(args.workload, quick=args.quick)
    tag = f"{w.name}-seed{args.seed}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(w, args.seed, work)
    try:
        measured = measure(run, args.seconds, bool(args.trace),
                           OUT / f"{tag}.spans.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(run.failures)
    result = {
        "correct": failed == 0 and bool(measured),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }
    record = {"workload": w.name, "quick": args.quick, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed),
              **run.detail, "failures": run.failures,
              "fail_ratio": failed / max(run.attempted, 1), **result}
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
