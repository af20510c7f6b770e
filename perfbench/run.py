#!/usr/bin/env python3
"""geoattn benchmark: the real CLI on simulated data, one workload per process.

    python3 perfbench/run.py --workload mbg_n1000 --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. Each run:

1. sets up: ``geoattn simulate`` in a fresh interpreter (import + simulation
   + CSV), plus the config files, repeated ``SETUP_REPEATS`` times;
2. runs the workload's CLI commands in this process, one after another
   (a closed loop with one client, CV ``--workers 1``, default BLAS threads),
   in passes over the same data until ``--seconds`` have passed, and at
   least ``MIN_PASSES`` times so that reruns can be compared byte for byte;
3. checks every command's outputs (exit code, prediction bounds, manifest
   digests, byte-identical reruns) and counts each failed check;
4. prints a details line (machine, workload parameters, per-model quality,
   per-command times) and, last, the result line
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
pass 0 runs untraced, then untraced and traced passes alternate; traced
passes record spans around each module's public functions (see
``spans.py``), and the metrics are the per-layer ones.
Results and spans are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Claims are checked on HELD_OUT_SEED too, which no tuning run may use.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3
MIN_PASSES = 2


@dataclass(frozen=True)
class Workload:
    """Fixed parameters of one workload; only the seed varies between runs."""

    n_times: int
    locs_per_time: int
    epochs: int                      # GAT epochs (gat_only and hybrid; 0 when unused)
    nm_max_iter: int                 # Nelder-Mead iteration cap
    free_params: dict = field(default_factory=dict)  # kind -> NM parameters; absent = all
    n_draws: int = 500
    fits: tuple = ()                 # `fit --kind` commands, in order
    cv_k: int = 0                    # > 0: one `cv --k` over gat_only, hybrid, mbg

    @property
    def n(self) -> int:
        return self.n_times * self.locs_per_time


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "mbg_n1000": Workload(
        n_times=8, locs_per_time=125, epochs=0, nm_max_iter=0,
        free_params={"mbg": ["log_sigma2"]}, fits=("mbg",),
    ),
    "gat_n2200": Workload(
        n_times=10, locs_per_time=220, epochs=20, nm_max_iter=0, fits=("gat_only",),
    ),
    "cv_n400": Workload(
        n_times=8, locs_per_time=50, epochs=40, nm_max_iter=0,
        free_params={"mbg": ["log_sigma2"], "hybrid": ["theta2"]}, cv_k=3,
    ),
    # Tiny run of every command and layer, for perfbench/smoke.py.
    "smoke": Workload(
        n_times=3, locs_per_time=20, epochs=3, nm_max_iter=1, n_draws=50,
        fits=("gat_only", "hybrid", "mbg"), cv_k=2,
    ),
}

CV_KINDS = ("gat_only", "hybrid", "mbg")


class Tally:
    """Operations attempted and failed.

    An operation is a command, a CV fold or an output check. A command that
    exits non-zero or a fold that errors is the program reporting a failure:
    it counts in ``failed``. A failed output check means an output is wrong:
    it counts in ``failed`` and also makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.incorrect: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def operation(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def check(self, ok: bool, what: str) -> bool:
        if not self.operation(ok, what):
            self.incorrect.append(what)
        return ok


# ---------------------------------------------------------------------------
# Machine description
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {k: os.environ[k] for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(), "thread_env": env or "default"},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def write_configs(wl: Workload, seed: int, where: Path) -> None:
    from geoattn import geostat

    (where / "sim.json").write_text(json.dumps({
        "version": 1, "seed": seed, "n_times": wl.n_times,
        "locs_per_time": [wl.locs_per_time, wl.locs_per_time],
    }))

    def model(kind: str) -> dict:
        opt = {"max_iter": wl.nm_max_iter}
        if kind in wl.free_params:
            opt["bounds"] = {p: list(geostat.DEFAULT_BOUNDS[p]) for p in wl.free_params[kind]}
        cfg = {"version": 1, "seed": seed, "n_draws": wl.n_draws, "optimizer": opt}
        if kind != "mbg":
            cfg["gat"] = {"epochs": wl.epochs}
        return cfg

    for kind in wl.fits:
        (where / f"fit_{kind}.json").write_text(json.dumps(model(kind)))
    if wl.cv_k:
        specs = [dict(model(kind), name=kind, kind=kind) for kind in CV_KINDS]
        (where / "specs.json").write_text(json.dumps({"version": 1, "specs": specs}))


def setup(wl: Workload, seed: int, run_dir: Path, tally: Tally) -> tuple[Path, list[float]]:
    """Simulate the data SETUP_REPEATS times; returns the last set-up dir and the times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, digests, where = [], set(), run_dir
    for i in range(SETUP_REPEATS):
        where = run_dir / f"setup{i}"
        where.mkdir(parents=True)
        t0 = time.perf_counter()
        write_configs(wl, seed, where)
        proc = subprocess.run(
            [sys.executable, "-m", "geoattn.cli", "simulate",
             "--config", str(where / "sim.json"), "--out", str(where / "data")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if tally.operation(proc.returncode == 0, f"simulate exited {proc.returncode}: {proc.stderr[-500:]}"):
            check_manifest(where / "data", tally)
            digests.add(sha256(where / "data" / "dataset.csv"))
    tally.check(len(digests) == 1, "simulate reruns differ")
    return where, times


# ---------------------------------------------------------------------------
# Commands and output checks
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out_dir: Path, tally: Tally) -> None:
    try:
        outputs = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError) as err:
        tally.check(False, f"{out_dir.name}: unreadable manifest: {err}")
        return
    bad = [name for name, digest in outputs.items()
           if not (out_dir / name).is_file() or sha256(out_dir / name) != digest]
    tally.check(bool(outputs) and not bad, f"{out_dir.name}: manifest digest mismatch {bad}")


def read_truth(dataset: Path) -> dict[int, float]:
    with dataset.open(newline="") as fh:
        return {int(row["id"]): float(row["true_p"]) for row in csv.DictReader(fh)}


def read_predictions(path: Path) -> list[tuple[int, float, float, float]]:
    with path.open(newline="") as fh:
        return [(int(r["id"]), float(r["mean"]), float(r["lo95"]), float(r["hi95"]))
                for r in csv.DictReader(fh)]


def check_predictions(path: Path, truth: dict, tally: Tally) -> list | None:
    """One finite row per record with 0 <= lo <= mean <= hi <= 1."""
    try:
        rows = read_predictions(path)
    except (OSError, ValueError, KeyError) as err:
        tally.check(False, f"{path}: unreadable predictions: {err}")
        return None
    ids = [r[0] for r in rows]
    ok = (len(ids) == len(truth) and set(ids) == set(truth)
          and all(math.isfinite(v) for r in rows for v in r[1:])
          and all(0.0 <= lo <= mean <= hi <= 1.0 for _, mean, lo, hi in rows))
    return rows if tally.check(ok, f"{path}: predictions fail row/finite/bounds check") else None


def commands(wl: Workload, seed: int, data: Path, cfg: Path, out: Path) -> list[tuple[str, list]]:
    cmds = []
    for kind in wl.fits:
        argv = ["fit", "--dataset", str(data), "--kind", kind,
                "--config", str(cfg / f"fit_{kind}.json"), "--out", str(out / kind)]
        if kind == "hybrid":
            argv += ["--gat-checkpoint", str(out / "gat_only" / "checkpoint.json")]
        cmds.append((kind, argv))
    if wl.cv_k:
        cmds.append(("cv", ["cv", "--dataset", str(data), "--specs", str(cfg / "specs.json"),
                            "--k", str(wl.cv_k), "--seed", str(seed), "--workers", "1",
                            "--out", str(out / "cv")]))
    return cmds


def compared_files(name: str) -> list[str]:
    if name == "cv":
        return ["cv_report.json", "ranking.csv"]
    return ["predictions.csv", "fit.json"]


def run_pass(wl: Workload, seed: int, setup_dir: Path, out: Path, ref: dict | None,
             truth: dict, tally: Tally) -> dict:
    """One pass over the workload's commands; returns times, exit codes and quality.

    ``ref`` is pass 0, whose outputs every later pass must repeat exactly.
    """
    from geoattn import cli

    data = setup_dir / "data" / "dataset.csv"
    times, codes, quality = {}, {}, {}
    for name, argv in commands(wl, seed, data, setup_dir, out):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as err:  # noqa: BLE001 - a traceback is a wrong output
            code = f"{type(err).__name__}: {err}"
        times[name] = time.perf_counter() - t0
        codes[name] = code
        if ref is not None:
            tally.check(code == ref["codes"][name], f"{name}: exit {code}, pass 0 exited {ref['codes'][name]}")
        if not isinstance(code, int):
            tally.check(False, f"{name}: {code}")
            continue
        if not tally.operation(code == 0, f"{name}: exit {code}"):
            continue
        check_manifest(out / name, tally)
        if name == "cv":
            quality.update(check_cv(wl, out / "cv", tally))
        else:
            rows = check_predictions(out / name / "predictions.csv", truth, tally)
            if rows is not None:
                quality.update(insample_quality(name, rows, truth, out / name / "fit.json"))
        if ref is not None:
            for fname in compared_files(name):
                a, b = out / name / fname, ref["out"] / name / fname
                tally.check(a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes(),
                            f"{name}/{fname} differs from pass 0")
    return {"out": out, "times": times, "codes": codes, "wall_s": sum(times.values()),
            "quality": quality, "traced": False}


def insample_quality(kind: str, rows: list, truth: dict, fit_json: Path) -> dict:
    err2 = [(mean - truth[i]) ** 2 for i, mean, _, _ in rows]
    q = {f"rbs.{kind}": math.sqrt(sum(err2) / len(err2))}
    if kind != "gat_only":
        cover = sum(lo <= truth[i] <= hi for i, _, lo, hi in rows) / len(rows)
        q[f"coverage95.{kind}"] = cover
        q[f"coverage_gap.{kind}"] = abs(cover - 0.95)
        q[f"logml.{kind}"] = json.loads(fit_json.read_text())["log_marginal_likelihood"]
    return q


def check_cv(wl: Workload, cv_dir: Path, tally: Tally) -> dict:
    """Each fold of each spec is one operation; only complete specs are scored."""
    try:
        report = json.loads((cv_dir / "cv_report.json").read_text())
    except (OSError, ValueError) as err:
        tally.check(False, f"cv: unreadable report: {err}")
        return {}
    q = {}
    for kind in CV_KINDS:
        rep = report.get(kind, {})
        errors = rep.get("errors", {"all": "spec missing"})
        for fold in range(wl.cv_k):
            tally.operation(str(fold) not in errors and "all" not in errors,
                            f"cv {kind} fold {fold}: {errors.get(str(fold), errors.get('all'))}")
        if errors:
            continue
        metrics = rep.get("metrics") or {}
        ok = rep.get("pooled_records") == wl.n and math.isfinite(metrics.get("rbs", math.nan))
        if tally.check(ok, f"cv {kind}: complete spec with an incomplete pooled report"):
            q[f"rbs.{kind}"] = metrics["rbs"]
    return q


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "geoattn" / "__init__.py").is_file():
        print(f"error: no geoattn package under {SRC}", file=sys.stderr)
        return 2
    for var in ("GEOATTN_SEED", "GEOATTN_WORKERS"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import geoattn
    from geoattn import cli  # noqa: F401 - loaded before tracing patches the package

    if not Path(geoattn.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: geoattn imported from {geoattn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    label = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = OUT / f"{label}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tally = Tally()
    tracer = None
    min_passes = MIN_PASSES + args.trace  # traced runs add one traced pass
    try:
        setup_dir, setup_times = setup(wl, args.seed, run_dir, tally)
        truth = read_truth(setup_dir / "data" / "dataset.csv") if tally.failed == 0 else {}
        passes = []
        t_start = time.perf_counter()
        while truth and not tally.incorrect and (
                len(passes) < min_passes or time.perf_counter() - t_start < args.seconds):
            i = len(passes)
            out, ref = run_dir / f"pass{i}", passes[0] if passes else None
            if args.trace and i >= 2 and i % 2 == 0:
                from spans import Tracer

                tracer = tracer or Tracer()
                tracer.run_id = f"{label}-p{i}"
                with tracer.installed():
                    passes.append(run_pass(wl, args.seed, setup_dir, out, ref, truth, tally))
                passes[-1]["traced"] = True
            else:
                passes.append(run_pass(wl, args.seed, setup_dir, out, ref, truth, tally))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.dump(OUT / f"{label}-spans.json")
        shutil.rmtree(run_dir, ignore_errors=True)

    quality = passes[0]["quality"] if passes else {}
    correct = not tally.incorrect and len(passes) >= min_passes
    cmd_times = {}
    for name in passes[0]["times"] if passes else ():
        key = "cv_s" if name == "cv" else f"fit_{name}_s"
        cmd_times[key] = median([p["times"][name] for p in passes])
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "params": dict(asdict(wl), n=wl.n, setup_repeats=SETUP_REPEATS),
        "machine": machine(),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_times_s": setup_times,
        "command_s": cmd_times,
        "quality": quality,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "failures": tally.failures[:20],
        "incorrect": tally.incorrect[:20],
    }

    if not correct:
        metrics = {}
    elif args.trace:
        from spans import layer_totals, per_layer_metrics

        traced = [per_layer_metrics(layer_totals(tracer.spans, run))
                  for run in dict.fromkeys(s["run"] for s in tracer.spans)]
        metrics = {name: {"value": median([t[name][0] for t in traced]), "unit": unit}
                   for name, (_, unit) in traced[0].items()}
        # Pass 0 pays first-call costs, so only later untraced passes are the baseline.
        overhead = (median([p["wall_s"] for p in passes if p["traced"]])
                    - median([p["wall_s"] for p in passes[1:] if not p["traced"]]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "wall_s": {"value": median([p["wall_s"] for p in passes]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    (OUT / f"{label}.json").write_text(json.dumps({"details": details, "result": result}, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
