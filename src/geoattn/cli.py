"""Batch command-line front end.

Four subcommands wire the pipeline end to end: ``simulate`` draws a synthetic
dataset, ``fit`` trains/fits one model kind on a dataset and writes in-sample
predictions, ``evaluate`` scores prediction files against a truth source and
renders an SVG scatter, and ``cv`` runs the spatial cross-validation harness
over a spec list.

Conventions shared by every command: JSON configs are versioned and unknown
keys are hard errors; outputs are written atomically (temp file + rename)
into the --out directory together with exactly one manifest recording the
config snapshot, seeds, and SHA-256 digests of all inputs and outputs; exit
code 0 means success, 2 a validation failure, 3 a numerical failure.
``GEOATTN_SEED`` and ``GEOATTN_WORKERS`` override the config seed and the
cross-validation worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import attnfield, evalkit, gatv2, geostat, pipeline, simgen
from .errors import GeoattnError

ARTIFACT_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class ValidationFailure(Exception):
    """Raised for config/schema/input problems; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: dict, context: str) -> dict:
    """Apply defaults and reject unknown keys with a field diagnostic."""
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationFailure(
            f"unknown key(s) in {context}: {', '.join(sorted(unknown))}"
        )
    out = dict(allowed)
    out.update(obj)
    return out


def _load_json(path: str | Path, context: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ValidationFailure(f"cannot read {context} file {path}: {err}") from err
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationFailure(
            f"{context} file {path} is not valid JSON (line {err.lineno}): {err.msg}"
        ) from err
    if not isinstance(obj, dict):
        raise ValidationFailure(f"{context} file {path} must hold a JSON object")
    return obj


def _check_version(obj: dict, context: str) -> None:
    if obj.get("version") != 1:
        raise ValidationFailure(f"{context}: 'version' must be present and equal to 1")


def parse_sim_config(obj: dict) -> simgen.SimConfig:
    _check_version(obj, "simulation config")
    allowed = {
        "version": 1,
        "seed": None,
        "n_times": 10,
        "locs_per_time": [100, 300],
        "n_covariates": 10,
        "beta0": -1.75,
        "delta": 0.8,
        "phi_s": 0.25,
        "phi_t": 0.25,
        "gamma": 0.75,
        "trials_range": [30, 80],
        "beta": None,
    }
    cfg = _require_keys(obj, allowed, "simulation config")
    if cfg["seed"] is None:
        raise ValidationFailure("simulation config: field 'seed' is required")
    try:
        return simgen.SimConfig(
            n_times=int(cfg["n_times"]),
            locs_per_time=tuple(int(v) for v in cfg["locs_per_time"]),
            n_covariates=int(cfg["n_covariates"]),
            beta0=float(cfg["beta0"]),
            delta=float(cfg["delta"]),
            phi_s=float(cfg["phi_s"]),
            phi_t=float(cfg["phi_t"]),
            gamma=float(cfg["gamma"]),
            trials_range=tuple(int(v) for v in cfg["trials_range"]),
            seed=int(cfg["seed"]),
            beta=None if cfg["beta"] is None else tuple(float(b) for b in cfg["beta"]),
        )
    except (TypeError, ValueError) as err:
        raise ValidationFailure(f"simulation config: {err}") from err


_GRAPH_DEFAULTS = {"k_neighbors": gatv2.DEFAULT_K_NEIGHBORS, "time_scale": gatv2.DEFAULT_TIME_SCALE}
_GAT_DEFAULTS = {
    "widths": [16, 16], "heads": 4, "leaky_slope": 0.2,
    "learning_rate": 0.1, "epochs": 2000, "weight_init_scale": 1.0,
}
_KERNEL_DEFAULTS = {
    "family": "gneiting", "sigma2": 1.0, "rho": 0.25, "nu": 1.5,
    "phi_s": 0.25, "phi_t": 0.25, "gamma": 0.0,
}
_ATTN_DEFAULTS = {"theta1": 0.0, "theta2": 0.0}
_OPT_DEFAULTS = {"restarts": 1, "max_iter": 150, "bounds": None}


def _parse_kernel(obj: dict, context: str) -> geostat.KernelSpec:
    cfg = _require_keys(obj, _KERNEL_DEFAULTS, context)
    try:
        return geostat.KernelSpec(
            family=cfg["family"],
            sigma2=float(cfg["sigma2"]),
            rho=float(cfg["rho"]),
            nu=float(cfg["nu"]),
            phi_s=float(cfg["phi_s"]),
            phi_t=float(cfg["phi_t"]),
            gamma=float(cfg["gamma"]),
        )
    except ValueError as err:
        raise ValidationFailure(f"{context}: {err}") from err


def _parse_bounds(obj, context: str):
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ValidationFailure(f"{context}: bounds must be an object")
    out = {}
    for name, pair in obj.items():
        if name not in geostat.DEFAULT_BOUNDS:
            raise ValidationFailure(f"{context}: unknown bound name {name!r}")
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValidationFailure(f"{context}: bound {name!r} must be [lo, hi]")
        lo, hi = float(pair[0]), float(pair[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValidationFailure(
                f"{context}: bound {name!r} must be finite with lo < hi, got [{lo}, {hi}]"
            )
        out[name] = (lo, hi)
    return out


def parse_model_config(obj: dict, name: str = "model", kind: str | None = None,
                       context: str = "fit config") -> pipeline.PipelineModelSpec:
    allowed = {
        "version": 1,
        "seed": 0,
        "name": name,
        "kind": kind,
        "tag": "",
        "n_draws": 2000,
        "level": 0.95,
        "graph": {},
        "gat": {},
        "kernel": {},
        "attention_start": {},
        "optimizer": {},
    }
    cfg = _require_keys(obj, allowed, context)
    if cfg["kind"] is None:
        raise ValidationFailure(f"{context}: field 'kind' is required")
    if cfg["kind"] not in geostat.MODEL_KINDS:
        raise ValidationFailure(
            f"{context}: kind must be one of {', '.join(geostat.MODEL_KINDS)}"
        )
    graph = _require_keys(cfg["graph"], _GRAPH_DEFAULTS, f"{context}.graph")
    gat = _require_keys(cfg["gat"], _GAT_DEFAULTS, f"{context}.gat")
    attn = _require_keys(cfg["attention_start"], _ATTN_DEFAULTS, f"{context}.attention_start")
    opt = _require_keys(cfg["optimizer"], _OPT_DEFAULTS, f"{context}.optimizer")
    try:
        gat_config = gatv2.GatConfig(
            widths=tuple(int(w) for w in gat["widths"]),
            heads=int(gat["heads"]),
            leaky_slope=float(gat["leaky_slope"]),
            learning_rate=float(gat["learning_rate"]),
            epochs=int(gat["epochs"]),
            weight_init_scale=float(gat["weight_init_scale"]),
            seed=int(cfg["seed"]),
        )
        return pipeline.PipelineModelSpec(
            name=str(cfg["name"]),
            kind=cfg["kind"],
            tag=str(cfg["tag"]),
            k_neighbors=int(graph["k_neighbors"]),
            time_scale=float(graph["time_scale"]),
            gat=gat_config,
            kernel=_parse_kernel(cfg["kernel"], f"{context}.kernel"),
            attn_start=attnfield.AttnHyper(float(attn["theta1"]), float(attn["theta2"])),
            bounds=_parse_bounds(opt["bounds"], f"{context}.optimizer"),
            restarts=int(opt["restarts"]),
            nm_max_iter=int(opt["max_iter"]),
            n_draws=int(cfg["n_draws"]),
            level=float(cfg["level"]),
        )
    except (TypeError, ValueError) as err:
        raise ValidationFailure(f"{context}: {err}") from err


# ---------------------------------------------------------------------------
# Manifest and atomic output handling
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class OutputDir:
    """Atomic writes into one output directory, with digest tracking."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.outputs: dict[str, str] = {}

    def write(self, name: str, writer) -> Path:
        """writer(path) produces the file; committed via rename."""
        final = self.root / name
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f".{name}.")
        os.close(fd)
        tmp = Path(tmp)
        try:
            writer(tmp)
            os.replace(tmp, final)
        finally:
            tmp.unlink(missing_ok=True)
        self.outputs[name] = _sha256(final)
        return final

    def write_text(self, name: str, text: str) -> Path:
        return self.write(name, lambda p: p.write_text(text))

    def write_json(self, name: str, obj) -> Path:
        return self.write_text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_manifest(out: OutputDir, command: str, config_snapshot, seed,
                   inputs: dict[str, str], started: float, extra: dict | None = None) -> None:
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "config": config_snapshot,
        "seed": seed,
        "inputs": inputs,
        "outputs": dict(sorted(out.outputs.items())),
        "created_unix": round(started, 3),
        "duration_s": round(time.time() - started, 3),
    }
    if extra:
        manifest.update(extra)
    payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    final = out.root / "manifest.json"
    fd, tmp = tempfile.mkstemp(dir=out.root, prefix=".manifest.")
    os.close(fd)
    Path(tmp).write_text(payload)
    os.replace(tmp, final)


def _input_digests(paths: list[str | Path]) -> dict[str, str]:
    out = {}
    for p in paths:
        p = Path(p)
        if not p.is_file():
            raise ValidationFailure(f"input file not found: {p}")
        out[str(p)] = _sha256(p)
    return out


def _env_seed(seed: int) -> int:
    override = os.environ.get("GEOATTN_SEED")
    if override is not None:
        try:
            return int(override)
        except ValueError as err:
            raise ValidationFailure("GEOATTN_SEED must be an integer") from err
    return seed


def _env_workers(default: int) -> int:
    override = os.environ.get("GEOATTN_WORKERS")
    if override is None:
        return default
    try:
        value = int(override)
    except ValueError as err:
        raise ValidationFailure("GEOATTN_WORKERS must be an integer") from err
    if value < 1:
        raise ValidationFailure("GEOATTN_WORKERS must be >= 1")
    return value


# ---------------------------------------------------------------------------
# SVG scatter rendering
# ---------------------------------------------------------------------------

def scatter_svg(panels: list[tuple[str, np.ndarray, np.ndarray, float | None]]) -> str:
    """Side-by-side predicted-vs-truth panels with the identity line.

    Each panel is (title, predicted, truth, pearson_r or None).
    """
    pw, ph, margin = 300, 300, 45
    width = len(panels) * (pw + margin) + margin
    height = ph + 2 * margin + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:sans-serif;font-size:12px}</style>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for idx, (title, pred, truth, r) in enumerate(panels):
        x0 = margin + idx * (pw + margin)
        y0 = margin
        sx = lambda v: x0 + v * pw
        sy = lambda v: y0 + (1.0 - v) * ph
        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{pw}" height="{ph}" fill="none" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(1):.1f}" y2="{sy(1):.1f}" '
            'stroke="#888" stroke-dasharray="4,3"/>'
        )
        for p, t in zip(pred, truth):
            cp = min(max(float(p), 0.0), 1.0)
            ct = min(max(float(t), 0.0), 1.0)
            parts.append(
                f'<circle cx="{sx(ct):.2f}" cy="{sy(cp):.2f}" r="1.6" '
                'fill="steelblue" fill-opacity="0.45"/>'
            )
        label = title if r is None else f"{title} (r={r:.5f})"
        parts.append(f'<text x="{x0 + pw / 2:.1f}" y="{y0 - 12}" text-anchor="middle">{label}</text>')
        parts.append(f'<text x="{x0 + pw / 2:.1f}" y="{y0 + ph + 32}" text-anchor="middle">truth</text>')
        parts.append(
            f'<text x="{x0 - 30}" y="{y0 + ph / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 {x0 - 30} {y0 + ph / 2:.1f})">predicted</text>'
        )
        for v in (0.0, 0.5, 1.0):
            parts.append(
                f'<text x="{sx(v):.1f}" y="{y0 + ph + 16}" text-anchor="middle">{v:g}</text>'
            )
            parts.append(
                f'<text x="{x0 - 8}" y="{sy(v) + 4:.1f}" text-anchor="end">{v:g}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    started = time.time()
    raw = _load_json(args.config, "simulation config")
    config = parse_sim_config(raw)
    config = replace(config, seed=_env_seed(config.seed))
    inputs = _input_digests([args.config])
    out = OutputDir(args.out)
    if args.manifest_only:
        write_manifest(out, "simulate", raw, config.seed, inputs, started,
                       extra={"dry_run": True})
        return EXIT_OK
    data = simgen.simulate(config)
    out.write("dataset.csv", lambda p: simgen.write_dataset_csv(data, p))
    out.write_json("simulation.json", simgen.simulation_manifest(config, data))
    write_manifest(out, "simulate", raw, config.seed, inputs, started,
                   extra={"n_records": len(data)})
    return EXIT_OK


def _load_dataset(path: str) -> simgen.Dataset:
    try:
        return simgen.read_dataset_csv(path)
    except (OSError, ValueError) as err:
        raise ValidationFailure(f"cannot load dataset {path}: {err}") from err


def _optimizer_block(result: geostat.OptimizeResult) -> dict:
    """The optimizer record of fit.json, with one trace entry per evaluation."""
    return {
        "n_evaluations": result.n_evaluations,
        "best_restart": result.best_restart,
        "trace": result.trace,
    }


def cmd_fit(args) -> int:
    started = time.time()
    raw = _load_json(args.config, "fit config")
    _check_version(raw, "fit config")
    spec = parse_model_config(raw, name=args.kind, kind=args.kind)
    seed = _env_seed(spec.gat.seed)
    spec = replace(spec, gat=replace(spec.gat, seed=seed))
    input_paths = [args.config, args.dataset]

    if args.kind == "hybrid" and not args.gat_checkpoint:
        raise ValidationFailure("hybrid fits need --gat-checkpoint from a gat_only fit")
    if args.gat_checkpoint:
        input_paths.append(args.gat_checkpoint)
    inputs = _input_digests(input_paths)
    data = _load_dataset(args.dataset)
    out = OutputDir(args.out)
    if args.manifest_only:
        write_manifest(out, f"fit:{args.kind}", raw, seed, inputs, started,
                       extra={"dry_run": True})
        return EXIT_OK

    extra: dict = {"kind": args.kind, "n_records": len(data)}
    if args.kind == "gat_only":
        run = pipeline.run_insample(data, spec, seed=seed)
        gat = run.gat
        out.write("checkpoint.json", lambda p: gatv2.save_checkpoint(
            gat.model, p,
            extra={
                "k_neighbors": spec.k_neighbors,
                "time_scale": spec.time_scale,
                "final_loss": float(gat.loss_trace[-1]),
            },
        ))
        out.write("attention.csv", lambda p: gatv2.write_attention_csv(gat.export, p))
        out.write_text("loss_trace.csv", "epoch,loss\n" + "".join(
            f"{epoch},{float(loss)!r}\n" for epoch, loss in enumerate(gat.loss_trace)
        ))
        out.write_json("fit.json", {
            "kind": "gat_only",
            "epochs": spec.gat.epochs,
            "final_loss": float(gat.loss_trace[-1]),
            "initial_loss": float(gat.loss_trace[0]),
            "n_parameters": gat.model.n_params,
        })
        out.write("predictions.csv", lambda p: geostat.write_prediction_csv(run.prediction, p))
    elif args.kind == "mbg":
        run = pipeline.run_insample(data, spec, seed=seed)
        summary = run.fit.summary()
        summary["optimizer"] = _optimizer_block(run.optimize)
        out.write_json("fit.json", summary)
        out.write("predictions.csv", lambda p: geostat.write_prediction_csv(run.prediction, p))
        extra["converged"] = bool(run.fit.converged)
    else:  # hybrid
        try:
            model, ckpt_extra = gatv2.load_checkpoint(args.gat_checkpoint)
        except (OSError, ValueError, KeyError) as err:
            raise ValidationFailure(f"cannot load checkpoint: {err}") from err
        k_neighbors = int(ckpt_extra.get("k_neighbors", spec.k_neighbors))
        time_scale = float(ckpt_extra.get("time_scale", spec.time_scale))
        graph = gatv2.build_graph(data, k_neighbors=k_neighbors, time_scale=time_scale)
        preds, export, _ = gatv2.forward(model, graph)
        field = attnfield.build_field(export, len(data))
        offsets = gatv2.logit_offset(preds)
        template = geostat.ModelSpec(
            kind="hybrid", kernel=spec.kernel, offset=offsets,
            attention=(field, spec.attn_start),
        )
        result = geostat.optimize_hyperparameters(
            data, template, bounds=spec.bounds, restarts=spec.restarts,
            seed=seed, max_iter=spec.nm_max_iter,
        )
        prediction = geostat.predict_insample(
            result.fit, n_draws=spec.n_draws, seed=seed, level=spec.level,
        )
        summary = result.fit.summary()
        summary["optimizer"] = _optimizer_block(result)
        out.write_json("fit.json", summary)
        out.write("attention.csv", lambda p: gatv2.write_attention_csv(export, p))
        out.write("predictions.csv", lambda p: geostat.write_prediction_csv(prediction, p))
        if args.export_field:
            out.write("field_structure.csv", lambda p: np.savetxt(p, field.c, delimiter=","))
            out.write("field_degrees.csv", lambda p: np.savetxt(p, field.degrees, delimiter=","))
        extra["lambda_max"] = field.lam_max
        extra["converged"] = bool(result.fit.converged)
    write_manifest(out, f"fit:{args.kind}", raw, seed, inputs, started, extra=extra)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    started = time.time()
    if args.mode not in ("truth", "empirical"):
        raise ValidationFailure("mode must be 'truth' or 'empirical'")
    pred_specs = []
    for entry in args.pred:
        if "=" not in entry:
            raise ValidationFailure(f"--pred needs name=path, got {entry!r}")
        name, path = entry.split("=", 1)
        pred_specs.append((name, path))
    if len({name for name, _ in pred_specs}) != len(pred_specs):
        raise ValidationFailure("duplicate prediction names")
    inputs = _input_digests([args.dataset] + [p for _, p in pred_specs])
    data = _load_dataset(args.dataset)
    out = OutputDir(args.out)
    if args.manifest_only:
        write_manifest(out, "evaluate", {"mode": args.mode}, None, inputs, started,
                       extra={"dry_run": True})
        return EXIT_OK

    if args.mode == "truth":
        if not data.has_truth:
            raise ValidationFailure("dataset has no truth columns; use --mode empirical")
        truth = data.true_p
    else:
        truth = data.empirical_prevalence
    id_to_row = {int(i): k for k, i in enumerate(data.ids)}

    metrics = {}
    panels = []
    csv_rows = ["spec,fold,time,brier,rbs,mae,coverage95,pearson_r"]
    for name, path in pred_specs:
        try:
            pred = geostat.read_prediction_csv(path)
        except (OSError, ValueError) as err:
            raise ValidationFailure(f"cannot load predictions {path}: {err}") from err
        try:
            rows = np.array([id_to_row[int(i)] for i in pred.ids])
        except KeyError as err:
            raise ValidationFailure(
                f"prediction id {err.args[0]} in {path} is not in the dataset"
            ) from err
        y = truth[rows]
        report = evalkit.score_predictions(
            pred.mean, y, t=data.t[rows], lo=pred.lo, hi=pred.hi,
        )
        metrics[name] = report.to_dict()
        csv_rows.extend(evalkit.report_csv_rows(name, "-", report))
        panels.append((name, pred.mean, y, report.pearson_r))
    out.write_json("metrics.json", {"mode": args.mode, "models": metrics})
    out.write_text("metrics.csv", "\n".join(csv_rows) + "\n")
    out.write_text("scatter.svg", scatter_svg(panels))
    write_manifest(out, "evaluate", {"mode": args.mode}, None, inputs, started)
    return EXIT_OK


def cmd_cv(args) -> int:
    started = time.time()
    if args.k < 2:
        raise ValidationFailure("need k >= 2 folds")
    raw = _load_json(args.specs, "spec list")
    _check_version(raw, "spec list")
    allowed = {"version": 1, "specs": None}
    cfg = _require_keys(raw, allowed, "spec list")
    if not isinstance(cfg["specs"], list) or not cfg["specs"]:
        raise ValidationFailure("spec list: 'specs' must be a non-empty array")
    specs = []
    for i, entry in enumerate(cfg["specs"]):
        if not isinstance(entry, dict):
            raise ValidationFailure(f"spec #{i} must be an object")
        entry = dict(entry)
        entry.setdefault("version", 1)
        name = entry.get("name")
        if not name:
            raise ValidationFailure(f"spec #{i}: field 'name' is required")
        specs.append(parse_model_config(entry, name=name, context=f"spec {name!r}"))
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValidationFailure("duplicate spec names in the spec list")

    seed = _env_seed(args.seed)
    workers = _env_workers(args.workers)
    inputs = _input_digests([args.specs, args.dataset])
    data = _load_dataset(args.dataset)
    out = OutputDir(args.out)
    if args.manifest_only:
        write_manifest(out, "cv", raw, seed, inputs, started, extra={"dry_run": True})
        return EXIT_OK

    folds = evalkit.kmeans_spatial(
        np.column_stack([data.x, data.y]), args.k, seed=seed,
    )
    reports = evalkit.spatial_cv(data, specs, folds, seed=seed, workers=workers)

    for fold_id in range(args.k):
        payload = {}
        for rep in reports:
            if fold_id in rep.per_fold:
                payload[rep.name] = rep.per_fold[fold_id].to_dict()
            elif fold_id in rep.errors:
                payload[rep.name] = {"error": rep.errors[fold_id]}
        out.write_json(f"fold_{fold_id}_report.json", payload)

    rows = evalkit.rank_reports(reports)
    out.write("ranking.csv", lambda p: evalkit.write_ranking_csv(rows, p))
    pooled = {
        rep.name: {
            "complete": rep.complete,
            "pooled_records": rep.pooled_records,
            "errors": rep.errors,
            "metrics": None if rep.pooled is None else rep.pooled.to_dict(),
        }
        for rep in reports
    }
    out.write_json("cv_report.json", pooled)
    write_manifest(out, "cv", raw, seed, inputs, started,
                   extra={"k": args.k, "n_records": len(data)})
    if any(rep.complete for rep in reports):
        return EXIT_OK
    return EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoattn",
        description="Hybrid graph-attention + latent-Gaussian geostatistics pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic space-time prevalence dataset")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--manifest-only", action="store_true", help="validate and write the manifest only")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit one model on a dataset (in-sample predictions)")
    p.add_argument("--dataset", required=True, help="dataset CSV")
    p.add_argument("--kind", required=True, choices=geostat.MODEL_KINDS)
    p.add_argument("--config", required=True, help="fit config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--gat-checkpoint", help="checkpoint from a gat_only fit (hybrid)")
    p.add_argument("--export-field", action="store_true",
                   help="also write the attention-field structure matrix and degrees")
    p.add_argument("--manifest-only", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="score prediction files against a truth source")
    p.add_argument("--pred", action="append", required=True, metavar="NAME=PATH",
                   help="prediction CSV, repeatable")
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", required=True, choices=["truth", "empirical"])
    p.add_argument("--out", required=True)
    p.add_argument("--manifest-only", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", help="spatial cross-validation over a spec list")
    p.add_argument("--dataset", required=True)
    p.add_argument("--specs", required=True, help="spec list JSON")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest-only", action="store_true")
    p.set_defaults(func=cmd_cv)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except GeoattnError as err:
        print(f"numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
