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
``GEOATTN_SEED`` overrides the config seed; a seed below 0 or at least
2**63 exits 2. Cross-validation runs its folds one at a time: ``cv
--workers`` accepts only 1.

Each JSON section is the dataclass of the same name, read by
``jsonconfig.typed_dataclass``: a fit config or cv spec is
``pipeline.PipelineModelSpec``, whose sections are ``graph``, ``gat``,
``kernel``, ``attention_start`` and ``optimizer``, and a simulation config
is ``simgen.SimConfig``. Two fields are set by the caller and are never
JSON keys: ``gat.seed`` is the top-level ``seed`` (unused in a cv spec,
since ``cv --seed`` seeds every fold), and a fit's ``kind`` is ``fit
--kind``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import evalkit, gatv2, geostat, pipeline, simgen
from .errors import GeoattnError, TooFewPoints
from .jsonconfig import ValidationFailure, check_keys, typed, typed_dataclass

ARTIFACT_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

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
    context = "simulation config"
    _check_version(obj, context)
    if "seed" not in obj:
        raise ValidationFailure(f"{context}: field 'seed' is required")
    body = {k: v for k, v in obj.items() if k != "version"}
    return typed_dataclass(body, simgen.SimConfig, context)


def parse_model_config(obj: dict, context: str = "fit config",
                       **fixed) -> pipeline.PipelineModelSpec:
    """The spec of a fit config or cv spec; the ``fixed`` fields are not JSON keys."""
    seed = typed(obj.get("seed", 0), int, f"{context}.seed")
    body = {k: v for k, v in obj.items() if k not in ("version", "seed")}
    return typed_dataclass(body, pipeline.PipelineModelSpec, context, **fixed, **{"gat.seed": seed})


# ---------------------------------------------------------------------------
# Manifest and atomic output handling
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write(final: Path, writer) -> None:
    """writer(path) produces a temp file beside ``final``, renamed onto it when done."""
    fd, tmp = tempfile.mkstemp(dir=final.parent, prefix=f".{final.name}.")
    os.close(fd)
    tmp = Path(tmp)
    try:
        writer(tmp)
        os.replace(tmp, final)
    finally:
        tmp.unlink(missing_ok=True)


class OutputDir:
    """Atomic writes into one output directory, with digest tracking."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.outputs: dict[str, str] = {}

    def write(self, name: str, writer) -> Path:
        """writer(path) produces the file; committed via rename."""
        final = self.root / name
        _atomic_write(final, writer)
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
    _atomic_write(out.root / "manifest.json", lambda p: p.write_text(payload))


def _input_digests(paths: list[str | Path]) -> dict[str, str]:
    out = {}
    for p in paths:
        p = Path(p)
        if not p.is_file():
            raise ValidationFailure(f"input file not found: {p}")
        out[str(p)] = _sha256(p)
    return out


def _env_seed(seed: int) -> int:
    """The run's seed: ``GEOATTN_SEED`` when set, else ``seed``.

    It lies in [0, 2**63), so every fold seed ``seed + fold_id`` fits the
    uint64 key of ``numkit.RngStream``.
    """
    override = os.environ.get("GEOATTN_SEED")
    if override is not None:
        try:
            seed = int(override)
        except ValueError as err:
            raise ValidationFailure("GEOATTN_SEED must be an integer") from err
    if not 0 <= seed < 2**63:
        raise ValidationFailure(f"seed must be >= 0 and < 2**63, got {seed}")
    return seed


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
    # the name only labels cv reports; a fit config may still give one
    spec = parse_model_config({"name": args.kind, **raw}, kind=args.kind)
    seed = _env_seed(spec.gat.seed)
    spec = replace(spec, gat=replace(spec.gat, seed=seed))
    input_paths = [args.config, args.dataset]

    if args.kind == "hybrid":
        if not args.gat_checkpoint:
            raise ValidationFailure("hybrid fits need --gat-checkpoint from a gat_only fit")
        input_paths.append(args.gat_checkpoint)
    else:
        for flag, given in (("--gat-checkpoint", args.gat_checkpoint),
                            ("--export-field", args.export_field)):
            if given:
                raise ValidationFailure(f"{flag} applies to hybrid fits only, not {args.kind}")
    inputs = _input_digests(input_paths)
    data = _load_dataset(args.dataset)
    out = OutputDir(args.out)
    if args.manifest_only:
        write_manifest(out, f"fit:{args.kind}", raw, seed, inputs, started,
                       extra={"dry_run": True})
        return EXIT_OK

    model = None
    if args.kind == "hybrid":
        try:
            model, ckpt_extra = gatv2.load_checkpoint(args.gat_checkpoint)
        except (OSError, ValueError, KeyError, TypeError, ValidationFailure) as err:
            raise ValidationFailure(f"cannot load checkpoint: {err}") from err
        n_inputs = model.layers[0].v.shape[2]
        n_features = gatv2.graph_features(data).shape[1]
        if n_inputs != n_features:
            raise ValidationFailure(
                f"checkpoint expects {n_inputs} node features, the dataset gives {n_features}"
            )
        # the network runs on the graph it was trained on
        graph = asdict(spec.graph)
        graph.update((k, v) for k, v in typed(ckpt_extra, dict, "checkpoint extra").items()
                     if k in graph)
        spec = replace(spec, graph=typed_dataclass(graph, gatv2.GraphConfig, "checkpoint extra"))
    run = pipeline.run_insample(data, spec, seed=seed, model=model)

    extra: dict = {"kind": args.kind, "n_records": len(data)}
    gat = run.gat
    if args.kind == "gat_only":
        out.write("checkpoint.json", lambda p: gatv2.save_checkpoint(
            gat.model, p,
            extra={**asdict(spec.graph), "final_loss": float(gat.loss_trace[-1])},
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
    else:
        summary = run.optimize.fit.summary()
        summary["optimizer"] = _optimizer_block(run.optimize)
        out.write_json("fit.json", summary)
        extra["converged"] = bool(run.optimize.fit.converged)
    if args.kind == "hybrid":
        field = run.field
        out.write("attention.csv", lambda p: gatv2.write_attention_csv(gat.export, p))
        if args.export_field:
            out.write("field_structure.csv", lambda p: np.savetxt(p, field.c, delimiter=","))
            out.write("field_degrees.csv", lambda p: np.savetxt(p, field.degrees, delimiter=","))
        extra["lambda_max"] = field.lam_max
    out.write("predictions.csv", lambda p: geostat.write_prediction_csv(run.prediction, p))
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
    csv_rows = [evalkit.METRICS_CSV_HEADER]
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
    out.write_text("metrics.csv", evalkit.csv_text(csv_rows))
    out.write_text("scatter.svg", scatter_svg(panels))
    write_manifest(out, "evaluate", {"mode": args.mode}, None, inputs, started)
    return EXIT_OK


def cmd_cv(args) -> int:
    started = time.time()
    if args.k < 2:
        raise ValidationFailure("need k >= 2 folds")
    raw = _load_json(args.specs, "spec list")
    _check_version(raw, "spec list")
    check_keys(raw, ("version", "specs"), "spec list")
    if not isinstance(raw.get("specs"), list) or not raw["specs"]:
        raise ValidationFailure("spec list: 'specs' must be a non-empty array")
    specs = []
    for i, entry in enumerate(raw["specs"]):
        if not isinstance(entry, dict):
            raise ValidationFailure(f"spec #{i} must be an object")
        name = entry.get("name")
        if not name:
            raise ValidationFailure(f"spec #{i}: field 'name' is required")
        specs.append(parse_model_config(entry, context=f"spec {name!r}"))
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValidationFailure("duplicate spec names in the spec list")

    seed = _env_seed(args.seed)
    inputs = _input_digests([args.specs, args.dataset])
    data = _load_dataset(args.dataset)
    out = OutputDir(args.out)
    if args.manifest_only:
        write_manifest(out, "cv", raw, seed, inputs, started, extra={"dry_run": True})
        return EXIT_OK

    try:
        folds = evalkit.kmeans_spatial(np.column_stack([data.x, data.y]), args.k, seed=seed)
    except TooFewPoints as err:
        raise ValidationFailure(f"--k {args.k}: {err}") from err
    reports = evalkit.spatial_cv(data, specs, folds, seed=seed)

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
    p.add_argument("--kind", required=True, choices=pipeline.MODEL_KINDS)
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
    p.add_argument("--workers", type=int, default=1, choices=[1],
                   help="folds run one at a time; only 1 is accepted")
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
