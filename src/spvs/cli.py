"""Command-line surface: gen-synth, pretrain, train, score, summarize,
segment, evaluate, inspect.

Every command is deterministic given (config, seed, inputs).  Output files
are written atomically (temp + rename).  Exit codes: 0 success, 1 data
error, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import dataprep, encoders, pretrain, progressive, segmentation, tensorkit as tk
from .errors import ConfigError, DataError, FormatError, SpvsError
from .tensorkit import Rng


def _atomic_write_json(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _read_json(path, what):
    """Parsed JSON of an input file; FormatError if it is not JSON."""
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# Config file handling

_SECTIONS = {
    "encoder": encoders.EncoderConfig,
    "ssl": pretrain.SSLConfig,
    "summarizer": progressive.SummarizerConfig,
}


def load_run_config(path):
    """JSON config with sections encoder/ssl/summarizer plus seed; unknown
    keys are rejected."""
    try:
        obj = _read_json(path, "config")
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    known_top = set(_SECTIONS) | {"seed"}
    unknown = set(obj) - known_top
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {"seed": obj.get("seed")}
    for section, cls in _SECTIONS.items():
        body = obj.get(section, {})
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
        fields = {f.name for f in dataclasses.fields(cls)}
        bad = set(body) - fields
        if bad:
            raise ConfigError(f"unknown keys in config section {section!r}: {sorted(bad)}")
        out[section] = body
    return out


def _configs(args):
    file_cfg = load_run_config(args.config) if getattr(args, "config", None) else {
        "seed": None,
        "encoder": {},
        "ssl": {},
        "summarizer": {},
    }
    seed = args.seed if args.seed is not None else file_cfg["seed"]
    if seed is None:
        seed = 7
    enc_kwargs = dict(file_cfg["encoder"])
    ssl_kwargs = dict(file_cfg["ssl"])
    sum_kwargs = dict(file_cfg["summarizer"])
    for attr, section in (
        ("stages", sum_kwargs),
        ("use_text", sum_kwargs),
        ("epochs", sum_kwargs),
        ("folds", sum_kwargs),
        ("steps", ssl_kwargs),
    ):
        val = getattr(args, attr, None)
        if val is not None:
            section[attr] = val
    if getattr(args, "lr", None) is not None:
        ssl_kwargs["lr"] = args.lr
        sum_kwargs["lr"] = args.lr
    return seed, enc_kwargs, ssl_kwargs, sum_kwargs


def _enc_config(records, enc_kwargs):
    vocab = dataprep.corpus_vocab(records)
    enc_kwargs.setdefault("d_f", records[0].features.shape[1])
    enc_kwargs.setdefault("max_positions", max(512, *(r.features.shape[0] for r in records)))
    enc_kwargs.setdefault("vocab_size", max(len(vocab), 8))
    cfg = encoders.EncoderConfig(**enc_kwargs)
    vocab = dataprep.corpus_vocab(records, min_size=cfg.vocab_size)
    if len(vocab) > cfg.vocab_size:
        raise ConfigError(
            f"corpus vocabulary ({len(vocab)}) exceeds vocab_size ({cfg.vocab_size})"
        )
    return cfg, vocab


# ---------------------------------------------------------------------------
# Commands


def cmd_gen_synth(args):
    records = dataprep.gen_synthetic(
        n_videos=args.videos,
        n_frames=args.frames,
        d_f=args.dim,
        vocab_size=args.vocab,
        seed=args.seed if args.seed is not None else 7,
        code_bits=args.code_bits,
        code_scale=args.code_scale,
    )
    dataprep.save_dataset(records, args.out, blob=args.blob)
    print(f"wrote {len(records)} videos to {args.out}")
    return 0


def cmd_pretrain(args):
    records = dataprep.load_dataset(args.data)
    seed, enc_kwargs, ssl_kwargs, _ = _configs(args)
    enc_cfg, vocab = _enc_config(records, enc_kwargs)
    ssl_cfg = pretrain.SSLConfig(**ssl_kwargs)
    corpus = [
        (r.id, r.features, dataprep.assemble_tokens(r.text, vocab, mode="pretrain"))
        for r in records
    ]
    rng = Rng(seed)
    w = encoders.ModelWeights.initialize(enc_cfg, 1, rng.substream("pretrain/init"))
    os.makedirs(args.out, exist_ok=True)
    history = pretrain.pretrain(
        corpus,
        w,
        ssl_cfg,
        rng.substream("pretrain/loop"),
        out_dir=args.out,
        log_path=os.path.join(args.out, "log.jsonl"),
    )
    last = history[-1]
    print(
        f"step {last['step']}: total={last['total']:.4f} "
        f"l1={last['l1']:.4f} l2={last['l2']:.4f} l3={last['l3']:.4f} "
        f"pc_acc={last['pc_acc']:.2f}"
    )
    print(f"checkpoint: {os.path.join(args.out, 'final.ck')}")
    return 0


def cmd_train(args):
    records = dataprep.load_dataset(args.data)
    seed, enc_kwargs, _, sum_kwargs = _configs(args)
    enc_cfg, _ = _enc_config(records, enc_kwargs)
    os.makedirs(args.out, exist_ok=True)

    if args.ablate:
        rows = []
        # (pretrain, text); text fusion presumes the pretrained text encoder
        variants = [(False, False)] + ([(True, False), (True, True)] if args.pretrained else [])
        for stages in (1, 2, 3, 4):
            for use_pre, use_text in variants:
                cfg = progressive.SummarizerConfig(
                    **{**sum_kwargs, "stages": stages, "use_text": use_text}
                )
                report, _ = progressive.train(
                    records, cfg, enc_cfg, seed, args.pretrained if use_pre else None
                )
                rows.append({"stages": stages, "pretrain": int(use_pre), "text": int(use_text),
                             **{m: report[m] for m in progressive.METRICS}})
        csv_path = os.path.join(args.out, "ablation.csv")
        tmp = csv_path + ".tmp"
        with open(tmp, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        os.replace(tmp, csv_path)
        print(f"wrote {csv_path}")
        return 0

    sum_cfg = progressive.SummarizerConfig(**sum_kwargs)
    report, fold_weights = progressive.train(records, sum_cfg, enc_cfg, seed, args.pretrained)
    for fold, w in enumerate(fold_weights):
        w.save(os.path.join(args.out, f"fold{fold}.ck"))
    report["encoder"] = dataclasses.asdict(enc_cfg)
    report["summarizer"] = dataclasses.asdict(sum_cfg)
    _atomic_write_json(os.path.join(args.out, "report.json"), report)
    print(f"fold-mean tau={report['tau']:.4f} rho={report['rho']:.4f} f={report['f']:.4f}")
    print(f"report: {os.path.join(args.out, 'report.json')}")
    return 0


def _load_model_dir(model_dir):
    """(seed, encoder config, summarizer config, fold weights) of a model."""
    path = os.path.join(model_dir, "report.json")
    report = _read_json(path, "model report")
    try:
        seed = report["seed"]
        # older reports carry an encoder "dropout" key that EncoderConfig no longer has
        enc_cfg = encoders.EncoderConfig(
            **{k: v for k, v in report["encoder"].items() if k != "dropout"}
        )
        sum_cfg = progressive.SummarizerConfig(**report["summarizer"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: malformed model report ({exc!r})") from exc
    weights = [
        encoders.ModelWeights.load(
            os.path.join(model_dir, f"fold{fold}.ck"), enc_cfg, sum_cfg.stages
        )
        for fold in range(sum_cfg.folds)
    ]
    return seed, enc_cfg, sum_cfg, weights


def _predict_record(rec, weights_by_fold, seed, sum_cfg, vocab):
    """Scores of one record from the weights of the fold that held it out."""
    w = weights_by_fold[progressive.fold_of(rec.id, seed, sum_cfg.folds)]
    return progressive.predict_record(w, rec, sum_cfg, vocab)


def cmd_score(args):
    records = dataprep.load_dataset(args.data)
    seed, enc_cfg, sum_cfg, weights = _load_model_dir(args.model_dir)
    vocab = dataprep.corpus_vocab(records, min_size=enc_cfg.vocab_size)
    videos = []
    for rec in records:
        pred = _predict_record(rec, weights, seed, sum_cfg, vocab)
        videos.append({
            "id": rec.id,
            "stage_scores": [s.tolist() for s in pred["stage_scores"]],
            "final_scores": pred["final_scores"].tolist(),
            "picks": rec.picks.tolist(),
        })
    _atomic_write_json(args.out, {"videos": videos})
    print(f"wrote scores for {len(records)} videos to {args.out}")
    return 0


def _load_scores(path):
    """{video id: final scores} of a score dump; every score must be finite."""
    dump = _read_json(path, "score dump")
    try:
        scores = {v["id"]: np.asarray(v["final_scores"], dtype=np.float64)
                  for v in dump["videos"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed score dump ({exc!r})") from exc
    for vid, s in scores.items():
        if not isinstance(vid, str) or s.ndim != 1 or not np.all(np.isfinite(s)):
            raise DataError(f"{path}: video {vid!r} needs a list of finite scores")
    return scores


def _summary_entry(rec, scores, budget):
    if rec.id not in scores:
        raise DataError(f"no scores for video {rec.id}")
    s = scores[rec.id]
    seg, summary, _ = segmentation.summarize_video(rec.features, s, budget)
    return {
        "id": rec.id,
        "change_points": seg.change_points,
        "shot_scores": segmentation.shot_scores(s, seg).tolist(),
        "selected": summary.selected,
        "budget_frames": summary.budget_frames,
        "frame_mask": summary.frame_mask.astype(int).tolist(),
    }


def cmd_summarize(args):
    records = dataprep.load_dataset(args.data)
    scores = _load_scores(args.scores)
    entries = [_summary_entry(rec, scores, args.budget) for rec in records]
    _atomic_write_json(args.out, {"videos": entries})
    print(f"wrote summaries for {len(records)} videos to {args.out}")
    return 0


def cmd_segment(args):
    records = dataprep.load_dataset(args.data)
    scores = _load_scores(args.scores) if args.scores else None
    entries = []
    for rec in records:
        if scores is None:
            seg = segmentation.kts_segment(rec.features)
            entries.append({"id": rec.id, "change_points": seg.change_points})
        else:
            entry = _summary_entry(rec, scores, args.budget)
            del entry["frame_mask"]
            entries.append(entry)
    _atomic_write_json(args.out, {"videos": entries})
    print(f"wrote segmentation for {len(records)} videos to {args.out}")
    return 0


def _video_metrics(rec, s, budget):
    rep = progressive.evaluate_scores(rec, s, budget)
    return {m: rep[m] for m in progressive.METRICS}


def cmd_evaluate(args):
    """Per-video tau, rho and F.  With --model-dir, `mean` averages the fold
    means (as train's report does); with --scores it averages the videos."""
    records = dataprep.load_dataset(args.data)

    if args.model_dir:
        seed, enc_cfg, sum_cfg, weights = _load_model_dir(args.model_dir)
        vocab = dataprep.corpus_vocab(records, min_size=enc_cfg.vocab_size)
        budget = sum_cfg.budget_fraction if args.budget is None else args.budget
        per_video = {}
        by_fold = {}
        for rec in records:
            s = _predict_record(rec, weights, seed, sum_cfg, vocab)["final_scores"]
            per_video[rec.id] = _video_metrics(rec, s, budget)
            fold = progressive.fold_of(rec.id, seed, sum_cfg.folds)
            by_fold.setdefault(fold, []).append(per_video[rec.id])
        per_fold = {fold: progressive.metric_means(by_fold[fold]) for fold in sorted(by_fold)}
        out = {
            "per_video": per_video,
            "per_fold": per_fold,
            "mean": progressive.metric_means(per_fold.values(), np.mean),
        }
    else:
        if not args.scores:
            raise ConfigError("evaluate needs --scores or --model-dir")
        scores = _load_scores(args.scores)
        by_id = {r.id: r for r in records}
        budget = segmentation.DEFAULT_BUDGET_FRACTION if args.budget is None else args.budget
        per_video = {}
        for vid, s in sorted(scores.items()):
            if vid not in by_id:
                raise DataError(f"scores reference unknown video {vid}")
            per_video[vid] = _video_metrics(by_id[vid], s, budget)
        out = {"per_video": per_video, "mean": progressive.metric_means(per_video.values())}
    _atomic_write_json(args.out, out)
    print(json.dumps(out["mean"], sort_keys=True))
    return 0


def cmd_inspect(args):
    arrays = tk.load_checkpoint(args.checkpoint)
    for name in sorted(arrays):
        print(f"{name}  {tuple(arrays[name].shape)}")
    print(f"{len(arrays)} tensors, {sum(a.size for a in arrays.values())} parameters")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser():
    p = argparse.ArgumentParser(
        prog="spvs",
        description="Progressive video summarization with multimodal "
        "self-supervised pretraining.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON run config (desk default: none)")
        sp.add_argument("--seed", type=int, default=None, help="master seed (desk default: 7)")

    g = sub.add_parser("gen-synth", help="generate a synthetic planted-importance corpus")
    g.add_argument("--videos", type=int, default=50, help="number of videos (desk default: 50)")
    g.add_argument("--frames", type=int, default=128, help="frames per video (desk default: 128)")
    g.add_argument("--dim", type=int, default=64, help="feature width (desk default: 64; paper uses 1024)")
    g.add_argument("--vocab", type=int, default=120, help="vocabulary size (desk default: 120)")
    g.add_argument("--code-bits", dest="code_bits", type=int, default=6,
                   help="planted attribute code width (desk default: 6)")
    g.add_argument("--code-scale", dest="code_scale", type=float, default=2.5,
                   help="planted attribute code amplitude (desk default: 2.5; "
                        "large values favor correspondence pretraining, small "
                        "values favor summary training)")
    g.add_argument("--blob", action="store_true", help="store features in .bin sidecars")
    g.add_argument("--seed", type=int, default=None, help="master seed (desk default: 7)")
    g.add_argument("--out", required=True, help="output JSON-lines path")
    g.set_defaults(func=cmd_gen_synth)

    pt = sub.add_parser("pretrain", help="run self-supervised pretraining")
    common(pt)
    pt.add_argument("--data", required=True, help="JSON-lines corpus")
    pt.add_argument("--steps", type=int, default=None, help="optimizer steps (desk default: 2000)")
    pt.add_argument("--lr", type=float, default=None, help="learning rate (paper default: 1e-6)")
    pt.add_argument("--out", required=True, help="output directory for checkpoints and log")
    pt.set_defaults(func=cmd_pretrain)

    tr = sub.add_parser("train", help="train the summarizer with cross-validation")
    common(tr)
    tr.add_argument("--data", required=True, help="JSON-lines corpus with annotations")
    tr.add_argument("--stages", type=int, default=None, help="stage count 1-4 (desk default: 3)")
    tr.add_argument("--use-text", dest="use_text", action="store_const", const=True,
                    default=None, help="fuse text into the first stage")
    tr.add_argument("--pretrained", default=None, help="pretraining checkpoint to initialize from")
    tr.add_argument("--epochs", type=int, default=None, help="epochs (paper default: 40)")
    tr.add_argument("--folds", type=int, default=None, help="CV folds (paper default: 5)")
    tr.add_argument("--lr", type=float, default=None, help="learning rate (paper default: 1e-5)")
    tr.add_argument("--ablate", action="store_true",
                    help="run the stages x pretrain x text ablation matrix, emit CSV")
    tr.add_argument("--out", required=True, help="output directory")
    tr.set_defaults(func=cmd_train)

    sc = sub.add_parser("score", help="dump per-stage and final frame scores")
    sc.add_argument("--data", required=True)
    sc.add_argument("--model-dir", dest="model_dir", required=True, help="train output directory")
    sc.add_argument("--out", required=True)
    sc.set_defaults(func=cmd_score)

    sm = sub.add_parser("summarize", help="build budgeted summaries from a score dump")
    sm.add_argument("--data", required=True)
    sm.add_argument("--scores", required=True, help="score dump from the score command")
    sm.add_argument("--budget", type=float, default=0.15,
                    help="summary length fraction (paper default: 0.15)")
    sm.add_argument("--out", required=True)
    sm.set_defaults(func=cmd_summarize)

    sg = sub.add_parser("segment", help="run temporal segmentation (and selection if scored)")
    sg.add_argument("--data", required=True)
    sg.add_argument("--scores", default=None, help="optional score dump")
    sg.add_argument("--budget", type=float, default=0.15,
                    help="summary length fraction (paper default: 0.15)")
    sg.add_argument("--out", required=True)
    sg.set_defaults(func=cmd_segment)

    ev = sub.add_parser("evaluate", help="metric report against annotations")
    ev.add_argument("--data", required=True)
    ev.add_argument("--scores", default=None, help="score dump to evaluate")
    ev.add_argument("--model-dir", dest="model_dir", default=None,
                    help="train output directory (per-fold evaluation)")
    ev.add_argument("--budget", type=float, default=None,
                    help="summary length fraction (paper default: 0.15; with "
                         "--model-dir, the model's budget_fraction)")
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_evaluate)

    ins = sub.add_parser("inspect", help="print checkpoint tensor names and shapes")
    ins.add_argument("--checkpoint", required=True)
    ins.set_defaults(func=cmd_inspect)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except SpvsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
