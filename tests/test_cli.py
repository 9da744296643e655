import dataclasses
import json
import os

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from spvs import cli, dataprep as dp, encoders, progressive, tensorkit as tk
from spvs.cli import main
from spvs.errors import FormatError


@pytest.fixture
def corpus_path(tmp_path):
    path = str(tmp_path / "data.jsonl")
    rc = main([
        "gen-synth", "--videos", "6", "--frames", "24", "--dim", "8",
        "--seed", "3", "--out", path,
    ])
    assert rc == 0
    return path


@pytest.fixture
def model_dir(tmp_path, corpus_path):
    out = str(tmp_path / "model")
    rc = main([
        "train", "--data", corpus_path, "--stages", "1", "--epochs", "1",
        "--folds", "2", "--lr", "1e-3", "--seed", "3", "--out", out,
    ])
    assert rc == 0
    return out


class TestGenSynth:
    def test_deterministic_bitwise(self, tmp_path):
        p1 = str(tmp_path / "a.jsonl")
        p2 = str(tmp_path / "b.jsonl")
        args = ["gen-synth", "--videos", "3", "--frames", "20", "--dim", "6", "--seed", "5"]
        assert main(args + ["--out", p1]) == 0
        assert main(args + ["--out", p2]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_blob_mode_loads_back(self, tmp_path):
        path = str(tmp_path / "blob.jsonl")
        assert main([
            "gen-synth", "--videos", "2", "--frames", "16", "--dim", "4",
            "--blob", "--out", path,
        ]) == 0
        recs = dp.load_dataset(path)
        assert len(recs) == 2 and recs[0].features.shape == (16, 4)


class TestPretrainCmd:
    def test_short_run_writes_artifacts(self, tmp_path, corpus_path):
        out = str(tmp_path / "ssl")
        rc = main([
            "pretrain", "--data", corpus_path, "--steps", "3", "--lr", "1e-4",
            "--seed", "3", "--out", out,
        ])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "final.ck"))
        log = [json.loads(l) for l in open(os.path.join(out, "log.jsonl"))]
        assert log and {"step", "total", "l1", "l2", "l3", "pc_acc"} <= set(log[-1])


class TestTrainCmd:
    def test_writes_report_and_fold_checkpoints(self, model_dir):
        report = json.load(open(os.path.join(model_dir, "report.json")))
        assert report["seed"] == 3
        assert len(report["folds"]) == 2
        for fold in range(2):
            assert os.path.exists(os.path.join(model_dir, f"fold{fold}.ck"))

    def test_deterministic_reports(self, tmp_path, corpus_path):
        outs = []
        for name in ("m1", "m2"):
            out = str(tmp_path / name)
            assert main([
                "train", "--data", corpus_path, "--stages", "1", "--epochs", "1",
                "--folds", "2", "--lr", "1e-3", "--seed", "3", "--out", out,
            ]) == 0
            outs.append(out)
        r1 = open(os.path.join(outs[0], "report.json"), "rb").read()
        r2 = open(os.path.join(outs[1], "report.json"), "rb").read()
        assert r1 == r2
        c1 = open(os.path.join(outs[0], "fold0.ck"), "rb").read()
        c2 = open(os.path.join(outs[1], "fold0.ck"), "rb").read()
        assert c1 == c2

    def test_ablation_matrix_csv(self, tmp_path, corpus_path):
        out = str(tmp_path / "ablate")
        rc = main([
            "train", "--data", corpus_path, "--epochs", "1", "--folds", "2",
            "--lr", "1e-3", "--seed", "3", "--ablate", "--out", out,
        ])
        assert rc == 0
        lines = open(os.path.join(out, "ablation.csv")).read().strip().splitlines()
        assert lines[0] == "stages,pretrain,text,tau,rho,f"
        # no pretrained checkpoint given: only the 4 random-init stage rows
        assert len(lines) == 5


class TestScoreSummarizeSegment:
    def test_score_dump_layout(self, tmp_path, corpus_path, model_dir):
        out = str(tmp_path / "scores.json")
        assert main(["score", "--data", corpus_path, "--model-dir", model_dir,
                     "--out", out]) == 0
        dump = json.load(open(out))
        assert len(dump["videos"]) == 6
        v = dump["videos"][0]
        assert set(v) == {"id", "stage_scores", "final_scores", "picks"}
        assert len(v["final_scores"]) == 24
        assert all(0.0 < s < 1.0 for s in v["final_scores"])

    def test_score_deterministic(self, tmp_path, corpus_path, model_dir):
        p1 = str(tmp_path / "s1.json")
        p2 = str(tmp_path / "s2.json")
        for p in (p1, p2):
            assert main(["score", "--data", corpus_path, "--model-dir", model_dir,
                         "--out", p]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_summarize_respects_budget(self, tmp_path, corpus_path, model_dir):
        scores = str(tmp_path / "scores.json")
        main(["score", "--data", corpus_path, "--model-dir", model_dir, "--out", scores])
        out = str(tmp_path / "summary.json")
        assert main(["summarize", "--data", corpus_path, "--scores", scores,
                     "--out", out]) == 0
        for v in json.load(open(out))["videos"]:
            assert sum(v["frame_mask"]) <= v["budget_frames"]
            assert v["budget_frames"] == int(0.15 * 24)

    def test_segment_with_scores_is_summary_without_mask(self, tmp_path, corpus_path,
                                                         model_dir):
        scores = str(tmp_path / "scores.json")
        main(["score", "--data", corpus_path, "--model-dir", model_dir, "--out", scores])
        summary, segments = str(tmp_path / "summary.json"), str(tmp_path / "seg.json")
        for cmd, out in (("summarize", summary), ("segment", segments)):
            assert main([cmd, "--data", corpus_path, "--scores", scores,
                         "--budget", "0.5", "--out", out]) == 0
        expect = json.load(open(summary))["videos"]
        for v in expect:
            del v["frame_mask"]
        assert json.load(open(segments))["videos"] == expect

    @pytest.mark.parametrize("budget", ["5", "-1", "0", "nan"])
    def test_budget_outside_unit_interval_exit_2(self, tmp_path, corpus_path, model_dir,
                                                 budget):
        scores = str(tmp_path / "scores.json")
        main(["score", "--data", corpus_path, "--model-dir", model_dir, "--out", scores])
        out = str(tmp_path / "o.json")
        for cmd in (["summarize", "--scores", scores], ["segment", "--scores", scores],
                    ["evaluate", "--scores", scores], ["evaluate", "--model-dir", model_dir]):
            assert main(cmd + ["--data", corpus_path, "--budget", budget, "--out", out]) == 2
            assert not os.path.exists(out)

    def test_segment_without_scores(self, tmp_path, corpus_path):
        out = str(tmp_path / "seg.json")
        assert main(["segment", "--data", corpus_path, "--out", out]) == 0
        for v in json.load(open(out))["videos"]:
            assert "change_points" in v and "selected" not in v


class TestEvaluateCmd:
    def test_model_dir_reproduces_train_tau(self, tmp_path, corpus_path, model_dir):
        out = str(tmp_path / "eval.json")
        assert main(["evaluate", "--data", corpus_path, "--model-dir", model_dir,
                     "--out", out]) == 0
        ev = json.load(open(out))
        report = json.load(open(os.path.join(model_dir, "report.json")))
        assert ev["mean"]["tau"] == pytest.approx(report["tau"], abs=1e-12)

    def test_scores_path(self, tmp_path, corpus_path, model_dir):
        scores = str(tmp_path / "scores.json")
        main(["score", "--data", corpus_path, "--model-dir", model_dir, "--out", scores])
        out = str(tmp_path / "eval.json")
        assert main(["evaluate", "--data", corpus_path, "--scores", scores,
                     "--out", out]) == 0
        ev = json.load(open(out))
        assert set(ev["mean"]) == {"tau", "rho", "f"}
        assert len(ev["per_video"]) == 6

    def test_scores_and_model_dir_agree_per_video(self, tmp_path, corpus_path, model_dir):
        scores = str(tmp_path / "scores.json")
        main(["score", "--data", corpus_path, "--model-dir", model_dir, "--out", scores])
        for budget in ([], ["--budget", "1.0"]):
            by_scores, by_model = str(tmp_path / "s.json"), str(tmp_path / "m.json")
            assert main(["evaluate", "--data", corpus_path, "--scores", scores,
                         "--out", by_scores] + budget) == 0
            assert main(["evaluate", "--data", corpus_path, "--model-dir", model_dir,
                         "--out", by_model] + budget) == 0
            per_video = [json.load(open(p))["per_video"] for p in (by_scores, by_model)]
            assert per_video[0] == per_video[1]

    def test_model_dir_honours_budget(self, tmp_path, corpus_path, model_dir):
        f = {}
        for budget in ("0.15", "1.0"):
            out = str(tmp_path / f"eval{budget}.json")
            assert main(["evaluate", "--data", corpus_path, "--model-dir", model_dir,
                         "--budget", budget, "--out", out]) == 0
            f[budget] = [v["f"] for v in json.load(open(out))["per_video"].values()]
        # a full budget selects every frame for prediction and annotators alike
        assert f["1.0"] == [1.0] * 6 and f["0.15"] != f["1.0"]

    def test_model_dir_defaults_to_report_budget(self, tmp_path, corpus_path, model_dir):
        report_path = os.path.join(model_dir, "report.json")
        report = json.load(open(report_path))
        report["summarizer"]["budget_fraction"] = 1.0
        json.dump(report, open(report_path, "w"))
        out = str(tmp_path / "eval.json")
        assert main(["evaluate", "--data", corpus_path, "--model-dir", model_dir,
                     "--out", out]) == 0
        assert [v["f"] for v in json.load(open(out))["per_video"].values()] == [1.0] * 6

    def test_needs_scores_or_model(self, tmp_path, corpus_path):
        rc = main(["evaluate", "--data", corpus_path,
                   "--out", str(tmp_path / "e.json")])
        assert rc == 2


class TestInspect:
    def test_lists_tensors(self, model_dir, capsys):
        rc = main(["inspect", "--checkpoint", os.path.join(model_dir, "fold0.ck")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "head.stage1.w" in out and "tensors" in out


class TestErrorsAndConfig:
    def test_missing_data_file_exit_1(self, tmp_path):
        rc = main(["segment", "--data", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 1

    def test_corrupt_data_exit_1(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 1}\n')
        rc = main(["segment", "--data", str(bad), "--out", str(tmp_path / "o.json")])
        assert rc == 1

    def test_unknown_config_key_exit_2(self, tmp_path, corpus_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"summarizer": {"stages": 1}, "turbo": True}))
        rc = main(["train", "--data", corpus_path, "--config", str(cfg),
                   "--out", str(tmp_path / "m")])
        assert rc == 2

    def test_unknown_section_key_exit_2(self, tmp_path, corpus_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"summarizer": {"stagez": 1}}))
        rc = main(["train", "--data", corpus_path, "--config", str(cfg),
                   "--out", str(tmp_path / "m")])
        assert rc == 2

    def test_invalid_json_config_exit_2(self, tmp_path, corpus_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        rc = main(["train", "--data", corpus_path, "--config", str(cfg),
                   "--out", str(tmp_path / "m")])
        assert rc == 2

    def test_config_file_drives_training(self, tmp_path, corpus_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3,
            "summarizer": {"stages": 1, "epochs": 1, "folds": 2, "lr": 1e-3},
        }))
        out = str(tmp_path / "m")
        assert main(["train", "--data", corpus_path, "--config", str(cfg),
                     "--out", out]) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["stages"] == 1 and report["seed"] == 3

    @pytest.mark.parametrize("section,key,value", [
        ("encoder", "dropout", 0.1),
        ("ssl", "recrop_each_draw", True),
    ])
    def test_removed_config_keys_exit_2(self, tmp_path, corpus_path, section, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        rc = main(["pretrain", "--data", corpus_path, "--config", str(cfg), "--steps", "1",
                   "--out", str(tmp_path / "ssl")])
        assert rc == 2

    def test_old_report_with_dropout_loads(self, tmp_path, corpus_path, model_dir):
        runs = {}
        for name in ("new", "old"):
            if name == "old":
                report_path = os.path.join(model_dir, "report.json")
                report = json.load(open(report_path))
                assert "dropout" not in report["encoder"]
                report["encoder"]["dropout"] = 0.1
                json.dump(report, open(report_path, "w"))
            scores, ev = str(tmp_path / f"{name}_s.json"), str(tmp_path / f"{name}_e.json")
            assert main(["score", "--data", corpus_path, "--model-dir", model_dir,
                         "--out", scores]) == 0
            assert main(["evaluate", "--data", corpus_path, "--model-dir", model_dir,
                         "--out", ev]) == 0
            runs[name] = open(scores, "rb").read(), open(ev, "rb").read()
        assert runs["old"] == runs["new"]

    def test_config_seed_zero_is_kept(self, tmp_path, corpus_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 0,
            "summarizer": {"stages": 1, "epochs": 1, "folds": 2, "lr": 1e-3},
        }))
        out = str(tmp_path / "m")
        assert main(["train", "--data", corpus_path, "--config", str(cfg), "--out", out]) == 0
        assert json.load(open(os.path.join(out, "report.json")))["seed"] == 0

    def test_pretrain_zero_steps_exit_2(self, tmp_path, corpus_path):
        rc = main(["pretrain", "--data", corpus_path, "--steps", "0",
                   "--out", str(tmp_path / "ssl")])
        assert rc == 2

    @pytest.mark.parametrize("size", [0, 4, 8, 11])
    def test_short_checkpoint_exit_1(self, tmp_path, model_dir, size):
        blob = open(os.path.join(model_dir, "fold0.ck"), "rb").read()[:size]
        path = tmp_path / "short.ck"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            tk.load_checkpoint(str(path))
        assert main(["inspect", "--checkpoint", str(path)]) == 1

    def test_help_marks_default_provenance(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        out = capsys.readouterr().out
        assert "paper default" in out
        with pytest.raises(SystemExit):
            main(["gen-synth", "--help"])
        out = capsys.readouterr().out
        assert "desk default" in out


# ---------------------------------------------------------------------------
# Bad input files: each maps to exit 1 (data) or 2 (config), never a traceback


def _write_score_dump(corpus_path, path, fill=None):
    """A score dump holding each video's planted scores (or `fill`)."""
    videos = [
        {"id": r.id, "final_scores": [fill] * len(r.planted_scores) if fill is not None
         else r.planted_scores.tolist()}
        for r in dp.load_dataset(corpus_path)
    ]
    with open(path, "w") as fh:
        json.dump({"videos": videos}, fh)
    return path


def _edit_record(corpus_path, edit):
    lines = open(corpus_path).readlines()
    obj = json.loads(lines[1])
    edit(obj)
    lines[1] = json.dumps(obj) + "\n"
    open(corpus_path, "w").writelines(lines)


def _case_missing_scores(tmp, data):
    return ["summarize", "--data", data, "--scores", str(tmp / "nope.json")]


def _case_unparseable_scores(tmp, data):
    (tmp / "s.json").write_text('{"videos": [')
    return ["summarize", "--data", data, "--scores", str(tmp / "s.json")]


def _case_scores_without_videos(tmp, data):
    (tmp / "s.json").write_text('{"vids": []}')
    return ["evaluate", "--data", data, "--scores", str(tmp / "s.json")]


def _case_missing_report(tmp, data):
    (tmp / "model").mkdir()
    return ["score", "--data", data, "--model-dir", str(tmp / "model")]


def _case_unparseable_report(tmp, data):
    (tmp / "model").mkdir()
    (tmp / "model" / "report.json").write_text("{broken")
    return ["evaluate", "--data", data, "--model-dir", str(tmp / "model")]


def _case_report_without_encoder(tmp, data):
    (tmp / "model").mkdir()
    (tmp / "model" / "report.json").write_text('{"seed": 3, "summarizer": {}}')
    return ["score", "--data", data, "--model-dir", str(tmp / "model")]


def _case_missing_fold_checkpoint(tmp, data):
    (tmp / "model").mkdir()
    report = {
        "seed": 3,
        "encoder": dataclasses.asdict(encoders.EncoderConfig(d_f=8, vocab_size=160)),
        "summarizer": dataclasses.asdict(progressive.SummarizerConfig(stages=1, folds=2)),
    }
    (tmp / "model" / "report.json").write_text(json.dumps(report))
    return ["score", "--data", data, "--model-dir", str(tmp / "model")]


def _case_missing_checkpoint(tmp, data):
    return ["inspect", "--checkpoint", str(tmp / "nope.ck")]


def _case_missing_blob(tmp, data):
    blob = str(tmp / "blob.jsonl")
    assert main(["gen-synth", "--videos", "2", "--frames", "12", "--dim", "4",
                 "--blob", "--out", blob]) == 0
    os.remove(tmp / "blob_vid0001.bin")
    return ["segment", "--data", blob]


def _case_missing_config(tmp, data):
    return ["train", "--data", data, "--config", str(tmp / "nope.json")]


def _case_config_not_object(tmp, data):
    (tmp / "cfg.json").write_text("[]")
    return ["train", "--data", data, "--config", str(tmp / "cfg.json")]


def _case_config_section_not_object(tmp, data):
    (tmp / "cfg.json").write_text('{"encoder": 5}')
    return ["pretrain", "--data", data, "--config", str(tmp / "cfg.json")]


def _case_empty_dataset(tmp, data):
    open(data, "w").close()
    return ["pretrain", "--data", data]


def _case_nan_scores(tmp, data):
    return ["summarize", "--data", data,
            "--scores", _write_score_dump(data, str(tmp / "s.json"), float("nan"))]


def _case_inf_scores(tmp, data):
    return ["evaluate", "--data", data,
            "--scores", _write_score_dump(data, str(tmp / "s.json"), float("inf"))]


def _case_duplicate_id(tmp, data):
    with open(data) as fh:
        first = fh.readline()
    with open(data, "a") as fh:
        fh.write(first)
    return ["segment", "--data", data]


def _case_nan_feature(tmp, data):
    _edit_record(data, lambda obj: obj["features"][3].__setitem__(0, float("nan")))
    return ["segment", "--data", data]


def _case_inf_annotation(tmp, data):
    _edit_record(data, lambda obj: obj["annotations"][1].__setitem__(5, float("-inf")))
    return ["segment", "--data", data]


def _case_nan_planted(tmp, data):
    _edit_record(data, lambda obj: obj["planted_scores"].__setitem__(0, float("nan")))
    return ["segment", "--data", data]


@pytest.mark.parametrize("case,code", [
    (_case_missing_scores, 1),
    (_case_unparseable_scores, 1),
    (_case_scores_without_videos, 1),
    (_case_missing_report, 1),
    (_case_unparseable_report, 1),
    (_case_report_without_encoder, 1),
    (_case_missing_fold_checkpoint, 1),
    (_case_missing_checkpoint, 1),
    (_case_missing_blob, 1),
    (_case_missing_config, 2),
    (_case_config_not_object, 2),
    (_case_config_section_not_object, 2),
    (_case_empty_dataset, 1),
    (_case_nan_scores, 1),
    (_case_inf_scores, 1),
    (_case_duplicate_id, 1),
    (_case_nan_feature, 1),
    (_case_inf_annotation, 1),
    (_case_nan_planted, 1),
], ids=lambda v: v.__name__[len("_case_"):] if callable(v) else str(v))
def test_bad_input_file_exit_code(tmp_path, corpus_path, capsys, case, code):
    out = str(tmp_path / "out.json")
    argv = case(tmp_path, corpus_path)
    if argv[0] != "inspect":
        argv += ["--out", out]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(("data error:", "config error:", "error:"))
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_nonfinite_scores_error_names_video(tmp_path, corpus_path, capsys):
    scores = _write_score_dump(corpus_path, str(tmp_path / "s.json"), float("nan"))
    assert main(["summarize", "--data", corpus_path, "--scores", scores,
                 "--out", str(tmp_path / "o.json")]) == 1
    assert "vid0000" in capsys.readouterr().err


if HAVE_HYPOTHESIS:

    @pytest.fixture(scope="module")
    def fuzz_dirs(tmp_path_factory):
        """Small valid inputs of every kind in orig/, copied to work/."""
        orig, work = tmp_path_factory.mktemp("orig"), tmp_path_factory.mktemp("work")
        args = ["gen-synth", "--videos", "2", "--frames", "12", "--dim", "4", "--seed", "3"]
        assert main(args + ["--out", str(orig / "data.jsonl")]) == 0
        assert main(args + ["--blob", "--out", str(orig / "blob.jsonl")]) == 0
        _write_score_dump(str(orig / "data.jsonl"), str(orig / "scores.json"))
        w = encoders.ModelWeights.initialize(
            encoders.EncoderConfig(d_f=4, d_w=4, video_layers=0, text_layers=0,
                                   heads=1, vocab_size=8), 1, tk.Rng(3))
        w.save(str(orig / "w.ck"))
        for p in orig.iterdir():
            (work / p.name).write_bytes(p.read_bytes())
        return orig, work

    # fuzzed file -> the commands that read it
    _FUZZ_COMMANDS = {
        "w.ck": [["inspect", "--checkpoint", "w.ck"]],
        "data.jsonl": [["segment", "--data", "data.jsonl"],
                       ["summarize", "--data", "data.jsonl", "--scores", "scores.json"]],
        "blob.jsonl": [["segment", "--data", "blob.jsonl"]],
        "blob_vid0001.bin": [["segment", "--data", "blob.jsonl"]],
        "scores.json": [["summarize", "--data", "data.jsonl", "--scores", "scores.json"],
                        ["segment", "--data", "data.jsonl", "--scores", "scores.json"]],
    }

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(sorted(_FUZZ_COMMANDS)),
        cut=st.one_of(st.none(), st.integers(min_value=0)),
        flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 7)), max_size=3),
    )
    def test_fuzzed_inputs_never_raise(fuzz_dirs, name, cut, flips):
        orig, work = fuzz_dirs
        blob = bytearray((orig / name).read_bytes())
        if cut is not None:
            del blob[cut % (len(blob) + 1):]
        for pos, bit in flips:
            if blob:
                blob[pos % len(blob)] ^= 1 << bit
        (work / name).write_bytes(bytes(blob))
        try:
            for cmd in _FUZZ_COMMANDS[name]:
                argv = [str(work / a) if (orig / a).is_file() else a for a in cmd]
                if cmd[0] != "inspect":
                    argv += ["--out", str(work / "out.json")]
                assert main(argv) in (0, 1, 2)
        finally:
            (work / name).write_bytes((orig / name).read_bytes())
