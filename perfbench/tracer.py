"""Outside-in tracer for the spvs modules.

`Tracer.install()` rebinds the public functions of every spvs module (and a
few methods of its classes) to timing wrappers; `uninstall()` puts the
originals back.  The program itself is not changed: every call between
modules goes through a module attribute, so rebinding the attribute is
enough to see it.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly encloses, so the self times of all spans
add up to the traced wall time without double counting.  Tensorkit ops also
get their backward closures wrapped, which splits op time into forward and
backward.

Aggregates are plain sums and sample lists keyed by name; `export()` returns
them as JSON-ready dicts and `layer_metrics` turns them into metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import defaultdict

# The layers: the spvs modules, by name.
LAYERS = ("tensorkit", "encoders", "pretrain", "progressive", "segmentation",
          "metrics", "dataprep", "cli")

# Tensorkit ops, by the name they have in the module.
OP_KINDS = (
    "add", "sub", "mul", "neg", "scale", "scale_rows", "exp", "log", "sqrt",
    "sigmoid", "relu", "gelu", "clip", "matmul", "transpose", "reshape",
    "narrow", "concat", "gather_rows", "tsum", "tmean", "row_norms",
    "l2_normalize_rows", "softmax_rows", "layer_norm_rows",
)

# (module, owner attribute or None, attribute, span name); span names are
# "<layer>.<function>", and the layer is the spvs module the function is in.
# Listed are the functions other modules call, whose time would otherwise
# land in the caller's layer, and the ones a per-layer metric names.
# Helpers called only from their own module need no span: their time is
# already their layer's.
_FUNCTIONS = (
    ("tensorkit", None, "backward", "tensorkit.backward"),
    ("tensorkit", "Adam", "step", "tensorkit.adam"),
    ("tensorkit", None, "save_checkpoint", "tensorkit.checkpoint"),
    ("tensorkit", None, "load_checkpoint", "tensorkit.checkpoint"),
    ("tensorkit", "Rng", "normals", "tensorkit.rng"),
    ("tensorkit", "Rng", "uniforms", "tensorkit.rng"),
    ("tensorkit", "Rng", "shuffle", "tensorkit.rng"),
    ("encoders", None, "positional_encoding", "encoders.positional_encoding"),
    ("encoders", None, "encoder_stack", "encoders.encoder_stack"),
    ("encoders", None, "encode_video", "encoders.encode_video"),
    ("encoders", None, "encode_text", "encoders.encode_text"),
    ("encoders", None, "mlp_cls", "encoders.mlp_cls"),
    ("encoders", None, "mlp_t", "encoders.mlp_t"),
    ("encoders", None, "mlp_s", "encoders.mlp_s"),
    ("encoders", "ModelWeights", "initialize", "encoders.initialize"),
    ("encoders", "ModelWeights", "load", "encoders.load"),
    ("encoders", "ModelWeights", "load_pretrained", "encoders.load_pretrained"),
    ("encoders", "ModelWeights", "save", "encoders.save"),
    ("pretrain", None, "pretrain", "pretrain.pretrain"),
    ("pretrain", None, "ssl_step", "pretrain.ssl_step"),
    ("pretrain", None, "sample_pair", "pretrain.sample_pair"),
    ("pretrain", None, "hausdorff_distance", "pretrain.hausdorff_distance"),
    ("pretrain", None, "recover_frame", "pretrain.recover_frame"),
    ("progressive", None, "train", "progressive.train"),
    ("progressive", None, "train_on", "progressive.train_on"),
    ("progressive", None, "evaluate_video", "progressive.evaluate_video"),
    ("progressive", None, "predict", "progressive.predict"),
    ("progressive", None, "forward_stages", "progressive.forward_stages"),
    ("segmentation", None, "kts_segment", "segmentation.kts_segment"),
    ("segmentation", None, "shot_scores", "segmentation.shot_scores"),
    ("segmentation", None, "knapsack_select", "segmentation.knapsack_select"),
    ("segmentation", None, "summarize", "segmentation.summarize"),
    ("metrics", None, "evaluate", "metrics.evaluate"),
    ("metrics", None, "kendall_tau", "metrics.kendall_tau"),
    ("metrics", None, "spearman_rho", "metrics.spearman_rho"),
    ("metrics", None, "f_score", "metrics.f_score"),
    ("dataprep", None, "gen_synthetic", "dataprep.gen_synthetic"),
    ("dataprep", None, "save_dataset", "dataprep.save_dataset"),
    ("dataprep", None, "load_dataset", "dataprep.load_dataset"),
    ("dataprep", None, "corpus_vocab", "dataprep.corpus_vocab"),
    ("dataprep", None, "assemble_tokens", "dataprep.assemble_tokens"),
    ("cli", None, "cmd_pretrain", "cli.pretrain"),
    ("cli", None, "cmd_train", "cli.train"),
    ("cli", None, "cmd_score", "cli.score"),
    ("cli", None, "cmd_summarize", "cli.summarize"),
    ("cli", None, "cmd_segment", "cli.segment"),
    ("cli", None, "cmd_evaluate", "cli.evaluate"),
)

# Per-layer metric name -> aggregate key, where the names differ.
_ALIASES = {
    "tensorkit.backward_s": "tensorkit.backward.self_s",
    "tensorkit.adam_s": "tensorkit.adam.s",
    "tensorkit.checkpoint_s": "tensorkit.checkpoint.s",
    "tensorkit.rng_s": "tensorkit.rng.s",
    "encoders.initialize_s": "encoders.initialize.s",
}


def _dataset_bytes(path):
    """Size of a JSON-lines dataset plus the feature sidecars it names."""
    total = os.path.getsize(path)
    base = os.path.dirname(os.path.abspath(path))
    with open(path) as fh:
        for line in fh:
            if '"features_blob"' in line:
                total += os.path.getsize(os.path.join(base, json.loads(line)["features_blob"]["path"]))
    return total


class Tracer:
    """Span and count aggregation over wrapped spvs functions.

    The tracer keeps one span stack, so it expects the program to run on
    one thread (SPVS_THREADS unset or 1).
    """

    def __init__(self):
        self._modules = {name: importlib.import_module(f"spvs.{name}") for name in LAYERS}
        self._saved = []
        self._stack = [[0.0]]  # root frame: child time of untraced code
        self._ops = {kind: [0, 0.0, 0.0] for kind in OP_KINDS}  # calls, fwd, bwd
        self.sums = defaultdict(float)
        self.samples = defaultdict(list)
        self._train_depth = 0
        self._batch_start = 0.0
        self._summary_frames = None  # T of the summarize call in progress

    # -- span bookkeeping ------------------------------------------------

    def _span(self, fn, name, layer, note):
        perf = time.perf_counter
        sums = self.sums
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                stack[-1][0] += dur
                own = dur - frame[0]
                sums[name + ".calls"] += 1
                sums[name + ".s"] += dur
                sums[name + ".self_s"] += own
                sums[layer + ".self_s"] += own
            if note is not None:
                note(args, kwargs, result, dur)
            return result

        return wrapper

    def _op(self, fn, kind):
        # The hot path: ops run thousands of times per step, so the wrapper
        # only counts; totals are formed in export().  Ops call no other
        # traced function, so an op's duration is all self time.
        perf = time.perf_counter
        stack = self._stack
        acc = self._ops[kind]

        def timed_backward(closure):
            def run(g):
                t0 = perf()
                closure(g)
                dur = perf() - t0
                stack[-1][0] += dur
                acc[2] += dur

            return run

        def op(*args, **kwargs):
            t0 = perf()
            out = fn(*args, **kwargs)
            dur = perf() - t0
            stack[-1][0] += dur
            acc[0] += 1
            acc[1] += dur
            if out._backward is not None:
                out._backward = timed_backward(out._backward)
            return out

        return op

    # -- per-function notes (counts and per-length samples) --------------

    def _note_backward(self, args, kwargs, result, dur):
        self.sums["tensorkit.backward.nodes"] += len(result)

    def _note_adam(self, args, kwargs, result, dur):
        # One optimizer step closes one summarizer batch: forward, backward
        # and Adam since the previous step (or since train_on began).
        if self._train_depth:
            now = time.perf_counter()
            self.samples["progressive.train_step"].append(now - self._batch_start)
            self._batch_start = now

    def _train_on_wrapper(self, inner):
        def wrapper(*args, **kwargs):
            self._train_depth += 1
            self._batch_start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self._train_depth -= 1

        return wrapper

    def _summarize_wrapper(self, inner):
        def wrapper(*args, **kwargs):
            seg = args[1] if len(args) > 1 else kwargs["seg"]
            self._summary_frames = seg.n_frames
            try:
                return inner(*args, **kwargs)
            finally:
                self._summary_frames = None

        return wrapper

    def _note_sample(self, key):
        def note(args, kwargs, result, dur):
            self.samples[key].append(dur)

        return note

    def _note_encode_video(self, args, kwargs, result, dur):
        self.sums["encoders.encode_video.rows"] += args[1].data.shape[0]

    def _note_predict(self, args, kwargs, result, dur):
        self.samples[f"progressive.predict.T{len(args[1])}"].append(dur)

    def _note_kts(self, args, kwargs, result, dur):
        self.samples[f"segmentation.kts_segment.T{result.n_frames}"].append(dur)
        self.sums["segmentation.change_points"] += len(result.change_points)
        self.sums["segmentation.shots"] += len(result.change_points) + 1

    def _note_knapsack(self, args, kwargs, result, dur):
        if self._summary_frames is not None:
            self.samples[f"segmentation.knapsack_select.T{self._summary_frames}"].append(dur)
        lengths = args[1] if len(args) > 1 else kwargs["lengths"]
        self.sums["segmentation.selected_frames"] += sum(
            int(n) for n, keep in zip(lengths, result) if keep
        )

    def _note_tau(self, args, kwargs, result, dur):
        self.samples[f"metrics.kendall_tau.T{len(args[0])}"].append(dur)

    def _note_load(self, args, kwargs, result, dur):
        path = args[0] if args else kwargs["path"]
        self.sums["dataprep.load_dataset.bytes"] += _dataset_bytes(path)

    # -- install / uninstall ---------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        tk = self._modules["tensorkit"]
        notes = {
            "tensorkit.backward": self._note_backward,
            "tensorkit.adam": self._note_adam,
            "encoders.encode_video": self._note_encode_video,
            "pretrain.ssl_step": self._note_sample("pretrain.ssl_step"),
            "progressive.predict": self._note_predict,
            "segmentation.kts_segment": self._note_kts,
            "segmentation.knapsack_select": self._note_knapsack,
            "metrics.kendall_tau": self._note_tau,
            "dataprep.load_dataset": self._note_load,
        }
        for kind in OP_KINDS:
            self._rebind(tk, kind, self._op(getattr(tk, kind), kind))
        for module_name, owner_name, attr, name in _FUNCTIONS:
            module = self._modules[module_name]
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = self._span(fn, name, module_name, notes.get(name))
            if name == "progressive.train_on":
                wrapped = self._train_on_wrapper(wrapped)
            elif name == "segmentation.summarize":
                wrapped = self._summarize_wrapper(wrapped)
            self._rebind(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def export(self):
        sums = dict(self.sums)
        for kind, (calls, fwd, bwd) in self._ops.items():
            if calls:
                sums[f"tensorkit.op.{kind}.calls"] = calls
                sums[f"tensorkit.op.{kind}.fwd_s"] = fwd
                sums[f"tensorkit.op.{kind}.bwd_s"] = bwd
        sums["tensorkit.ops"] = sum(acc[0] for acc in self._ops.values())
        sums["tensorkit.fwd_s"] = sum(acc[1] for acc in self._ops.values())
        sums["tensorkit.bwd_s"] = sum(acc[2] for acc in self._ops.values())
        return {"sums": sums, "samples": {k: list(v) for k, v in self.samples.items()}}


def scaled(export, factor):
    """An export with every sum multiplied by `factor` (samples unchanged)."""
    return {
        "sums": {k: v * factor for k, v in export["sums"].items()},
        "samples": export["samples"],
    }


def layer_metrics(export, names):
    """Resolve per-layer metric names against an export.

    `<key>.ms` is the median of the samples under `<key>`, in milliseconds;
    `tensorkit.nodes_per_backward` is graph nodes per backward sweep; other
    names are sums, under an alias where the metric name differs from the
    aggregate key.  A metric the run never touched reads 0.
    """
    sums, samples = export["sums"], export["samples"]
    out = {}
    for name in names:
        if name.endswith(".ms"):
            values = samples.get(name[: -len(".ms")])
            out[name] = 1000.0 * statistics.median(values) if values else 0.0
        elif name == "tensorkit.nodes_per_backward":
            calls = sums.get("tensorkit.backward.calls", 0.0)
            out[name] = sums.get("tensorkit.backward.nodes", 0.0) / calls if calls else 0.0
        else:
            out[name] = sums.get(_ALIASES.get(name, name), 0.0)
    return out
