"""Text cleaning, token assembly, dataset IO, and the synthetic corpus.

The dataset file format is JSON-lines with a versioned schema (SCHEMA.md):
one record per line, features either inline as nested arrays or as a
relative path to a float32 little-endian sidecar blob.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .tensorkit import Rng

SCHEMA_VERSION = 1

PAD, CLS, SEP, UNK = "[PAD]", "[CLS]", "[SEP]", "[UNK]"
RESERVED = [PAD, CLS, SEP, UNK]

# maximum words per field (category, query, title, description)
PRETRAIN_MAX_LENS = (3, 3, 10, 50)
SUMMARIZE_MAX_LENS = (1, 3, 10, 15)


# ---------------------------------------------------------------------------
# Text cleaning and lemmatization

_URL_RE = re.compile(r"(?:[a-zA-Z][a-zA-Z0-9+.-]*://|www\.)\S+")
_EMAIL_RE = re.compile(r"\S+@\S+\.\S+")
_KEEP_RE = re.compile(r"[^a-z0-9'\- ]+")
_VOWELS = set("aeiou")

_IRREGULAR = {
    "children": "child",
    "men": "man",
    "women": "woman",
    "people": "person",
    "feet": "foot",
    "teeth": "tooth",
    "mice": "mouse",
    "geese": "goose",
    "was": "be",
    "were": "be",
    "is": "be",
    "are": "be",
    "been": "be",
    "has": "have",
    "had": "have",
    "did": "do",
    "done": "do",
    "went": "go",
    "gone": "go",
    "better": "good",
    "best": "good",
}


def _has_vowel(w):
    return any(c in _VOWELS for c in w)


def _lemma_once(w):
    if w in _IRREGULAR:
        return _IRREGULAR[w]
    if len(w) > 4 and w.endswith("ies"):
        return w[:-3] + "y"
    if len(w) > 4 and w.endswith(("sses", "shes", "ches", "xes", "zes")):
        return w[:-2]
    if len(w) > 3 and w.endswith("s") and not w.endswith(("ss", "us", "is", "'s")):
        return w[:-1]
    if len(w) >= 6 and w.endswith("ing") and _has_vowel(w[:-3]):
        stem = w[:-3]
        if len(stem) > 2 and stem[-1] == stem[-2] and stem[-1] not in "lsz":
            stem = stem[:-1]
        return stem
    if len(w) >= 6 and w.endswith("ed") and _has_vowel(w[:-2]):
        stem = w[:-2]
        if len(stem) > 2 and stem[-1] == stem[-2] and stem[-1] not in "lsz":
            stem = stem[:-1]
        return stem
    return w


def lemmatize(word):
    """Rule-table lemmatizer run to a fixpoint (so cleaning is idempotent)."""
    seen = {word}
    while True:
        nxt = _lemma_once(word)
        if nxt == word or nxt in seen:
            return nxt
        seen.add(nxt)
        word = nxt


def clean_text(raw):
    """Strip URLs, e-mails and symbols; lowercase, lemmatize, split to words.

    Output words contain only lowercase letters, digits, and internal
    apostrophes/hyphens.  Idempotent by construction.
    """
    s = str(raw)
    s = _URL_RE.sub(" ", s)
    s = _EMAIL_RE.sub(" ", s)
    s = s.lower()
    s = _KEEP_RE.sub(" ", s)
    words = []
    for token in s.split():
        token = token.strip("'-")
        if not token:
            continue
        token = lemmatize(token)
        token = token.strip("'-")
        if token:
            words.append(token)
    return words


# ---------------------------------------------------------------------------
# Text bundles and token assembly


@dataclass
class TextBundle:
    """Cleaned word lists for the four text fields."""

    category: list = field(default_factory=list)
    search_query: list = field(default_factory=list)
    title: list = field(default_factory=list)
    description: list = field(default_factory=list)

    def fields(self):
        return [self.category, self.search_query, self.title, self.description]

    def to_json(self):
        return asdict(self)


class Vocab:
    """Corpus vocabulary with reserved [PAD]=0, [CLS]=1, [SEP]=2, [UNK]=3."""

    def __init__(self, words=()):
        self.id_to_word = list(RESERVED)
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word)}
        for w in words:
            self.add(w)

    def add(self, word):
        if word not in self.word_to_id:
            self.word_to_id[word] = len(self.id_to_word)
            self.id_to_word.append(word)
        return self.word_to_id[word]

    def encode(self, word):
        return self.word_to_id.get(word, self.word_to_id[UNK])

    def __len__(self):
        return len(self.id_to_word)

    @classmethod
    def from_records(cls, records):
        vocab = cls()
        for rec in records:
            for fieldwords in rec.text.fields():
                for w in fieldwords:
                    vocab.add(w)
        return vocab


def token_length(mode):
    lens = {"pretrain": PRETRAIN_MAX_LENS, "summarize": SUMMARIZE_MAX_LENS}[mode]
    return 1 + sum(lens) + (len(lens) - 1)  # CLS + fields + SEP between fields


def assemble_tokens(bundle, vocab, mode="pretrain"):
    """[CLS] cat [SEP] query [SEP] title [SEP] desc [SEP-free tail padding].

    Each field is truncated/padded to its per-mode maximum; total length is
    fixed per mode (pretrain: 70, summarize: 33).
    """
    if mode not in ("pretrain", "summarize"):
        raise ConfigError(f"unknown token mode {mode!r}")
    lens = PRETRAIN_MAX_LENS if mode == "pretrain" else SUMMARIZE_MAX_LENS
    ids = [vocab.encode(CLS)]
    for pos, (fieldwords, max_len) in enumerate(zip(bundle.fields(), lens)):
        if pos:
            ids.append(vocab.encode(SEP))
        chunk = [vocab.encode(w) for w in fieldwords[:max_len]]
        chunk += [vocab.encode(PAD)] * (max_len - len(chunk))
        ids.extend(chunk)
    assert len(ids) == token_length(mode)
    return ids


# ---------------------------------------------------------------------------
# Subsampling

TARGET_FPS = 2.0


def subsample(features, fps_original):
    """Keep every round(fps/2)-th frame; returns (kept features, picks)."""
    feats = np.asarray(features, dtype=np.float64)
    if fps_original < TARGET_FPS:
        warnings.warn(
            f"fps {fps_original} below target {TARGET_FPS}; passing through", stacklevel=2
        )
        return feats, np.arange(feats.shape[0], dtype=np.int64)
    stride = max(int(round(fps_original / TARGET_FPS)), 1)
    picks = np.arange(0, feats.shape[0], stride, dtype=np.int64)
    return feats[picks], picks


# ---------------------------------------------------------------------------
# Dataset records and IO


@dataclass
class DatasetRecord:
    id: str
    features: np.ndarray  # (T, d_f)
    fps_original: float
    picks: np.ndarray  # original-frame index of each kept frame
    n_frames_original: int
    text: TextBundle
    annotations: list  # list of (T,) float arrays
    planted_scores: np.ndarray | None = None  # synthetic ground truth, if any

    def validate(self):
        if self.features.ndim != 2:
            raise DataError(f"{self.id}: features must be 2-D")
        T = self.features.shape[0]
        per_frame = [(f"annotation {i}", a) for i, a in enumerate(self.annotations)]
        if self.planted_scores is not None:
            per_frame.append(("planted_scores", self.planted_scores))
        for name, values in [("features", self.features)] + per_frame:
            if name != "features" and np.asarray(values).shape != (T,):
                raise DataError(f"{self.id}: {name} length != T={T}")
            if not np.all(np.isfinite(values)):
                raise DataError(f"{self.id}: {name} must be finite")
        if self.picks.shape != (T,):
            raise DataError(f"{self.id}: picks length {self.picks.shape} != T={T}")
        if T and (np.any(np.diff(self.picks) <= 0) or self.picks[0] < 0):
            raise DataError(f"{self.id}: picks must be strictly increasing and nonnegative")
        if T and self.picks[-1] >= self.n_frames_original:
            raise DataError(f"{self.id}: picks exceed n_frames_original")
        return self


def save_dataset(records, path, blob=False):
    """Write JSON-lines; with blob=True, features go to a .bin sidecar."""
    tmp = path + ".tmp"
    blob_dir = os.path.dirname(os.path.abspath(path))
    with open(tmp, "w") as fh:
        for rec in records:
            feats32 = np.ascontiguousarray(rec.features, dtype=np.float32)
            obj = {
                "schema": SCHEMA_VERSION,
                "id": rec.id,
                "fps_original": rec.fps_original,
                "picks": rec.picks.tolist(),
                "n_frames_original": rec.n_frames_original,
                "text": rec.text.to_json(),
                "annotations": [np.asarray(a, dtype=np.float64).tolist() for a in rec.annotations],
            }
            if rec.planted_scores is not None:
                obj["planted_scores"] = np.asarray(rec.planted_scores).tolist()
            if blob:
                rel = f"{os.path.splitext(os.path.basename(path))[0]}_{rec.id}.bin"
                with open(os.path.join(blob_dir, rel), "wb") as bf:
                    bf.write(feats32.tobytes())
                obj["features_blob"] = {"path": rel, "shape": list(feats32.shape)}
            else:
                obj["features"] = feats32.tolist()
            fh.write(json.dumps(obj) + "\n")
    os.replace(tmp, path)


def _load_record(obj, line_no, base_dir):
    try:
        if not isinstance(obj, dict):
            raise DataError("record must be a JSON object")
        if obj.get("schema") != SCHEMA_VERSION:
            raise DataError(f"unsupported schema {obj.get('schema')!r}")
        if "features" in obj:
            feats = np.asarray(obj["features"], dtype=np.float32).astype(np.float64)
        elif "features_blob" in obj:
            spec = obj["features_blob"]
            shape = tuple(spec["shape"])
            with open(os.path.join(base_dir, spec["path"]), "rb") as bf:
                feats = np.frombuffer(bf.read(), dtype="<f4").reshape(shape).astype(np.float64)
        else:
            raise DataError("missing field 'features' or 'features_blob'")
        text = TextBundle(**obj["text"])
        rec = DatasetRecord(
            id=str(obj["id"]),
            features=feats,
            fps_original=float(obj["fps_original"]),
            picks=np.asarray(obj["picks"], dtype=np.int64),
            n_frames_original=int(obj["n_frames_original"]),
            text=text,
            annotations=[np.asarray(a, dtype=np.float64) for a in obj["annotations"]],
            planted_scores=(
                np.asarray(obj["planted_scores"], dtype=np.float64)
                if "planted_scores" in obj
                else None
            ),
        )
        return rec.validate()
    except OSError as exc:
        raise DataError(f"line {line_no}: cannot read features blob ({exc})") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"line {line_no}: malformed record ({exc})") from exc
    except DataError as exc:
        raise DataError(f"line {line_no}: {exc}") from None


def load_dataset(path):
    """Records of a JSON-lines dataset; errors name the line at fault."""
    base_dir = os.path.dirname(os.path.abspath(path))
    records = []
    seen = {}  # video id -> line number
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open dataset {path}: {exc}") from exc
    with fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # invalid JSON or invalid UTF-8
                raise DataError(f"line {line_no}: invalid JSON ({exc})") from exc
            rec = _load_record(obj, line_no, base_dir)
            if rec.id in seen:
                raise DataError(f"line {line_no}: duplicate video id {rec.id!r}"
                                f" (first on line {seen[rec.id]})")
            seen[rec.id] = line_no
            records.append(rec)
    if not records:
        raise DataError(f"dataset {path} has no records")
    return records


# ---------------------------------------------------------------------------
# Synthetic planted-importance corpus


@dataclass(frozen=True)
class TopicBank:
    prototypes: np.ndarray  # (K, d_f)
    importances: np.ndarray  # (K,) in (0, 1)
    words: list  # per-topic word pools
    code_dirs: np.ndarray  # (code_bits, d_f) +-1 attribute direction patterns


def build_topic_bank(d_f, n_topics, vocab_words_per_topic, rng, code_bits=4):
    protos = rng.normals((n_topics, d_f))
    # evenly spread base importances with guaranteed low (<0.3) and high (>0.7) topics
    imps = np.linspace(0.08, 0.92, n_topics)
    order = list(range(n_topics))
    rng.shuffle(order)
    imps = imps[np.argsort(order)]
    words = [
        [f"topic{k}word{j}" for j in range(vocab_words_per_topic)] for k in range(n_topics)
    ]
    code_dirs = np.where(rng.normals((code_bits, d_f)) >= 0.0, 1.0, -1.0)
    return TopicBank(prototypes=protos, importances=imps, words=words, code_dirs=code_dirs)


def _partition(total, parts, rng, min_len):
    """Random composition of `total` into `parts` pieces, each >= min_len."""
    free = total - parts * min_len
    cuts = sorted(rng.randint(free + 1) for _ in range(parts - 1))
    sizes = []
    prev = 0
    for c in list(cuts) + [free]:
        sizes.append(c - prev + min_len)
        prev = c
    return sizes


def gen_synthetic(
    n_videos,
    n_frames,
    d_f,
    vocab_size=120,
    seed=7,
    n_topics=10,
    n_annotators=3,
    noise_sigma=0.35,
    annotator_sigma=0.05,
    code_bits=6,
    code_scale=2.5,
    title_words=0,
    desc_words=0,
    query_topics=3,
):
    """Planted-importance corpus standing in for a scraped video-text dataset.

    Each video is 3-8 segments, each tied to a latent topic that fixes both
    the feature prototype and the segment importance; text fields are drawn
    from the topic word pools, so video-text correspondence and frame
    importance are both statistically learnable.

    Every video additionally carries a short +-1 attribute code, like a
    style signature.  Each code bit is a fixed full-width +-1 direction
    pattern added to (or subtracted from) every frame, and the description
    opens with one tag word per bit naming its sign, so video-text matching
    has a low-dimensional route that small models can pick up quickly.
    Extra topic words in the title and description (`title_words`,
    `desc_words`) dilute that route and stretch the matching plateau; the
    defaults keep the text lean so short pretraining runs converge.
    """
    if vocab_size < 20:
        raise ConfigError("vocab_size must be at least 20")
    rng = Rng(seed)
    words_per_topic = max((vocab_size - len(RESERVED) - n_topics) // n_topics, 3)
    bank = build_topic_bank(
        d_f, n_topics, words_per_topic, rng.substream("gen/bank"), code_bits=code_bits
    )
    low_topics = np.flatnonzero(bank.importances < 0.3)
    high_topics = np.flatnonzero(bank.importances > 0.7)

    records = []
    for v in range(n_videos):
        vr = rng.substream(f"gen/video{v}")
        n_segs = min(3 + int(vr.randint(6)), max(n_frames // 4, 2))
        sizes = _partition(n_frames, n_segs, vr, max(2, n_frames // (4 * n_segs)))
        topics = [int(vr.randint(n_topics)) for _ in range(n_segs)]
        # guarantee one clearly important and one clearly unimportant segment
        topics[int(vr.randint(n_segs))] = int(high_topics[vr.randint(high_topics.size)])
        lo_pos = int(vr.randint(n_segs - 1))
        if topics[lo_pos] in high_topics:
            lo_pos = (lo_pos + 1) % n_segs
        topics[lo_pos] = int(low_topics[vr.randint(low_topics.size)])

        code = np.where(vr.normals((code_bits,)) >= 0.0, 1.0, -1.0)
        feats = np.empty((n_frames, d_f))
        raw_scores = np.empty(n_frames)
        pos = 0
        for size, k in zip(sizes, topics):
            feats[pos : pos + size] = bank.prototypes[k] + noise_sigma * vr.normals(
                (size, d_f)
            )
            imp = float(np.clip(bank.importances[k] + vr.uniform(-0.03, 0.03), 0.01, 0.99))
            raw_scores[pos : pos + size] = imp
            pos += size
        feats += code_scale * code @ bank.code_dirs
        # light smoothing across segment boundaries
        planted = np.convolve(
            np.pad(raw_scores, 1, mode="edge"), np.array([0.2, 0.6, 0.2]), mode="valid"
        )
        planted = np.clip(planted, 0.0, 1.0)

        annotations = [
            np.clip(planted + annotator_sigma * vr.normals((n_frames,)), 0.0, 1.0)
            for _ in range(n_annotators)
        ]

        topic_set = sorted(set(topics))
        title = [bank.words[topics[int(vr.randint(n_segs))]][int(vr.randint(words_per_topic))]
                 for _ in range(title_words)]
        desc = [bank.words[topics[int(vr.randint(n_segs))]][int(vr.randint(words_per_topic))]
                for _ in range(desc_words)]
        dominant = topics[int(np.argmax(sizes))]
        tags = [f"tag{i}{'p' if code[i] > 0.0 else 'n'}" for i in range(code_bits)]
        bundle = TextBundle(
            category=[f"cat{dominant}"],
            search_query=[f"topic{k}" for k in topic_set[:query_topics]],
            title=title,
            description=tags + desc,
        )

        stride = 15  # simulated 30 fps source subsampled to 2 fps
        records.append(
            DatasetRecord(
                id=f"vid{v:04d}",
                features=feats,
                fps_original=30.0,
                picks=np.arange(n_frames, dtype=np.int64) * stride,
                n_frames_original=n_frames * stride,
                text=bundle,
                annotations=annotations,
                planted_scores=planted,
            ).validate()
        )
    return records


def corpus_vocab(records, min_size=None):
    """Vocabulary over a record list; optionally padded to a minimum size."""
    vocab = Vocab.from_records(records)
    if min_size:
        i = 0
        while len(vocab) < min_size:
            vocab.add(f"reserved{i}")
            i += 1
    return vocab
