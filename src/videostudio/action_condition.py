"""Action indicator vectors from scene prompts.

A vocabulary is a list of named unit embeddings.  Phrases extracted from
the prompt are matched to categories by cosine similarity; weak matches
are dropped and the survivors are normalized so the strongest action
asserts exactly 1.0.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import EmptyPrompt, EmptyVocabulary, ShapeMismatch
from .numeric_core import Parameter, Rng, Tensor, hash64, matmul

DROP_THRESHOLD = 0.2


class ActionVocabulary:
    """names: V action names; embeddings: V x C unit-norm rows."""

    def __init__(self, names, embeddings):
        names = list(names)
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if len(names) < 1:
            raise EmptyVocabulary("vocabulary needs at least one action")
        if len(set(names)) != len(names):
            raise EmptyVocabulary("vocabulary names must be unique")
        if embeddings.ndim != 2 or embeddings.shape[0] != len(names):
            raise ShapeMismatch(f"embeddings {embeddings.shape} vs {len(names)} names")
        norms = np.linalg.norm(embeddings, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-6):  # NaN fails too
            raise ShapeMismatch("vocabulary embeddings must be unit-norm")
        self.names = names
        self.embeddings = embeddings

    @property
    def size(self):
        return len(self.names)


_DEFAULT_ACTIONS = (
    "riding bike", "kneading dough", "pouring coffee", "walking dog",
    "playing guitar", "chopping vegetables", "watering plants", "reading book",
    "throwing ball", "climbing stairs", "painting wall", "stirring soup",
    "folding laundry", "jumping rope", "sweeping floor", "opening door",
)


def default_vocabulary(channels=32, names=_DEFAULT_ACTIONS):
    """Synthetic vocabulary with orthogonalized random embeddings."""
    rng = Rng(hash64("action-vocab", channels))
    raw = rng.normal((len(names), channels))
    q, _ = np.linalg.qr(raw.T)  # columns orthonormal; needs V <= channels
    if q.shape[1] < len(names):
        raise ShapeMismatch("channel width too small to orthogonalize the vocabulary")
    return ActionVocabulary(names, q.T[: len(names)])


def load_vocabulary(path):
    with open(path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    if not isinstance(rows, list) or not rows:
        raise EmptyVocabulary(f"{path}: expected a non-empty JSON list")
    names = [row["name"] for row in rows]
    embeddings = np.array([row["embedding"] for row in rows], dtype=np.float64)
    return ActionVocabulary(names, embeddings)


def extract_action_phrases(prompt, vocab):
    """The vocabulary names that occur in the prompt, in vocabulary order.

    A name matches a run of whole words, ignoring case and the
    punctuation ``.,;:!?`` at word edges; each name is reported once.
    """
    if not prompt or not prompt.strip():
        raise EmptyPrompt("prompt must be nonempty")
    words = [w.strip(".,;:!?") for w in prompt.lower().split()]
    found = []
    for name in vocab.names:
        target = name.lower().split()
        n = len(target)
        if any(words[i:i + n] == target for i in range(len(words) - n + 1)):
            found.append(name)
    return found


class VocabularyEmbedder:
    """Embeds a phrase as its vocabulary row when the phrase is a category
    name, and as a deterministic pseudo-random unit vector otherwise."""

    def __init__(self, vocab):
        self.vocab = vocab

    def __call__(self, phrase):
        if phrase in self.vocab.names:
            return self.vocab.embeddings[self.vocab.names.index(phrase)]
        vec = Rng(hash64("phrase", phrase)).normal(self.vocab.embeddings.shape[1])
        return vec / np.linalg.norm(vec)


def build_indicator(phrases, vocab, embedder, threshold=DROP_THRESHOLD):
    """Map phrases to a [0,1]^V indicator.

    Each phrase picks the category with the highest cosine (ties go to the
    lowest index).  Phrases whose best cosine is below ``threshold`` are
    dropped; the rest are divided by the max accepted cosine, so the
    strongest action reads exactly 1.0.  Duplicate phrases are harmless.
    """
    values = np.zeros(vocab.size, dtype=np.float64)
    accepted = {}
    for phrase in phrases:
        e = np.asarray(embedder(phrase), dtype=np.float64)
        norm = np.linalg.norm(e)
        if norm == 0.0:
            continue
        cosines = vocab.embeddings @ (e / norm)
        idx = int(np.argmax(cosines))  # argmax returns the first max: lowest index wins
        best = float(cosines[idx])
        if best < threshold:
            continue
        accepted[idx] = max(best, accepted.get(idx, 0.0))
    if not accepted:
        return values
    top = max(accepted.values())
    for idx, cos in accepted.items():
        values[idx] = cos / top
    return values


class ActionEmbedding:
    """The linear map f: y_a -> feature space, one per attention block."""

    def __init__(self, w, b):
        self.w, self.b = w, b

    @classmethod
    def init(cls, rng, vocab_size, channels, trainable=True, name="f"):
        w = Parameter(rng.normal((vocab_size, channels)) / np.sqrt(vocab_size),
                      trainable=trainable, name=f"{name}.w")
        b = Parameter(np.zeros(channels), trainable=trainable, name=f"{name}.b")
        return cls(w, b)

    def parameters(self):
        return [(self.w.name, self.w), (self.b.name, self.b)]


def embed_indicator(y_a, f_params):
    """Affine embedding W^T y_a + b of an indicator vector."""
    y = y_a if isinstance(y_a, Tensor) else Tensor(np.asarray(y_a, dtype=np.float64))
    if y.data.ndim != 1 or y.data.shape[0] != f_params.w.data.shape[0]:
        raise ShapeMismatch(f"indicator {y.data.shape} vs W {f_params.w.data.shape}")
    return matmul(y.reshape(1, -1), f_params.w).reshape(-1) + f_params.b
