"""Action indicator vectors from scene prompts.

A vocabulary is a list of named unit embeddings.  Phrases extracted from
the prompt are matched to categories by cosine similarity; weak matches
are dropped and the survivors are normalized so the strongest action
asserts exactly 1.0.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyPrompt, EmptyVocabulary, ShapeMismatch
from .numeric_core import Module, Parameter, Rng, Tensor, hash64, matmul, read_json

DROP_THRESHOLD = 0.2


def _words(text):
    """The lowercased words of ``text``, stripped of ``.,;:!?`` at their
    edges: the one word rule for prompts and vocabulary names alike."""
    return [w.strip(".,;:!?") for w in text.lower().split()]


class ActionVocabulary:
    """names: V action names, each a string of at least one word and no
    word that is only punctuation, no two the same words (see ``_words``);
    embeddings: V x C unit-norm rows."""

    def __init__(self, names, embeddings):
        names = list(names)
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if len(names) < 1:
            raise EmptyVocabulary("vocabulary needs at least one action")
        seen = {}  # names match prompts by their words, so they must differ as such
        for name in names:
            key = tuple(_words(name)) if isinstance(name, str) else ()
            if not (key and all(key)):
                raise EmptyVocabulary(f"vocabulary name {name!r} is not a string of words")
            if key in seen:
                raise EmptyVocabulary(f"vocabulary names {seen[key]!r} and {name!r} match "
                                      "the same words")
            seen[key] = name
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


def default_vocabulary(channels=32):
    """Synthetic vocabulary of ``_DEFAULT_ACTIONS`` with orthogonalized
    random embeddings."""
    n = len(_DEFAULT_ACTIONS)
    raw = Rng(hash64("action-vocab", channels)).normal((n, channels))
    q, _ = np.linalg.qr(raw.T)  # columns orthonormal; needs V <= channels
    if q.shape[1] < n:
        raise ShapeMismatch("channel width too small to orthogonalize the vocabulary")
    return ActionVocabulary(_DEFAULT_ACTIONS, q.T[:n])


def load_vocabulary(path):
    rows = read_json(path, EmptyVocabulary)
    if not isinstance(rows, list) or not rows:
        raise EmptyVocabulary(f"{path}: expected a non-empty JSON list")
    names = [row["name"] for row in rows]
    embeddings = np.array([row["embedding"] for row in rows], dtype=np.float64)
    return ActionVocabulary(names, embeddings)


def extract_action_phrases(prompt, vocab):
    """The vocabulary names that occur in the prompt, in vocabulary order.

    A name matches a run of whole words, both split by ``_words``, so
    case and the punctuation ``.,;:!?`` at word edges do not count; each
    name is reported once.
    """
    if not prompt or not prompt.strip():
        raise EmptyPrompt("prompt must be nonempty")
    words = _words(prompt)
    found = []
    for name in vocab.names:
        target = _words(name)
        n = len(target)
        if any(words[i:i + n] == target for i in range(len(words) - n + 1)):
            found.append(name)
    return found


class VocabularyEmbedder:
    """Embeds a category name, as ``extract_action_phrases`` returns it, as
    its vocabulary row."""

    def __init__(self, vocab):
        self.vocab = vocab

    def __call__(self, phrase):
        return self.vocab.embeddings[self.vocab.names.index(phrase)]


def build_indicator(phrases, vocab, embedder):
    """Map phrases to a [0,1]^V indicator.

    Each phrase picks the category with the highest cosine (ties go to the
    lowest index).  Phrases whose best cosine is below ``DROP_THRESHOLD`` are
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
        if best < DROP_THRESHOLD:
            continue
        accepted[idx] = max(best, accepted.get(idx, 0.0))
    if not accepted:
        return values
    top = max(accepted.values())
    for idx, cos in accepted.items():
        values[idx] = cos / top
    return values


class ActionEmbedding(Module):
    """The linear map f: y_a -> feature space, one per attention block."""

    def __init__(self, w, b):
        self.w, self.b = w, b

    @classmethod
    def init(cls, rng, vocab_size, channels, name="f"):
        w = Parameter(rng.normal((vocab_size, channels)) / np.sqrt(vocab_size), name=f"{name}.w")
        b = Parameter(np.zeros(channels), name=f"{name}.b")
        return cls(w, b)


def embed_indicator(y_a, f_params):
    """Affine embedding W^T y_a + b of an indicator vector."""
    y = y_a if isinstance(y_a, Tensor) else Tensor(np.asarray(y_a, dtype=np.float64))
    if y.data.ndim != 1 or y.data.shape[0] != f_params.w.data.shape[0]:
        raise ShapeMismatch(f"indicator {y.data.shape} vs W {f_params.w.data.shape}")
    return matmul(y.reshape(1, -1), f_params.w).reshape(-1) + f_params.b
