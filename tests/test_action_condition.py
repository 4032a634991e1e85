import json

import numpy as np
import pytest

from videostudio.action_condition import (DROP_THRESHOLD, ActionEmbedding,
                                          ActionVocabulary, VocabularyEmbedder,
                                          build_indicator, default_vocabulary,
                                          embed_indicator,
                                          extract_action_phrases,
                                          load_vocabulary)
from videostudio.errors import EmptyPrompt, EmptyVocabulary, ShapeMismatch
from videostudio.numeric_core import Rng


def _tiny_vocab():
    """Three orthogonal categories in 4 channels: hand-checkable cosines."""
    names = ["running", "jumping", "waving"]
    emb = np.eye(4)[:3]
    return ActionVocabulary(names, emb)


# --- vocabulary ---------------------------------------------------------------

def test_default_vocabulary_is_orthonormal():
    vocab = default_vocabulary(channels=32)
    assert vocab.size == 16
    gram = vocab.embeddings @ vocab.embeddings.T
    assert np.allclose(gram, np.eye(16), atol=1e-10)


def test_default_vocabulary_deterministic():
    a = default_vocabulary(channels=32)
    b = default_vocabulary(channels=32)
    assert a.names == b.names
    assert np.array_equal(a.embeddings, b.embeddings)


def test_vocabulary_validation():
    with pytest.raises(EmptyVocabulary):
        ActionVocabulary([], np.zeros((0, 4)))
    with pytest.raises(EmptyVocabulary):
        ActionVocabulary(["a", "a"], np.eye(4)[:2])
    with pytest.raises(ShapeMismatch):
        ActionVocabulary(["a", "b"], np.eye(4)[:3])
    with pytest.raises(ShapeMismatch):
        ActionVocabulary(["a"], 2.0 * np.eye(4)[:1])
    with pytest.raises(ShapeMismatch):
        ActionVocabulary(["a"], np.array([[np.nan, 0.0]]))
    with pytest.raises(ShapeMismatch):
        default_vocabulary(channels=8)  # 16 names cannot orthogonalize in 8 dims

@pytest.mark.parametrize("name", [5, None, ["riding", "bike"], "", "   ", "\t\n"],
                         ids=["int", "null", "list", "empty", "spaces", "whitespace"])
def test_vocabulary_names_must_hold_a_word(name):
    # a non-string name broke the scenes stage; a blank one matched every prompt
    with pytest.raises(EmptyVocabulary, match="not a string of words"):
        ActionVocabulary(["waving", name], np.eye(4)[:2])


def test_vocabulary_names_must_differ_as_prompt_words():
    # prompts match names as lowercased words: two such names asserted both categories
    with pytest.raises(EmptyVocabulary, match="'Riding Bike' and 'riding  bike'"):
        ActionVocabulary(["Riding Bike", "riding  bike"], np.eye(4)[:2])
    vocab = ActionVocabulary(["Riding Bike", "riding bikes"], np.eye(4)[:2])
    assert extract_action_phrases("a fox riding bike", vocab) == ["Riding Bike"]


def test_vocabulary_names_and_prompts_share_one_word_rule():
    # edge punctuation was stripped from prompt words only, so this name never matched
    vocab = ActionVocabulary(["riding bike!", "waving"], np.eye(4)[:2])
    assert extract_action_phrases("a fox riding bike! and waving", vocab) == [
        "riding bike!", "waving"]
    assert extract_action_phrases("a fox riding bike", vocab) == ["riding bike!"]
    with pytest.raises(EmptyVocabulary, match="'riding bike!' and 'riding bike'"):
        ActionVocabulary(["riding bike!", "riding bike"], np.eye(4)[:2])


@pytest.mark.parametrize("name", ["!", "riding ?", "... waving"])
def test_vocabulary_names_may_not_hold_a_punctuation_word(name):
    with pytest.raises(EmptyVocabulary, match="not a string of words"):
        ActionVocabulary(["jumping", name], np.eye(4)[:2])


def test_vocabulary_file_with_a_number_for_a_name_is_bad_config(tmp_path):
    from videostudio.errors import BadConfig
    from videostudio.pipeline import load_config
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps([{"name": 5, "embedding": [1.0, 0.0]}]))
    with pytest.raises(BadConfig, match="vocabulary"):
        load_config(overrides={"vocabulary_path": str(path)})


def test_vocabulary_json_round_trip(tmp_path):
    vocab = default_vocabulary(channels=32)
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps([{"name": n, "embedding": e.tolist()}
                                for n, e in zip(vocab.names, vocab.embeddings)]))
    back = load_vocabulary(path)
    assert back.names == vocab.names
    assert np.allclose(back.embeddings, vocab.embeddings, atol=1e-15)
    (tmp_path / "empty.json").write_text("[]")
    with pytest.raises(EmptyVocabulary):
        load_vocabulary(tmp_path / "empty.json")


# --- phrase extraction -----------------------------------------------------------

def test_ngram_scan_finds_vocabulary_phrases():
    vocab = default_vocabulary(channels=32)
    phrases = extract_action_phrases(
        "a chef kneading dough while pouring coffee, then kneading dough again", vocab)
    assert phrases == ["kneading dough", "pouring coffee"]


def test_ngram_scan_strips_punctuation_and_case():
    vocab = default_vocabulary(channels=32)
    assert extract_action_phrases("He loves Riding Bike!", vocab) == ["riding bike"]


def test_extract_rejects_empty_prompt():
    vocab = default_vocabulary(channels=32)
    with pytest.raises(EmptyPrompt):
        extract_action_phrases("   ", vocab)


# --- indicator construction --------------------------------------------------------

def test_indicator_hand_fixture_divide_by_max():
    vocab = _tiny_vocab()
    # running at cosine 0.8, jumping at 0.4: both survive, max normalizes
    table = {"p1": np.array([0.8, 0.0, 0.0, 0.6]),
             "p2": np.array([0.0, 0.4, 0.0, np.sqrt(1 - 0.16)])}
    y = build_indicator(["p1", "p2"], vocab, lambda p: table[p])
    assert y[0] == 1.0
    assert np.isclose(y[1], 0.4 / 0.8)
    assert y[2] == 0.0


def test_indicator_threshold_drops_weak_matches():
    vocab = _tiny_vocab()
    weak = np.array([0.19, 0.0, 0.0, np.sqrt(1 - 0.19 ** 2)])
    y = build_indicator(["w"], vocab, lambda p: weak)
    assert np.array_equal(y, np.zeros(3))
    at = np.array([DROP_THRESHOLD, 0.0, 0.0, np.sqrt(1 - DROP_THRESHOLD ** 2)])
    y = build_indicator(["w"], vocab, lambda p: at)
    assert y[0] == 1.0  # exactly at threshold survives


def test_indicator_argmax_tie_takes_lowest_index():
    vocab = _tiny_vocab()
    tie = np.array([0.5, 0.5, 0.0, np.sqrt(0.5)])
    y = build_indicator(["t"], vocab, lambda p: tie)
    assert y[0] == 1.0 and y[1] == 0.0


def test_indicator_empty_phrases_gives_zero_vector():
    vocab = _tiny_vocab()
    y = build_indicator([], vocab, lambda p: np.zeros(4))
    assert np.array_equal(y, np.zeros(3))


def test_indicator_duplicate_phrases_keep_best_cosine():
    vocab = _tiny_vocab()
    seq = iter([np.array([0.5, 0.0, 0.0, np.sqrt(0.75)]),
                np.array([0.9, 0.0, 0.0, np.sqrt(1 - 0.81)])])
    y = build_indicator(["a", "a"], vocab, lambda p: next(seq))
    assert y[0] == 1.0  # the stronger duplicate wins; normalized by itself


def test_indicator_zero_embedding_is_skipped():
    vocab = _tiny_vocab()
    y = build_indicator(["z"], vocab, lambda p: np.zeros(4))
    assert np.array_equal(y, np.zeros(3))


def test_vocabulary_embedder_exact_name_uses_row():
    vocab = default_vocabulary(channels=32)
    emb = VocabularyEmbedder(vocab)
    assert np.array_equal(emb("kneading dough"), vocab.embeddings[1])


def test_known_phrases_assert_their_own_category():
    vocab = default_vocabulary(channels=32)
    emb = VocabularyEmbedder(vocab)
    y = build_indicator(["sweeping floor", "opening door"], vocab, emb)
    hits = [y[vocab.names.index("sweeping floor")], y[vocab.names.index("opening door")]]
    assert max(hits) == 1.0  # divide-by-max pins the strongest exactly
    assert min(hits) > 1.0 - 1e-12
    assert np.count_nonzero(y) == 2


# --- learned embedding --------------------------------------------------------------

def test_embed_indicator_affine_map():
    rng = Rng(0)
    f = ActionEmbedding.init(rng, vocab_size=3, channels=5)
    y = np.array([1.0, 0.5, 0.0])
    out = embed_indicator(y, f)
    want = y @ f.w.data + f.b.data
    assert np.allclose(out.data, want, atol=1e-12)
    with pytest.raises(ShapeMismatch):
        embed_indicator(np.zeros(4), f)


def test_embed_indicator_gradients_reach_parameters():
    rng = Rng(1)
    f = ActionEmbedding.init(rng, vocab_size=3, channels=5)
    out = embed_indicator(np.array([1.0, 0.0, 1.0]), f)
    out.sum().backward()
    assert f.w.grad is not None and f.b.grad is not None
