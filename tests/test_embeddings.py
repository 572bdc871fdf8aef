import numpy as np
import pytest

from ian.embeddings import (
    PAD_INDEX,
    PAD_TOKEN,
    Vocabulary,
    load_pretrained,
    lookup,
    random_embeddings,
)
from ian.numerics import Rng


def test_pad_is_index_zero():
    vocab = Vocabulary(["food", "great"])
    assert vocab.tokens[0] == PAD_TOKEN
    assert vocab.encode([PAD_TOKEN, "food", "great"]) == (PAD_INDEX, 1, 2)


def test_add_is_idempotent():
    vocab = Vocabulary()
    a = vocab.add("service")
    b = vocab.add("service")
    assert a == b
    assert len(vocab) == 2  # pad + service


def test_encode_round_trip():
    vocab = Vocabulary(["the", "fish", "is", "fresh"])
    idx = vocab.encode(["the", "fish", "is", "fresh", "fish"])
    assert idx == (1, 2, 3, 4, 2)
    assert [vocab.tokens[i] for i in idx] == ["the", "fish", "is", "fresh", "fish"]


def test_encode_unknown_token():
    vocab = Vocabulary(["the"])
    with pytest.raises(KeyError):
        vocab.encode(["the", "zebra"])


def test_random_embeddings_pad_row_zero_and_range():
    vocab = Vocabulary(["a", "b", "c"])
    table = random_embeddings(Rng(5), vocab, 6)
    assert table.shape == (4, 6)
    assert np.array_equal(table[PAD_INDEX], np.zeros(6))
    body = table[1:]
    assert np.all(body >= -0.1) and np.all(body < 0.1)
    assert not np.array_equal(body, np.zeros_like(body))


def test_random_embeddings_deterministic():
    vocab = Vocabulary(["a", "b"])
    t1 = random_embeddings(Rng(3), vocab, 4)
    t2 = random_embeddings(Rng(3), vocab, 4)
    assert np.array_equal(t1, t2)


def test_lookup_stacks_rows():
    vocab = Vocabulary(["x", "y"])
    table = np.arange(9.0).reshape(3, 3)
    got = lookup(table, vocab.encode(["y", "x", "y"]))
    assert np.array_equal(got, table[[2, 1, 2]])


def test_load_pretrained_hits_and_misses(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text(
        "food 1.0 2.0 3.0\n"
        "unrelated 9.0 9.0 9.0\n"
        "great 0.5 -0.5 0.25\n"
    )
    vocab = Vocabulary(["food", "great", "zebra"])
    table, hits, misses = load_pretrained(str(path), vocab, 3, Rng(1))
    assert (hits, misses) == (2, 1)
    assert np.array_equal(table[vocab.tokens.index("food")], [1.0, 2.0, 3.0])
    assert np.array_equal(table[vocab.tokens.index("great")], [0.5, -0.5, 0.25])
    zrow = table[vocab.tokens.index("zebra")]
    assert np.all(zrow >= -0.1) and np.all(zrow < 0.1) and np.any(zrow != 0)
    assert np.array_equal(table[PAD_INDEX], np.zeros(3))


def test_load_pretrained_miss_rows_deterministic(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1.0 1.0\n")
    vocab = Vocabulary(["a", "m1", "m2"])
    t1, _, _ = load_pretrained(str(path), vocab, 2, Rng(7))
    t2, _, _ = load_pretrained(str(path), vocab, 2, Rng(7))
    assert np.array_equal(t1, t2)


def test_load_pretrained_dim_mismatch(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1.0 2.0\n")
    vocab = Vocabulary(["a"])
    with pytest.raises(ValueError, match=f"^{path}:1: embedding row for 'a' has 2 values, "
                                         "expected 3$"):
        load_pretrained(str(path), vocab, 3, Rng(1))


def test_load_pretrained_ignores_trailing_whitespace(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1.0 2.0 \nb 3.0 4.0\t\r\n")
    vocab = Vocabulary(["a", "b"])
    table, hits, _ = load_pretrained(str(path), vocab, 2, Rng(1))
    assert hits == 2
    assert np.array_equal(table[1:], [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("value", ["x", "nan", "inf", "-1e308", "1e155"])
def test_load_pretrained_names_a_bad_value(tmp_path, value):
    path = tmp_path / "vecs.txt"
    path.write_text(f"a 1.0 2.0\nb 1.0 {value}\n")
    with pytest.raises(ValueError) as err:
        load_pretrained(str(path), Vocabulary(["a", "b"]), 2, Rng(1))
    assert str(err.value).startswith(f"{path}:2: embedding row for 'b'")
    assert repr(value) in str(err.value)


def test_load_pretrained_keeps_large_finite_squares(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1e150 -2.5\n")
    table, _, _ = load_pretrained(str(path), Vocabulary(["a"]), 2, Rng(1))
    assert np.array_equal(table[1], [1e150, -2.5])


def test_load_pretrained_skips_rows_outside_the_vocabulary(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("other x nan\na 1.0 2.0\nthird 1\n")
    table, hits, misses = load_pretrained(str(path), Vocabulary(["a"]), 2, Rng(1))
    assert (hits, misses) == (1, 0)
