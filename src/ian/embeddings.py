"""Vocabulary and word-embedding table.

Index 0 is reserved for the padding token; its embedding row is all zeros
and is never updated, so appending padding to a sentence cannot change any
computation that masks it out.
"""

from __future__ import annotations

import numpy as np

from .numerics import Rng, uniform_init

PAD_TOKEN = "<pad>"
PAD_INDEX = 0

# the L2 term squares every weight, so a larger value overflows it
MAX_WEIGHT = float(np.sqrt(np.finfo(np.float64).max))


class Vocabulary:
    """Token <-> index mapping with the pad token pinned at index 0."""

    def __init__(self, tokens=()):
        self.tokens = [PAD_TOKEN]
        self._index = {PAD_TOKEN: PAD_INDEX}
        for t in tokens:
            self.add(t)

    def add(self, token: str) -> int:
        if token in self._index:
            return self._index[token]
        idx = len(self.tokens)
        self.tokens.append(token)
        self._index[token] = idx
        return idx

    def encode(self, tokens) -> tuple:
        """Token list -> tuple of int indices. Unknown tokens raise KeyError."""
        try:
            return tuple(self._index[t] for t in tokens)
        except KeyError as err:
            raise KeyError(f"token not in vocabulary: {err.args[0]!r}") from None

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self.tokens)


def text_lines(path: str):
    """Yield a UTF-8 text file's lines one at a time; a byte sequence that
    is not UTF-8 raises ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as err:
            raise ValueError(f"cannot read {path}: {err}") from None


def random_embeddings(rng: Rng, vocab: Vocabulary, dim: int) -> np.ndarray:
    """uniform_init row per token; the pad row stays zero."""
    table = uniform_init(rng, len(vocab), dim)
    table[PAD_INDEX] = 0.0
    return table


def load_pretrained(path: str, vocab: Vocabulary, dim: int, rng: Rng):
    """Fill the table from a text file of "token v1 ... v_dim" lines.

    Vocabulary tokens absent from the file get uniform_init rows, drawn in
    vocabulary order so the result is deterministic. Returns
    (table, n_hits, n_misses); the pad row is zero and counts as neither.
    A vocabulary token's row with the wrong number of values, or a value
    that is not a number up to MAX_WEIGHT in magnitude, raises ValueError
    naming file, line and token, as text_lines does for a file that is not
    UTF-8; other tokens' rows are never parsed.
    """
    found = {}
    for lineno, line in enumerate(text_lines(path), 1):
        parts = line.rstrip().split(" ")
        token = parts[0]
        if token not in vocab or token == PAD_TOKEN:
            continue
        vals = parts[1:]
        where = f"{path}:{lineno}: embedding row for {token!r}"
        if len(vals) != dim:
            raise ValueError(f"{where} has {len(vals)} values, expected {dim}")
        try:
            vec = np.array(vals, dtype=np.float64)
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
        bad = ~(np.abs(vec) <= MAX_WEIGHT)  # NaN too
        if bad.any():
            raise ValueError(f"{where} has value {vals[bad.argmax()]!r}, expected "
                             f"a finite number of magnitude at most {MAX_WEIGHT:.3g}")
        found[token] = vec

    table = np.zeros((len(vocab), dim))
    hits = 0
    misses = 0
    for idx, token in enumerate(vocab.tokens):
        if idx == PAD_INDEX:
            continue
        vec = found.get(token)
        if vec is not None:
            table[idx] = vec
            hits += 1
        else:
            table[idx] = uniform_init(rng, dim)
            misses += 1
    return table, hits, misses


def lookup(table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Stack the rows for an index array into an (n, dim) matrix."""
    return table[np.asarray(indices, dtype=np.int64)]
