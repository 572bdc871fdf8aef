"""Seeded synthetic review corpus in the SemEval-2014 aspect-term XML schema.

The licensed SemEval files are not in the repository, so the benchmark
makes its own inputs. Everything here is a pure function of the seed: the
same seed writes byte-identical files. Only the two checkpoint functions
import the ``ian`` package.

Why each traffic dimension varies, and how. The shapes (skew, ranges) are
design targets; the exact figures are assumptions. Only the label mix
comes from a source (the repository's README); every value marked
"unverified" below is a guess, not a measurement of the SemEval files, and
should be re-derived once the licensed files are in the repository.

- Sentence length is right-skewed: lognormal, median 17 tokens, sigma 0.45,
  clipped to 5-80, so mostly 8-40 with a thin tail (unverified). Padding
  waste in a batched forward pass depends on the spread of lengths, not on
  the mean, so a padding or length-grouping change must meet a spread.
- Target length is 1-6 tokens, mostly 1-2: shares 70/19/6/3/1/1% for
  1..6 tokens (unverified). It sets the work of the target LSTM and the
  target attention.
- Aspect terms per sentence: 58/27/10/5% of sentences carry 1/2/3/4 terms,
  so about 4 in 10 carry two or more (unverified). Each term is one
  instance that re-encodes the whole sentence today, so this share bounds
  what reuse of context encodings across aspects could save.
- Vocabulary: a 5,000-word lexicon drawn with Zipf frequencies, exponent
  1.05 (unverified); aspect words come from rank 100 down (unverified), as
  aspect terms are content words rather than function words. The lexicon
  sets the embedding-table size of the eval/predict checkpoint, and with it
  checkpoint load, GradSet.zero and momentum_step costs.
- Labels follow the README's restaurant train mix (2164 positive, 637
  neutral, 807 negative). The README does not count ``conflict`` terms; the
  2.5% share here (91 terms) is unverified. They exercise the drop path of
  build_instances.
- Sentences without any aspect term, which the real files also hold, are
  not generated: ``ian.data.parse_semeval_xml`` keeps only sentences with
  at least one term, so they would add XML parsing and nothing else.

Lengths, term counts, target lengths and labels are drawn by stratified
sampling (one draw per quantile stratum, then shuffled). The seed still
changes every word, every pairing and every order, but the total work of a
corpus barely moves between seeds, so run-to-run spread measures the
program, not the luck of the draw.
"""

from __future__ import annotations

import os
from statistics import NormalDist
from xml.sax.saxutils import escape, quoteattr

import numpy as np

# every figure in this block but POLARITY's first three is unverified; see
# the module docstring
LEXICON_SIZE = 5000
ZIPF_EXPONENT = 1.05
# aspect words are drawn from below the most frequent ranks, as real aspect
# terms are content words rather than function words
ASPECT_MIN_RANK = 100

SENT_LEN_MEDIAN = 17.0
SENT_LEN_SIGMA = 0.45
SENT_LEN_RANGE = (5, 80)

TERMS_PER_SENTENCE = ((1, 0.58), (2, 0.27), (3, 0.10), (4, 0.05))
TARGET_LENGTH = ((1, 0.70), (2, 0.19), (3, 0.06), (4, 0.03), (5, 0.01), (6, 0.01))
# restaurant train per the README: 2164 positive, 637 neutral, 807 negative;
# the 91 conflict terms are unverified
POLARITY = (("positive", 0.585), ("neutral", 0.172), ("negative", 0.218),
            ("conflict", 0.025))

# predict calls read "a few to a few dozen" lines: lognormal, median 3
# (unverified: a guess at interactive use, not a measured trace)
PREDICT_LINES_MEDIAN = 3.0
PREDICT_LINES_SIGMA = 1.0
PREDICT_LINES_RANGE = (1, 36)

TRAIN_FILE = "Restaurants_Train_v2.xml"
TEST_FILE = "Restaurants_Test_Gold.xml"

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_NORMAL = NormalDist()


def lexicon(rng: np.random.Generator):
    """Distinct lowercase words, shortest first, so that frequent ranks get
    short words as in natural text."""
    words = set()
    while len(words) < LEXICON_SIZE:
        n_syll = int(rng.integers(1, 4))
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(n_syll)
        )
        if rng.random() < 0.4:
            word += _CONSONANTS[rng.integers(len(_CONSONANTS))]
        words.add(word)
    return sorted(words, key=lambda w: (len(w), w))


def _zipf(n: int, lo: int = 0):
    ranks = np.arange(1, n + 1, dtype=float)
    p = ranks ** -ZIPF_EXPONENT
    p[:lo] = 0.0
    return p / p.sum()


def _stratified_lognormal(rng, n, median, sigma, lo, hi):
    """One draw per 1/n quantile stratum, shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    u = np.clip(u, 1e-9, 1 - 1e-9)
    vals = [int(round(median * np.exp(sigma * _NORMAL.inv_cdf(float(x))))) for x in u]
    vals = [min(max(v, lo), hi) for v in vals]
    return [vals[i] for i in rng.permutation(n)]


def _stratified_categorical(rng, n, table):
    """Fixed multiset (stratum midpoints), shuffled: counts never vary."""
    values = [v for v, _ in table]
    cdf = np.cumsum([p for _, p in table])
    cdf /= cdf[-1]
    picks = [values[int(np.searchsorted(cdf, (i + 0.5) / n))] for i in range(n)]
    return [picks[i] for i in rng.permutation(n)]


class _Draw:
    """Seeded word source shared by every sentence of one corpus."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.words = lexicon(self.rng)
        self.p_any = _zipf(len(self.words))
        self.p_aspect = _zipf(len(self.words), ASPECT_MIN_RANK)

    def words_from(self, p, n):
        return [self.words[i] for i in self.rng.choice(len(self.words), size=n, p=p)]


def _sentence(draw: _Draw, length: int, term_lens, polarities):
    """One sentence holding the given terms, each occurring exactly once as
    a substring, so that a predict line's string search lands on the same
    characters as the XML offsets."""
    rng = draw.rng
    k = len(term_lens)
    # body words exclude the final period; terms need at least one filler
    # word between them
    body = max(length - 1, sum(term_lens) + k - 1)
    internal = k - 1
    free = body - sum(term_lens) - internal
    for _ in range(100):
        terms = [" ".join(draw.words_from(draw.p_aspect, n)) for n in term_lens]
        cuts = np.sort(rng.integers(0, free + 1, size=k))
        gaps = np.diff(np.concatenate([[0], cuts, [free]]))
        gaps[1:-1] += 1
        pieces, spans = [], []
        for i in range(k + 1):
            for w in draw.words_from(draw.p_any, int(gaps[i])):
                pieces.append(w)
            if i < k:
                start = sum(len(p) + 1 for p in pieces)
                pieces.append(terms[i])
                spans.append((start, start + len(terms[i])))
        text = " ".join(pieces) + "."
        if all(text.count(t) == 1 for t in terms):
            return text, [
                (t, s, e, pol) for t, (s, e), pol in zip(terms, spans, polarities)
            ]
    raise RuntimeError("could not place unique aspect terms; lexicon too small")


def make_sentences(draw: _Draw, n_sentences: int):
    """List of (text, [(term, from, to, polarity), ...])."""
    rng = draw.rng
    lengths = _stratified_lognormal(rng, n_sentences, SENT_LEN_MEDIAN, SENT_LEN_SIGMA,
                                    *SENT_LEN_RANGE)
    counts = _stratified_categorical(rng, n_sentences, TERMS_PER_SENTENCE)
    n_terms = sum(counts)
    term_lens = _stratified_categorical(rng, n_terms, TARGET_LENGTH)
    labels = _stratified_categorical(rng, n_terms, POLARITY)
    out, t = [], 0
    for length, k in zip(lengths, counts):
        out.append(_sentence(draw, length, term_lens[t:t + k], labels[t:t + k]))
        t += k
    return out


def xml_text(sentences, id_prefix: str) -> str:
    lines = ['<?xml version="1.0" encoding="UTF-8" standalone="yes"?>', "<sentences>"]
    for i, (text, terms) in enumerate(sentences):
        lines.append(f'    <sentence id="{id_prefix}{i}">')
        lines.append(f"        <text>{escape(text)}</text>")
        lines.append("        <aspectTerms>")
        for term, start, end, pol in terms:
            lines.append(
                f"            <aspectTerm term={quoteattr(term)} polarity={quoteattr(pol)}"
                f' from="{start}" to="{end}"/>'
            )
        lines.append("        </aspectTerms>")
        lines.append("    </sentence>")
    lines.append("</sentences>")
    return "\n".join(lines) + "\n"


def generate(seed: int, n_train: int, n_test: int):
    """(lexicon, train_sentences, test_sentences) for one seed."""
    draw = _Draw(seed)
    train = make_sentences(draw, n_train)
    test = make_sentences(draw, n_test)
    return draw.words, train, test


def write_corpus(out_dir: str, seed: int, n_train: int, n_test: int):
    """Write both restaurant splits under their real file names, so the CLI
    reads them through ``--data-dir``. Returns what ``generate`` returns."""
    words, train, test = generate(seed, n_train, n_test)
    os.makedirs(out_dir, exist_ok=True)
    for name, sents, prefix in ((TRAIN_FILE, train, "tr"), (TEST_FILE, test, "te")):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(xml_text(sents, prefix))
    return words, train, test


def predict_lines(seed: int, n_calls: int):
    """Per-call lists of (sentence, target, from, to) for ``ian predict``.

    Call sizes form a fixed multiset (lognormal stratum midpoints) in seeded
    order; every target occurs once in its sentence. Conflict-labelled
    terms are skipped: predict input carries no gold label.
    """
    draw = _Draw(seed)
    lo, hi = PREDICT_LINES_RANGE
    sizes = [
        min(max(int(round(PREDICT_LINES_MEDIAN * np.exp(
            PREDICT_LINES_SIGMA * _NORMAL.inv_cdf((i + 0.5) / n_calls)))), lo), hi)
        for i in range(n_calls)
    ]
    sizes = [sizes[i] for i in draw.rng.permutation(n_calls)]
    lines = []
    while len(lines) < sum(sizes):
        for text, terms in make_sentences(draw, sum(sizes) // 2 + 1):
            lines.extend((text, t, s, e) for t, s, e, pol in terms if pol != "conflict")
    calls, at = [], 0
    for size in sizes:
        calls.append(lines[at:at + size])
        at += size
    return draw.words, calls


def write_predict_files(out_dir: str, calls):
    """One tab-separated input file per call; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, call in enumerate(calls):
        path = os.path.join(out_dir, f"call{i:03d}.tsv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{text}\t{target}\n" for text, target, _, _ in call)
        paths.append(path)
    return paths


def checkpoint_params(words, seed: int):
    """A randomly initialised ``ian`` model over the whole lexicon, built
    through the package's own ModelParams, as a trained checkpoint of the
    same dims and vocabulary would be."""
    from ian.embeddings import Vocabulary
    from ian.model import ModelParams
    from ian.numerics import Rng

    vocab = Vocabulary(list(words) + ["."])
    return ModelParams(Rng(seed), vocab, variant="ian", embed_dim=300, hidden_dim=300)


def write_checkpoint(path: str, words, seed: int):
    """Save ``checkpoint_params`` through the package's save_checkpoint."""
    from ian.model import save_checkpoint

    save_checkpoint(path, checkpoint_params(words, seed),
                    config={"category": "restaurant", "variant": "ian"})
