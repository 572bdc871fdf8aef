"""Review-corpus ingestion: XML parsing, tokenization, instance building
and dataset statistics.

Input files follow the aspect-term review schema: a ``sentences`` root,
each ``sentence`` holding a ``text`` node and an optional ``aspectTerms``
list whose ``aspectTerm`` entries carry term/polarity/from/to attributes.
Character offsets index the entity-decoded sentence string.

Real corpus files are looked up under the directory named by the
SEMEVAL_DATA_DIR environment variable; without it, small hand-built
fixture files bundled with the package are used so every code path stays
testable offline.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass, field

from .embeddings import Vocabulary
from .model import LABEL_INDEX, LABELS

CONFLICT_POLARITY = "conflict"
DATA_ENV = "SEMEVAL_DATA_DIR"

# Candidate file names per (category, split), first match wins. These cover
# the common layouts of the published distribution.
REAL_FILENAMES = {
    ("restaurant", "train"): ("Restaurants_Train_v2.xml", "Restaurants_Train.xml"),
    ("restaurant", "test"): ("Restaurants_Test_Gold.xml",),
    ("laptop", "train"): (
        "Laptop_Train_v2.xml",
        "Laptops_Train_v2.xml",
        "Laptop_Train.xml",
        "Laptops_Train.xml",
    ),
    ("laptop", "test"): ("Laptops_Test_Gold.xml", "Laptop_Test_Gold.xml"),
}

CATEGORIES = ("restaurant", "laptop")
SPLITS = ("train", "test")

# Words keep internal apostrophes/hyphens; any other non-space character
# becomes its own token.
_TOKEN_RE = re.compile(r"\w+(?:['\-]\w+)*|[^\w\s]")


@dataclass
class AspectTerm:
    """One annotated target occurrence inside a sentence."""

    text: str
    start: int  # character offset, inclusive
    end: int  # character offset, exclusive
    polarity: str


@dataclass
class RawReview:
    """One sentence with at least one annotated aspect term."""

    text: str
    terms: list


@dataclass
class Instance:
    """One (sentence, target occurrence) classification case."""

    context_tokens: tuple
    target_tokens: tuple
    context_ids: tuple
    target_ids: tuple
    span: tuple  # (start, end) token positions of the target in the context
    label: int
    target_text: str


@dataclass
class Dataset:
    instances: list
    vocab: Vocabulary
    split: str
    category: str


@dataclass
class BuildReport:
    """Bookkeeping from build_instances; every dropped case is counted."""

    built: int = 0
    dropped_conflict: int = 0
    dropped_other_polarity: int = 0
    span_fallbacks: int = 0
    dropped_unlocatable: int = 0
    dropped_empty: int = 0


def tokenize_with_spans(text: str):
    """Lowercased tokens plus their (start, end) character offsets.

    Offsets index the original string, so they stay valid for mapping
    annotation offsets even when lowercasing would change the text.
    """
    tokens = []
    spans = []
    for m in _TOKEN_RE.finditer(text):
        tokens.append(m.group(0).lower())
        spans.append((m.start(), m.end()))
    return tokens, spans


def tokenize(text: str):
    """Lowercase, split on whitespace, punctuation as standalone tokens."""
    return tokenize_with_spans(text)[0]


def _collapse_ws(text: str) -> str:
    return " ".join(text.split())


def find_term(text: str, term: str) -> int:
    """Character offset of the first occurrence of term in text: an exact
    match first, else a case-insensitive one; -1 when neither exists."""
    pos = text.find(term)
    if pos >= 0:
        return pos
    # searching text itself, not text.lower(), whose offsets shift after a
    # character that lowercases to two code points
    match = re.search(re.escape(term), text, re.IGNORECASE)
    return match.start() if match else -1


def parse_semeval_xml(path: str):
    """Parse one review XML file.

    Returns (reviews, realigned) where reviews holds one RawReview per
    sentence bearing at least one aspect term, and realigned counts terms
    whose character offsets did not match their term text and had to be
    re-located (each such case also emits a warning).  Malformed XML or a
    structurally broken record raises ValueError naming the location.
    """
    import xml.etree.ElementTree as ET

    try:
        tree = ET.parse(path)
    except ET.ParseError as err:
        raise ValueError(f"malformed XML in {path}: {err}") from err
    root = tree.getroot()
    reviews = []
    realigned = 0
    for s_num, sentence in enumerate(root.iter("sentence")):
        sid = sentence.get("id", f"#{s_num}")
        text = sentence.findtext("text")
        if text is None:
            raise ValueError(f"{path}: sentence {sid} has no text node")
        terms = []
        for term_el in sentence.iter("aspectTerm"):
            term = term_el.get("term")
            polarity = term_el.get("polarity")
            raw_from = term_el.get("from")
            raw_to = term_el.get("to")
            if term is None or polarity is None or raw_from is None or raw_to is None:
                raise ValueError(
                    f"{path}: sentence {sid} has an aspectTerm missing "
                    "term/polarity/from/to attributes"
                )
            try:
                start, end = int(raw_from), int(raw_to)
            except ValueError as err:
                raise ValueError(
                    f"{path}: sentence {sid} term {term!r} has non-integer offsets"
                ) from err
            snippet = text[start:end]
            if snippet != term and _collapse_ws(snippet) != _collapse_ws(term):
                # best-effort realignment: find the term text elsewhere
                pos = find_term(text, term)
                realigned += 1
                if pos >= 0:
                    warnings.warn(
                        f"{path}: sentence {sid} offsets {start}:{end} do not "
                        f"match term {term!r}; realigned to {pos}:{pos + len(term)}"
                    )
                    start, end = pos, pos + len(term)
                else:
                    warnings.warn(
                        f"{path}: sentence {sid} offsets {start}:{end} do not "
                        f"match term {term!r} and the term text was not found; "
                        "keeping the stated offsets"
                    )
            terms.append(AspectTerm(text=term, start=start, end=end, polarity=polarity))
        if terms:
            reviews.append(RawReview(text=text, terms=terms))
    return reviews, realigned


def _subsequence_at(haystack, needle):
    """Start index of the first occurrence of needle as a contiguous
    subsequence of haystack, or -1."""
    if not needle or len(needle) > len(haystack):
        return -1
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i : i + len(needle)] == needle:
            return i
    return -1


def build_instances(reviews, vocab: Vocabulary, drop_unknown: bool = False):
    """One Instance per (sentence, non-conflict aspect term) pair.

    The target span is located through character offsets mapped onto token
    positions; when the offsets land on no token, the target token sequence
    is searched for in the context as a fallback (counted in the report).
    With drop_unknown=True, tokens absent from the vocabulary are removed
    from the context/target and the span is remapped — the policy used when
    scoring new text against a fixed checkpoint vocabulary.  Instances left
    without context, target or span are dropped and counted.

    Returns (instances, report).
    """
    instances = []
    report = BuildReport()
    for review in reviews:
        tokens, spans = tokenize_with_spans(review.text)
        for term in review.terms:
            if term.polarity == CONFLICT_POLARITY:
                report.dropped_conflict += 1
                continue
            if term.polarity is None:
                label = None  # unlabeled input, prediction only
            else:
                label = LABEL_INDEX.get(term.polarity)
                if label is None:
                    warnings.warn(
                        f"unknown polarity {term.polarity!r} for target "
                        f"{term.text!r}; instance dropped"
                    )
                    report.dropped_other_polarity += 1
                    continue
            target_tokens = tokenize(term.text)
            if not tokens or not target_tokens:
                report.dropped_empty += 1
                continue
            overlap = [
                i
                for i, (ts, te) in enumerate(spans)
                if ts < term.end and te > term.start
            ]
            if overlap:
                span = (overlap[0], overlap[-1] + 1)
            else:
                at = _subsequence_at(tokens, target_tokens)
                if at < 0:
                    warnings.warn(
                        f"target {term.text!r} not locatable in "
                        f"{review.text!r}; instance dropped"
                    )
                    report.dropped_unlocatable += 1
                    continue
                report.span_fallbacks += 1
                span = (at, at + len(target_tokens))

            ctx_tokens, tgt_tokens = tokens, target_tokens
            if drop_unknown:
                keep = [t in vocab for t in tokens]
                ctx_tokens = [t for t, k in zip(tokens, keep) if k]
                tgt_tokens = [t for t in target_tokens if t in vocab]
                new_start = sum(keep[: span[0]])
                new_end = new_start + sum(keep[span[0] : span[1]])
                span = (new_start, new_end)
                if not ctx_tokens or not tgt_tokens or span[0] == span[1]:
                    warnings.warn(
                        f"target {term.text!r} lost all known tokens; "
                        "instance dropped"
                    )
                    report.dropped_empty += 1
                    continue
            instances.append(
                Instance(
                    context_tokens=tuple(ctx_tokens),
                    target_tokens=tuple(tgt_tokens),
                    context_ids=vocab.encode(ctx_tokens),
                    target_ids=vocab.encode(tgt_tokens),
                    span=span,
                    label=label,
                    target_text=term.text,
                )
            )
            report.built += 1
    return instances, report


def build_vocab(review_lists) -> Vocabulary:
    """Vocabulary over sentence and target-term tokens of all given review
    lists (pass train and test together for a transductive vocabulary)."""
    vocab = Vocabulary()
    for reviews in review_lists:
        for review in reviews:
            for t in tokenize(review.text):
                vocab.add(t)
            for term in review.terms:
                for t in tokenize(term.text):
                    vocab.add(t)
    return vocab


def fixture_path(category: str, split: str) -> str:
    _check_tags(category, split)
    return os.path.join(
        os.path.dirname(__file__), "fixtures", f"{category}_{split}.xml"
    )


def _check_tags(category, split):
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}, expected {CATEGORIES}")
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}, expected {SPLITS}")


def resolve_data_file(category: str, split: str, data_dir=None):
    """Path of the real corpus file, or None when running in fixture mode.

    data_dir falls back to the SEMEVAL_DATA_DIR environment variable; when a
    directory is given but holds none of the known file names, that is a
    hard error (a half-configured data dir should not silently degrade to
    fixtures).
    """
    _check_tags(category, split)
    data_dir = data_dir if data_dir is not None else os.environ.get(DATA_ENV)
    if not data_dir:
        return None
    candidates = REAL_FILENAMES[(category, split)]
    for name in candidates:
        path = os.path.join(data_dir, name)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(
        f"no {category} {split} file under {data_dir}; looked for {candidates}"
    )


def load_reviews(category: str, split: str, data_dir=None):
    """(reviews, realigned_count) for one split, real data or fixture."""
    path = resolve_data_file(category, split, data_dir)
    if path is None:
        path = fixture_path(category, split)
    return parse_semeval_xml(path)


def load_category(category: str, data_dir=None):
    """Both splits of one category with a shared transductive vocabulary.

    Returns (train_dataset, test_dataset, reports), where reports maps each
    split name to its (BuildReport, realigned offset count).
    """
    train_reviews, train_realigned = load_reviews(category, "train", data_dir)
    test_reviews, test_realigned = load_reviews(category, "test", data_dir)
    vocab = build_vocab([train_reviews, test_reviews])
    train_instances, train_report = build_instances(train_reviews, vocab)
    test_instances, test_report = build_instances(test_reviews, vocab)
    return (
        Dataset(train_instances, vocab, "train", category),
        Dataset(test_instances, vocab, "test", category),
        {"train": (train_report, train_realigned), "test": (test_report, test_realigned)},
    )


# --- statistics ---------------------------------------------------------

# target-length histogram bins: 1..5 words and "more than 5"
HIST_BINS = ("1", "2", "3", "4", "5", ">5")


@dataclass
class DatasetStats:
    category: str
    split: str
    total: int
    polarity_counts: dict = field(default_factory=dict)
    length_hist: tuple = (0, 0, 0, 0, 0, 0)


def target_word_count(target_text: str) -> int:
    """Whitespace word count of the raw annotated term text — the length
    notion behind the published target-length histogram."""
    return len(target_text.split())


def dataset_stats(dataset: Dataset) -> DatasetStats:
    counts = {name: 0 for name in LABELS}
    hist = [0] * 6
    for inst in dataset.instances:
        counts[LABELS[inst.label]] += 1
        words = target_word_count(inst.target_text)
        hist[min(words, 6) - 1] += 1
    return DatasetStats(
        category=dataset.category,
        split=dataset.split,
        total=len(dataset.instances),
        polarity_counts=counts,
        length_hist=tuple(hist),
    )


def render_stats(stats: DatasetStats) -> str:
    """Polarity counts plus the target-length histogram as count/ratio
    cells (ratio of the split total, 4 decimals)."""
    lines = [f"{stats.category} {stats.split}: {stats.total} instances"]
    lines.append(
        "  polarity  " + "  ".join(f"{name} {stats.polarity_counts[name]}" for name in LABELS)
    )
    cells = []
    for name, count in zip(HIST_BINS, stats.length_hist):
        ratio = count / stats.total if stats.total else 0.0
        cells.append(f"{name}: {count}/{ratio:.4f}")
    lines.append("  target length  " + "  ".join(cells))
    return "\n".join(lines)


def dump_instances(instances) -> str:
    """Line-delimited canonical dump for diffing: four tab-separated fields
    per instance — context tokens, target tokens, start:end, label name."""
    lines = []
    for inst in instances:
        label = LABELS[inst.label] if inst.label is not None else "-"
        lines.append(
            "\t".join(
                (
                    " ".join(inst.context_tokens),
                    " ".join(inst.target_tokens),
                    f"{inst.span[0]}:{inst.span[1]}",
                    label,
                )
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
