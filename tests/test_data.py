import os
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ian.data import (
    AspectTerm,
    BuildReport,
    RawReview,
    build_instances,
    build_vocab,
    dataset_stats,
    dump_instances,
    find_term,
    fixture_path,
    load_category,
    load_reviews,
    parse_semeval_xml,
    render_stats,
    resolve_data_file,
    target_word_count,
    tokenize,
    tokenize_with_spans,
)
from ian.embeddings import Vocabulary
from ian.numerics import Rng

# hand-counted expectations for the bundled fixture files:
# {(category, split): (total, {polarity: count}, length histogram 1..5,>5)}
FIXTURE_COUNTS = {
    ("restaurant", "train"): (
        20,
        {"positive": 11, "neutral": 5, "negative": 4},
        (11, 4, 2, 1, 1, 1),
    ),
    ("restaurant", "test"): (
        6,
        {"positive": 2, "neutral": 1, "negative": 3},
        (3, 1, 2, 0, 0, 0),
    ),
    ("laptop", "train"): (
        14,
        {"positive": 4, "neutral": 5, "negative": 5},
        (4, 9, 0, 0, 0, 1),
    ),
    ("laptop", "test"): (
        5,
        {"positive": 2, "neutral": 1, "negative": 2},
        (2, 3, 0, 0, 0, 0),
    ),
}


def words(vocab, ids):
    """The tokens of a sequence of ids under the vocabulary that encoded it."""
    return [vocab.tokens[i] for i in ids]


# --- tokenization -------------------------------------------------------


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("The pizza is not bad,") == ["the", "pizza", "is", "not", "bad", ","]


def test_tokenize_empty_and_whitespace_only():
    assert tokenize("") == []
    assert tokenize("   \t\n ") == []


def test_tokenize_keeps_internal_apostrophes_and_hyphens():
    assert tokenize("Don't re-boot it!") == ["don't", "re-boot", "it", "!"]
    assert tokenize("the chef's so-called best") == ["the", "chef's", "so-called", "best"]
    # trailing apostrophe is not internal
    assert tokenize("the twins' menu") == ["the", "twins", "'", "menu"]


def test_tokenize_splits_symbols_standalone():
    assert tokenize("mac & cheese ($9)") == ["mac", "&", "cheese", "(", "$", "9", ")"]


def test_tokenize_with_spans_offsets_slice_original_text():
    text = "Great pizza, truly."
    tokens, spans = tokenize_with_spans(text)
    assert tokens == ["great", "pizza", ",", "truly", "."]
    for tok, (a, b) in zip(tokens, spans):
        assert text[a:b].lower() == tok


def test_tokenize_idempotent_on_own_output():
    samples = [
        "The waiters were friendly, the garlic bread was bland!",
        "Don't order the so-called 'special' -- trust me...",
        "mac & cheese ($9.50) w/ extra breadcrumbs?!",
        "",
        "a-'b c'' d--e",
    ]
    rng = Rng(3)
    alphabet = list("ab c'-.!&")
    for _ in range(30):
        n = int(rng.integers(0, 25))
        samples.append("".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), n)))
    for s in samples:
        once = tokenize(s)
        again = tokenize(" ".join(once))
        assert again == once, s


# --- parsing ------------------------------------------------------------


# --- properties ---------------------------------------------------------

# derandomized and without an example database: same examples every run
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# letters of both cases (including one whose lowercase is two characters),
# digits, joiners, punctuation and whitespace
TEXT = st.text(alphabet="abAB\u0130\u00df9'-.,$ \t", max_size=30)


@PROPERTY
@given(TEXT)
def test_token_offsets_slice_back_to_the_tokens(text):
    tokens, spans = tokenize_with_spans(text)
    assert tokens == [text[a:b].lower() for a, b in spans]
    assert all(a < b <= c for (a, b), (c, _) in zip(spans, spans[1:] + [(len(text), 0)]))


def _span_term(data, text):
    """A labelled term covering a drawn token range of text, at its offsets."""
    tokens, spans = tokenize_with_spans(text)
    assume(tokens)
    start = data.draw(st.integers(0, len(tokens) - 1))
    end = data.draw(st.integers(start + 1, len(tokens)))
    first, last = spans[start][0], spans[end - 1][1]
    return tokens, AspectTerm(text[first:last], first, last, "positive")


@PROPERTY
@given(TEXT, st.data())
def test_span_tokens_equal_the_term_tokens(text, data):
    tokens, term = _span_term(data, text)
    review = RawReview(text, [term])
    vocab = build_vocab([[review]])
    (inst,), _ = build_instances([review], vocab)
    start, end = inst.span
    context = words(vocab, inst.context_ids)
    assert context == tokens
    assert context[start:end] == tokenize(term.text)
    assert words(vocab, inst.target_ids) == tokenize(term.text)


@PROPERTY
@given(TEXT, st.data())
def test_drop_unknown_span_holds_the_kept_target_tokens(text, data):
    tokens, term = _span_term(data, text)
    known = data.draw(st.sets(st.sampled_from(tokens)))
    kept_target = [t for t in tokenize(term.text) if t in known]
    vocab = Vocabulary(sorted(known))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        instances, report = build_instances([RawReview(text, [term])], vocab,
                                            drop_unknown=True)
    if not kept_target:
        assert instances == [] and report.dropped_empty == 1
        return
    (inst,) = instances
    start, end = inst.span
    context = words(vocab, inst.context_ids)
    assert context == [t for t in tokens if t in known]
    assert context[start:end] == kept_target
    assert words(vocab, inst.target_ids) == kept_target


@pytest.mark.parametrize("text,term,expected", [
    ("The Food and the food", "food", 17),  # exact match beats an earlier Food
    ("The FOOD was good", "food", 4),  # no exact match: case-insensitive
    ("İstanbul FOOD was good", "food", 9),  # "İ" lowercases to two code points
    ("the service was slow", "food", -1),
])
def test_find_term_prefers_an_exact_match(text, term, expected):
    assert find_term(text, term) == expected


def test_parse_fixture_structure():
    reviews, realigned = parse_semeval_xml(fixture_path("restaurant", "train"))
    assert realigned == 0
    # one review per sentence bearing at least one term; the no-term
    # sentence is excluded
    assert len(reviews) == 18
    assert all(review.terms for review in reviews)
    assert len(reviews[0].terms) == 3
    assert sum(len(r.terms) for r in reviews) == 21  # includes 1 conflict


def test_parse_decodes_entities():
    reviews, _ = parse_semeval_xml(fixture_path("restaurant", "train"))
    amped = [r for r in reviews if "&" in r.text]
    assert len(amped) == 1
    term = amped[0].terms[0]
    assert term.text == "mac & cheese"
    assert amped[0].text[term.start : term.end] == term.text


def test_parse_offsets_match_terms_in_all_fixtures():
    for category in ("restaurant", "laptop"):
        for split in ("train", "test"):
            reviews, realigned = parse_semeval_xml(fixture_path(category, split))
            assert realigned == 0
            for review in reviews:
                for term in review.terms:
                    assert review.text[term.start : term.end] == term.text


def test_parse_malformed_xml_raises_with_path(tmp_path):
    bad = tmp_path / "broken.xml"
    bad.write_text("<sentences><sentence><text>no closing", encoding="utf-8")
    with pytest.raises(ValueError, match="broken.xml"):
        parse_semeval_xml(str(bad))


def test_parse_missing_attribute_raises(tmp_path):
    bad = tmp_path / "noattr.xml"
    bad.write_text(
        '<sentences><sentence id="7"><text>The soup was fine.</text>'
        '<aspectTerms><aspectTerm term="soup" from="4" to="8"/></aspectTerms>'
        "</sentence></sentences>",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="sentence 7"):
        parse_semeval_xml(str(bad))


def test_parse_non_integer_offsets_raise(tmp_path):
    bad = tmp_path / "badoff.xml"
    bad.write_text(
        '<sentences><sentence id="9"><text>The soup was fine.</text>'
        '<aspectTerms><aspectTerm term="soup" polarity="neutral" from="x" to="8"/>'
        "</aspectTerms></sentence></sentences>",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="non-integer"):
        parse_semeval_xml(str(bad))


def test_parse_realigns_wrong_offsets_with_warning(tmp_path):
    shifted = tmp_path / "shifted.xml"
    shifted.write_text(
        '<sentences><sentence id="1"><text>The soup was great.</text>'
        '<aspectTerms><aspectTerm term="soup" polarity="positive" from="0" to="4"/>'
        "</aspectTerms></sentence></sentences>",
        encoding="utf-8",
    )
    with pytest.warns(UserWarning, match="realigned"):
        reviews, realigned = parse_semeval_xml(str(shifted))
    assert realigned == 1
    term = reviews[0].terms[0]
    assert (term.start, term.end) == (4, 8)
    assert reviews[0].text[term.start : term.end] == "soup"


def test_parse_unfindable_term_keeps_offsets_and_warns(tmp_path):
    lost = tmp_path / "lost.xml"
    lost.write_text(
        '<sentences><sentence id="1"><text>The soup was great.</text>'
        '<aspectTerms><aspectTerm term="burger" polarity="positive" from="50" to="56"/>'
        "</aspectTerms></sentence></sentences>",
        encoding="utf-8",
    )
    with pytest.warns(UserWarning, match="not found"):
        reviews, realigned = parse_semeval_xml(str(lost))
    assert realigned == 1
    assert reviews[0].terms[0].text == "burger"


# --- instance building --------------------------------------------------


def fixture_dataset(category, split):
    reviews, _ = parse_semeval_xml(fixture_path(category, split))
    vocab = build_vocab([reviews])
    instances, report = build_instances(reviews, vocab)
    return instances, report, vocab


def test_build_counts_and_conflict_drop():
    instances, report, _ = fixture_dataset("restaurant", "train")
    assert len(instances) == 20
    assert report.dropped_conflict == 1
    assert report.span_fallbacks == 0
    assert report.dropped_unlocatable == 0


def test_multi_target_sentence_shares_context():
    instances, _, _ = fixture_dataset("restaurant", "train")
    first = instances[0]
    siblings = [i for i in instances if i.context_ids == first.context_ids]
    assert len(siblings) == 3
    assert [i.span for i in siblings] == [(1, 2), (6, 8), (13, 14)]
    labels = {i.target_text: i.label for i in siblings}
    assert labels == {"waiters": 0, "garlic bread": 2, "patio": 1}


def test_repeated_term_binds_each_occurrence():
    instances, _, _ = fixture_dataset("restaurant", "train")
    pizzas = [i for i in instances if i.target_text == "pizza"]
    assert [i.span for i in pizzas] == [(1, 2), (8, 9)]
    assert pizzas[0].context_ids == pizzas[1].context_ids


def test_span_slice_covers_target_tokens():
    for category, split in FIXTURE_COUNTS:
        instances, _, vocab = fixture_dataset(category, split)
        for inst in instances:
            a, b = inst.span
            assert 0 <= a < b <= len(inst.context_ids)
            # offsets bind the right region: the context slice and the
            # target tokens cover the same text for these fixtures
            assert words(vocab, inst.context_ids[a:b]) == words(vocab, inst.target_ids)


def test_target_round_trips_modulo_case_and_spacing():
    for category, split in FIXTURE_COUNTS:
        instances, _, vocab = fixture_dataset(category, split)
        for inst in instances:
            joined = "".join(words(vocab, inst.target_ids))
            squeezed = "".join(inst.target_text.lower().split())
            assert joined == squeezed


def test_span_fallback_when_offsets_are_junk():
    review = RawReview(
        text="the soup was hot",
        terms=[AspectTerm(text="soup", start=0, end=0, polarity="positive")],
    )
    vocab = build_vocab([[review]])
    instances, report = build_instances([review], vocab)
    assert report.span_fallbacks == 1
    assert instances[0].span == (1, 2)


def test_unlocatable_target_dropped_with_report():
    review = RawReview(
        text="the soup was hot",
        terms=[AspectTerm(text="burger", start=40, end=46, polarity="positive")],
    )
    vocab = build_vocab([[review]])
    with pytest.warns(UserWarning, match="not locatable"):
        instances, report = build_instances([review], vocab)
    assert instances == []
    assert report.dropped_unlocatable == 1


def test_unknown_polarity_dropped_with_report():
    review = RawReview(
        text="the soup was hot",
        terms=[AspectTerm(text="soup", start=4, end=8, polarity="mixed")],
    )
    vocab = build_vocab([[review]])
    with pytest.warns(UserWarning, match="mixed"):
        instances, report = build_instances([review], vocab)
    assert instances == []
    assert report.dropped_other_polarity == 1


def test_drop_unknown_remaps_span():
    known = RawReview(
        text="the soup was great .",
        terms=[AspectTerm(text="soup", start=4, end=8, polarity="positive")],
    )
    vocab = build_vocab([[known]])
    review = RawReview(
        text="the awesome soup was great .",
        terms=[AspectTerm(text="soup", start=12, end=16, polarity="positive")],
    )
    instances, report = build_instances([review], vocab, drop_unknown=True)
    inst = instances[0]
    assert words(vocab, inst.context_ids) == ["the", "soup", "was", "great", "."]
    assert inst.span == (1, 2)
    assert words(vocab, inst.target_ids) == ["soup"]
    assert len(instances) == 1


def test_drop_unknown_drops_fully_unknown_target():
    known = RawReview(
        text="the soup was great",
        terms=[AspectTerm(text="soup", start=4, end=8, polarity="positive")],
    )
    vocab = build_vocab([[known]])
    review = RawReview(
        text="the burger was great",
        terms=[AspectTerm(text="burger", start=4, end=10, polarity="positive")],
    )
    with pytest.warns(UserWarning, match="lost all known tokens"):
        instances, report = build_instances([review], vocab, drop_unknown=True)
    assert instances == []
    assert report.dropped_empty == 1


def test_strict_mode_raises_on_unknown_token():
    vocab = Vocabulary(["the", "soup"])
    review = RawReview(
        text="the soup was hot",
        terms=[AspectTerm(text="soup", start=4, end=8, polarity="positive")],
    )
    with pytest.raises(KeyError):
        build_instances([review], vocab)


# --- statistics ---------------------------------------------------------


def test_target_word_count_uses_whitespace_words():
    assert target_word_count("soup") == 1
    assert target_word_count("mac & cheese") == 3
    assert target_word_count("wine list by the glass") == 5


def test_fixture_stats_match_hand_counts():
    for (category, split), (total, by_label, hist) in FIXTURE_COUNTS.items():
        instances, _, _ = fixture_dataset(category, split)
        stats = dataset_stats(instances)
        assert stats.total == total
        assert stats.polarity_counts == by_label
        assert stats.length_hist == hist


def test_stats_agree_with_bruteforce_recount():
    from ian.model import LABELS

    for category, split in FIXTURE_COUNTS:
        instances, _, _ = fixture_dataset(category, split)
        stats = dataset_stats(instances)
        recount = {name: 0 for name in LABELS}
        hist = [0] * 6
        for inst in instances:
            recount[LABELS[inst.label]] += 1
            n = len(inst.target_text.split())
            hist[n - 1 if n <= 5 else 5] += 1
        assert stats.polarity_counts == recount
        assert list(stats.length_hist) == hist
        assert stats.total == len(instances)
        assert sum(stats.length_hist) == stats.total


def test_stats_on_empty_dataset_are_zero():
    stats = dataset_stats([])
    assert stats.total == 0
    assert all(v == 0 for v in stats.polarity_counts.values())
    assert stats.length_hist == (0, 0, 0, 0, 0, 0)
    assert "0/0.0000" in render_stats(stats, "restaurant train")


def test_render_stats_count_slash_ratio_cells():
    instances, _, _ = fixture_dataset("restaurant", "train")
    text = render_stats(dataset_stats(instances), "restaurant train")
    assert text.startswith("restaurant train: 20 instances\n")
    assert "positive 11" in text
    assert "1: 11/0.5500" in text
    assert ">5: 1/0.0500" in text


# --- dumps and loading --------------------------------------------------


def test_dump_instances_format():
    review = RawReview(
        text="the soup was hot !",
        terms=[AspectTerm(text="soup", start=4, end=8, polarity="negative")],
    )
    vocab = build_vocab([[review]])
    instances, _ = build_instances([review], vocab)
    dump = dump_instances(instances, vocab)
    assert dump == "the soup was hot !\tsoup\t1:2\tnegative\n"
    assert dump_instances([], vocab) == ""


def test_load_category_shares_transductive_vocab():
    train, test, vocab, _ = load_category("laptop")
    assert len(train) == 14 and len(test) == 5
    # transductive: the shared vocabulary encodes the test reviews, as the
    # returned test instances
    reviews, _ = load_reviews("laptop", "test")
    assert build_instances(reviews, vocab)[0] == test


def test_resolve_data_file_env_handling(tmp_path, monkeypatch):
    monkeypatch.delenv("SEMEVAL_DATA_DIR", raising=False)
    assert resolve_data_file("restaurant", "train") is None

    monkeypatch.setenv("SEMEVAL_DATA_DIR", str(tmp_path))
    with pytest.raises(FileNotFoundError, match="restaurant"):
        resolve_data_file("restaurant", "train")

    target = tmp_path / "Restaurants_Train_v2.xml"
    target.write_text("<sentences/>", encoding="utf-8")
    assert resolve_data_file("restaurant", "train") == str(target)

    with pytest.raises(ValueError):
        resolve_data_file("hotel", "train")
    with pytest.raises(ValueError, match="unknown split 'dev'"):
        resolve_data_file("restaurant", "dev")


def test_load_reviews_fixture_mode(monkeypatch):
    monkeypatch.delenv("SEMEVAL_DATA_DIR", raising=False)
    reviews, realigned = load_reviews("restaurant", "test")
    assert len(reviews) == 6
    assert realigned == 0
