"""Small separable dataset for overfitting tests: the label is fully
determined by one cue word in the sentence."""

from types import SimpleNamespace

from ian.embeddings import Vocabulary

NOUNS = ("food", "service", "pizza", "staff", "decor")
CUES = {0: "good", 1: "fine", 2: "bad"}  # positive, neutral, negative


def synthetic_separable(n=20):
    """Returns (vocab, instances); instance i's label is i % 3."""
    token_lists = []
    raw = []
    for i in range(n):
        label = i % 3
        noun = NOUNS[i % len(NOUNS)]
        cue = CUES[label]
        if i % 2 == 0:
            tokens = ["the", noun, "was", cue]
            span = (1, 2)
        else:
            tokens = ["i", "thought", "the", noun, "was", "really", cue]
            span = (3, 4)
        token_lists.append(tokens)
        raw.append((tokens, span, label, noun))
    vocab = Vocabulary(t for tokens in token_lists for t in tokens)
    instances = []
    for tokens, span, label, noun in raw:
        instances.append(SimpleNamespace(
            context_ids=vocab.encode(tokens),
            target_ids=vocab.encode([noun]),
            span=span,
            label=label,
            context_tokens=tokens,
            target_tokens=[noun],
        ))
    return vocab, instances
