"""Attention-weight visualization.

Renders the per-token attention weights of a forward pass three ways: a
plain-text dump, a static SVG heatmap (one row of boxes per branch, fill
intensity proportional to weight), and a self-contained HTML page that
embeds the SVG plus the dump.  All three encode the exact same formatted
weight strings so they can be diffed against each other.
"""

from __future__ import annotations

import html
import os

from .model import LABELS, chunks, forward


def weight_str(w: float) -> str:
    """Canonical formatting shared by the dump and the SVG."""
    return f"{float(w):.6f}"


def weight_dump(context_tokens, ctx_weights, target_tokens, tgt_weights,
                predicted_label: str) -> str:
    """Plain-text weights, one token per line."""
    lines = [f"predicted\t{predicted_label}"]
    for side, tokens, weights in (("context", context_tokens, ctx_weights),
                                  ("target", target_tokens, tgt_weights)):
        if weights is not None:
            lines.append(f"{side}:")
            lines.extend(f"  {tok}\t{weight_str(w)}" for tok, w in zip(tokens, weights))
    return "\n".join(lines) + "\n"


def _box_row(tokens, weights, label, y, fill):
    """SVG fragment for one row of weight boxes starting at vertical y."""
    parts = [
        f'<text x="10" y="{y + 18}" font-size="13" font-weight="bold" '
        f'fill="#222">{html.escape(label)}</text>'
    ]
    peak = max(float(w) for w in weights)
    x = 10
    box_top = y + 26
    for tok, w in zip(tokens, weights):
        w = float(w)
        width = max(34, 9 * len(tok) + 14)
        opacity = w / peak if peak > 0 else 0.0
        text = weight_str(w)
        parts.append(
            f'<g><title>{html.escape(tok)} {text}</title>'
            f'<rect x="{x}" y="{box_top}" width="{width}" height="34" '
            f'fill="{fill}" fill-opacity="{opacity:.6f}" stroke="#999"/>'
            f'<text x="{x + width / 2}" y="{box_top + 15}" font-size="12" '
            f'text-anchor="middle" fill="#111">{html.escape(tok)}</text>'
            f'<text x="{x + width / 2}" y="{box_top + 29}" font-size="9" '
            f'text-anchor="middle" fill="#333">{text}</text></g>'
        )
        x += width + 4
    return "\n".join(parts), x + 10, box_top + 44


def render_svg(context_tokens, ctx_weights, target_tokens, tgt_weights,
               predicted_label: str) -> str:
    """Static heatmap: context row, target row (when present), prediction."""
    width = 320
    y = 28
    body = [f'<text x="10" y="20" font-size="14" fill="#111">predicted: '
            f"{html.escape(predicted_label)}</text>"]
    for tokens, weights, label, fill in (
            (context_tokens, ctx_weights, "context weights", "#1d5fa8"),
            (target_tokens, tgt_weights, "target weights", "#c2601d")):
        if weights is not None:
            frag, row_w, y = _box_row(tokens, weights, label, y, fill)
            body.append(frag)
            width = max(width, row_w)
    height = y + 6
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def render_html(svg: str, dump: str) -> str:
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        "<title>attention weights</title></head>\n"
        "<body style=\"font-family: sans-serif; background: white;\">\n"
        f"{svg}\n<pre>{html.escape(dump)}</pre>\n</body></html>\n"
    )


def write_attention_files(out_dir, params, instance, basename="attention"):
    """Render one instance's attention and write svg/html/txt files in out_dir.

    Returns (paths dict, predicted label name). The weights come from the
    pass predict_all runs, which keeps no trace, on a chunk of one.
    """
    (_, ctx_idx, tgt_idx, layout), = chunks([instance], keep_trace=False)
    probs, trace = forward(params, ctx_idx, tgt_idx, keep_trace=False, **layout)
    ctx_w, tgt_w = (trace[k][:, 0] if k in trace else None for k in ("ctx_weights", "tgt_weights"))
    predicted = LABELS[int(probs[0].argmax())]
    dump = weight_dump(instance.context_tokens, ctx_w,
                       instance.target_tokens, tgt_w, predicted)
    svg = render_svg(instance.context_tokens, ctx_w,
                     instance.target_tokens, tgt_w, predicted)
    page = render_html(svg, dump)
    paths = {}
    for ext, content in (("svg", svg), ("html", page), ("txt", dump)):
        path = os.path.join(out_dir, f"{basename}.{ext}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        paths[ext] = path
    return paths, predicted
