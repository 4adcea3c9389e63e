"""Deterministic HTML -> text extraction (S1).

The per-row invariant of this engine (BASELINE.json ``input_hint``) is
byte-identical extracted text per url. We therefore implement extraction
ourselves — no external HTML library whose version drift could change bytes
(SURVEY.md §7.3 hard part (e)) — and freeze its behavior with golden bytes in
tests.

Rule (frozen): the text of a page is the concatenation of the inner text of
every ``<h1>``, ``<h2>``, ``<h3>``, ``<p>`` and ``<li>`` element, in document
order, joined by a single ``"\\n"``. Inner markup tags are stripped; the five
HTML entities ``&amp; &lt; &gt; &quot; &#39;`` are unescaped (amp last);
whitespace inside an element is collapsed to single spaces and stripped.
``<script>``/``<style>``/``<nav>``/``<footer>``/``<header>`` content never
contributes (their block elements are removed before scanning).
"""

from __future__ import annotations

import re

_DROP_RE = re.compile(
    r"<(script|style|nav|footer|header)\b[^>]*>.*?</\1\s*>",
    re.IGNORECASE | re.DOTALL,
)
_BLOCK_RE = re.compile(
    r"<(h1|h2|h3|p|li)\b[^>]*>(.*?)</\1\s*>",
    re.IGNORECASE | re.DOTALL,
)
_TAG_RE = re.compile(r"<[^>]+>")

_ENTITIES = [
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&amp;", "&"),  # must be last
]


def _unescape(s: str) -> str:
    for ent, ch in _ENTITIES:
        s = s.replace(ent, ch)
    return s


def html_to_text(html: bytes | str | None) -> str:
    """Extract page text; deterministic, pure, frozen."""
    if html is None:
        return ""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    html = _DROP_RE.sub("", html)
    parts = []
    for m in _BLOCK_RE.finditer(html):
        inner = m.group(2)
        inner = _TAG_RE.sub(" ", inner) if "<" in inner else inner
        inner = _unescape(inner) if "&" in inner else inner
        # == re.sub(r"\s+", " ", inner).strip(): both use str.isspace
        inner = " ".join(inner.split())
        if inner:
            parts.append(inner)
    return "\n".join(parts)
