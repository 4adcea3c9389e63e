"""Text analysis kernels: language-ID, quality scoring, token counting,
document fingerprinting.

Large-scale training-data-pipeline operators (beyond the reference's own
inventory). All are vectorizable per batch; the scalar versions here are the
unit-tested semantics, and ``stages/text_analysis.py`` applies them with
pandas/pyarrow vectorization where possible.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict

# BPE-ish pre-tokenizer: word pieces, numbers, or single non-space symbols
# (the common GPT-2-style pre-tokenization regex family, simplified).
_BPE_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]")

_STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "it", "for", "on", "that", "with", "as", "at"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "eine", "zu", "mit", "auf", "für"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "de", "du", "des", "pour", "avec", "que"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "de", "del", "para", "con", "que"},
}


def bpe_ish_token_count(text: str | None) -> int:
    return len(_BPE_RE.findall(text or ""))


def detect_lang(text: str | None) -> str:
    """Stopword-overlap heuristic language ID; 'und' when nothing matches."""
    toks = set((text or "").lower().split())
    if not toks:
        return "und"
    best, best_n = "und", 0
    for lang in sorted(_STOPWORDS):
        n = len(toks & _STOPWORDS[lang])
        if n > best_n:
            best, best_n = lang, n
    return best


def quality_scores(text: str | None) -> Dict[str, float]:
    """Length / punctuation / alpha / stopword-ratio quality features."""
    t = text or ""
    n = len(t)
    if n == 0:
        return {"n_chars": 0.0, "alpha_ratio": 0.0, "punct_ratio": 0.0,
                "stop_ratio": 0.0, "mean_word_len": 0.0}
    alpha = sum(c.isalpha() for c in t)
    punct = sum(not c.isalnum() and not c.isspace() for c in t)
    words = t.lower().split()
    stops = sum(w in _STOPWORDS["en"] for w in words)
    return {
        "n_chars": float(n),
        "alpha_ratio": alpha / n,
        "punct_ratio": punct / n,
        "stop_ratio": stops / len(words) if words else 0.0,
        "mean_word_len": sum(len(w) for w in words) / len(words) if words else 0.0,
    }


def rolling_fingerprint(text: str | None, window: int = 8, keep_mod: int = 16) -> str:
    """Winnowing-style document fingerprint: rolling md5 over byte windows,
    keep hashes ≡ 0 (mod keep_mod), xor-fold to one hex digest."""
    data = (text or "").encode("utf-8")
    if len(data) < window:
        return hashlib.md5(data).hexdigest()[:16]
    acc = 0
    for i in range(len(data) - window + 1):
        h = int.from_bytes(hashlib.md5(data[i : i + window]).digest()[:8], "little")
        if h % keep_mod == 0:
            acc ^= h
    return f"{acc:016x}"
