"""The kernel fast paths never change a result.

``EventGrammar.extract_sentence`` runs a search only when a literal its
pattern needs is present, and starts the date and time searches where a
match can first begin. It must equal ``_reference``: the same compiled
patterns, in the same order, each searched over the whole string. Likewise
``html_to_text`` skips the tag strip and the unescape for blocks without
``<`` or ``&`` and collapses whitespace with ``str.split``; it must equal
the frozen rule spelled out with ``re``.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys

import pytest

from calendar_event_entity_extraction_ray.functions import grammar as G
from calendar_event_entity_extraction_ray.functions import htmltext
from calendar_event_entity_extraction_ray.functions.extract import (
    _DIGIT_RE,
    EventGrammar,
)
from calendar_event_entity_extraction_ray.functions.normalize import (
    normalize_date,
    normalize_time,
)
from calendar_event_entity_extraction_ray.sources.pages import (
    _draw_event,
    pages_table,
)

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden_frozen.json")
_SLOTS = ("action", "date", "time", "attendees", "location", "duration",
          "recurrence", "notes")


def _reference(g: EventGrammar, sentence: str):
    """``extract_sentence`` without the guards."""
    s = sentence
    if not g.date_re.search(s) and not g.time_re.search(s):
        return None
    out = dict.fromkeys(_SLOTS)
    for pattern, slot, value in (
            (g.note_re, "notes", lambda m: m.group(1)),
            (g.rec_re, "recurrence", lambda m: m.group(1)),
            (g.dur_re, "duration", lambda m: m.group(1)),
            (g.att_re, "attendees", lambda m: m.group(1).split(", ")),
            (g.date_re, "date", lambda m: normalize_date(m.group(1))),
            (g.time_re, "time", lambda m: normalize_time(m.group(1))),
            (g.loc_re, "location", lambda m: m.group(1))):
        m = pattern.search(s)
        if m:
            out[slot] = value(m)
            s = s[: m.start()] + s[m.end():]
    m = g.action_re.search(s)
    if m:
        out["action"] = m.group(1).lower()
    return out


ADVERSARIAL = [
    "",
    "Upcoming Events",
    "Contact the front desk if you have questions.",
    # whitespace other than " " before the clause keywords
    "Book a call on 12/03/2025 at 9 AM\trepeating weekly\tfor 30 mins",
    "Book a call on 12/03/2025 at 9 AM\nwith Ann Lee\nrepeating daily",
    "Book a call on 12/03/2025 at 9 AM\xa0with Ann\xa0for 2 hours",
    "Book a call on 12/03/2025 at 9 AM repeating monthly for 1 hr",
    "Plan a demo at 9 AM repeating\tweekly for\t30 mins with\tAnn",
    # case variants the case-sensitive literals must not skip wrongly
    "Add a sync on 3 May 2025 at 10:00 (Note: bring slides)",
    "Add a sync on 3 May 2025 at 10:00 (NOTE: bring slides).",
    "Add a sync at Noon", "Add a sync at NOON", "Add a sync at noon",
    "Add a sync at midnight", "Add a sync in the afternoon",
    "Add a sync at Midnight on May 3, 2025",
    # non-ASCII decimal digits (the grammar's \\d is Unicode)
    "Book a lunch on ١٢/٠٣/٢٠٢٥ at ٩:٣٠ AM",
    "Book a lunch on ２０２５-０３-１２ at １０:１５",
    "Book a lunch on 12 March ２０２５ at 10am",
    # a date or time only inside a removed clause
    "Book a lunch (note: moved to 12/03/2025).",
    "Book a lunch (note: at 9 AM) with Ann.",
    "Plan a review for 45 minutes (note: noon)",
    # a clause removal joins text into a new literal
    "Meet no (note: x)on with Ann",
    "Meet mid (note: x)night at HQ",
    "Meet no (note: x)on at 9AM", "Meet mid (note: x)night on 01/02/2025",
    "Meet at 1 (note: x)2/03/2025 at HQ",
    "Book a demo repea (note: x)ting weekly on 01/02/2025",
    "Book a demo wi (note: x)th Ann Lee on 01/02/2025",
    "Book a demo f (note: x)or 30 mins on 01/02/2025",
    # the date and time searches' start bounds, exactly and one past
    "on September 5, 2025", "xon September 5, 2025",
    " on September 15, 2025 at 9AM", "on Sept 5, 2025",
    "Meet on May 5, 2025", "Meet at 9AM", "Meet xat 9AM", "at noon",
    "7 and on September 5, 2025", "on 5th September, 2025 at 17:05",
    "Room 204 on December 31, 2024 at 12 pm for 90 mins",
    "Schedule a call at 5 then on 2025-06-03 at 9:05 AM",
]


def _generator_sentences() -> list:
    lines = [line for text in pages_table(range(1500), seed=3)
             .column("text").to_pylist() for line in text.split("\n")]
    rng = random.Random("prefilter")
    return lines + [_draw_event(rng)[0] for _ in range(5000)]


_TOKENS = (["on ", "at ", "with ", "for ", "repeating ", "(note: ", ")",
            "noon", "midnight", "no", "on", "mid", "night", "Ann", "Lee",
            ", ", "weekly", "30 mins", "2 hours", "AM", "pm", ":", "/", "-",
            "st", "2025", "٢", "５", "\t", "\n", "\xa0", " ", "  ", "Room"]
           + G.MONTH_FULL[:4] + G.MONTH_ABBR[:4]
           + [str(i) for i in range(13)])


def _fuzz_sentences(n: int) -> list:
    rng = random.Random(17)
    return ["".join(rng.choice(_TOKENS) for _ in range(rng.randint(1, 24)))
            for _ in range(n)]


class TestGrammarPrefilter:
    g = EventGrammar()

    def _check(self, sentences):
        for s in sentences:
            assert self.g.extract_sentence(s) == _reference(self.g, s), s

    def test_frozen_sentences(self):
        with open(_GOLDEN, encoding="utf-8") as f:
            cases = json.load(f)["extract_and_link"]
        assert len(cases) == 31
        self._check([c["sentence"] for c in cases])

    def test_generator_sentences(self):
        sentences = _generator_sentences()
        assert len(sentences) >= 5000
        self._check(sentences)

    def test_adversarial_lines(self):
        self._check(ADVERSARIAL)
        # the guards do see these: each one is an event to the reference
        for s in ("Add a sync at noon", "Book a lunch on ١٢/٠٣/٢٠٢٥",
                  "Book a lunch on ２０２５-０３-１２", "on September 5, 2025"):
            assert _reference(self.g, s) is not None, s

    def test_fuzzed_token_soup(self):
        self._check(_fuzz_sentences(4000))

    def test_bounded_searches_return_the_leftmost_match(self):
        """``_date``/``_time`` find the span a whole-string search finds,
        including the "on "/"at " a later clause test could see."""
        span = lambda m: m and m.span()  # noqa: E731
        for s in ADVERSARIAL + _generator_sentences() + _fuzz_sentences(4000):
            d = _DIGIT_RE.search(s)
            assert span(self.g._date(s, d)) == span(self.g.date_re.search(s)), s
            assert span(self.g._time(s, d)) == span(self.g.time_re.search(s)), s


def _frozen_rule(html: str) -> str:
    """The S1 rule with every step run unconditionally."""
    html = htmltext._DROP_RE.sub("", html)
    parts = []
    for m in htmltext._BLOCK_RE.finditer(html):
        inner = htmltext._TAG_RE.sub(" ", m.group(2))
        inner = re.sub(r"\s+", " ", htmltext._unescape(inner)).strip()
        if inner:
            parts.append(inner)
    return "\n".join(parts)


class TestHtmlFastPath:
    WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1)
                  if chr(c).isspace()]

    @pytest.mark.parametrize("inner", [
        "plain text", "", " ", "a &amp;lt; b", "&lt;b&gt;not a tag&lt;/b&gt;",
        "x <b>bold</b> y", "<i></i>", "tab\there", "&#39;q&quot;",
        "&amp;amp;", "a\xa0 b\x1c\x1dc", "　lead and trail　",
    ])
    def test_block_equals_the_frozen_rule(self, inner):
        html = f"<html><body><p>{inner}</p><li> {inner} </li></body></html>"
        assert htmltext.html_to_text(html) == _frozen_rule(html)

    def test_every_whitespace_code_point(self):
        rng = random.Random(5)
        for ws in self.WHITESPACE:
            body = "".join(rng.choice(["a", "b", ws, ws + ws, "&amp;", "<br>"])
                           for _ in range(12))
            html = f"<h1>{ws}{body}{ws}</h1><p>x{ws}y</p>"
            assert htmltext.html_to_text(html) == _frozen_rule(html), hex(
                ord(ws))

    def test_generated_pages(self):
        for html in pages_table(range(300), seed=9).column("html").to_pylist():
            assert htmltext.html_to_text(html) == _frozen_rule(html.decode())
