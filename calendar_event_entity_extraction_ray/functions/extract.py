"""Event mention detection: sentence -> 8-slot record (S2 kernel).

Replaces the reference's fine-tuned-LLM extractor with a deterministic
regex/grammar parser over the surface forms in ``grammar.py`` (the reference's
own text diversifiers, augmentation/faker_synth.py:50-240, define those
forms). Slot semantics — 8 keys, None for missing, date/time normalized per
augmentation/main.py:76-96 — are identical to the reference's output schema.

``EventGrammar`` compiles all patterns once; in the distributed pipeline it is
constructed once per Ray worker process (``ExtractEvents.__init__`` behind
the task-form instance cache), never per batch.

Parse strategy per sentence (clauses are removed as they are recognized, so
later, looser patterns cannot re-match earlier spans; each search first checks
the current sentence for a literal it needs, a Hyperscan-style prefilter):

    1. ``(note: ...)``            -> notes      needs "(note: "
    2. ``repeating <vocab>``      -> recurrence needs "repeating " (closed vocab)
    3. ``for <N unit>``           -> duration   needs "for "
    4. ``with <Name>, <Name>...`` -> attendees  needs "with "
    5. ``[on] <date-form>``       -> date       needs a \\d (normalize_date)
    6. ``[at] <time-form>``       -> time       needs a \\d, noon or midnight
    7. ``at|in|on|via|over <Loc>``-> location (surface form; linked later)
    8. ``<verb> a <action>``      -> action (closed vocabulary)

A sentence yields an event iff it contains a date or time mention; headline /
nav / footer lines therefore never produce events.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

from calendar_event_entity_extraction_ray import TARGET_KEYS
from calendar_event_entity_extraction_ray.functions import grammar as G
from calendar_event_entity_extraction_ray.functions.normalize import (
    normalize_date,
    normalize_time,
)


def _alt(words) -> str:
    """Alternation, longest-first so multi-word vocab wins over prefixes."""
    return "|".join(re.escape(w) for w in sorted(words, key=len, reverse=True))


_MONTH_ALT = _alt(G.MONTH_FULL + G.MONTH_ABBR)
_NAME = r"[A-Z][a-z]+(?: [A-Z][a-z]+)?"

_DATE_FORMS = (
    r"\d{4}-\d{1,2}-\d{1,2}"
    r"|\d{1,2}-\d{1,2}-\d{4}"
    r"|\d{1,2}/\d{1,2}/\d{4}"
    rf"|\d{{1,2}}(?:st|nd|rd|th)?,? (?:{_MONTH_ALT}) \d{{4}}"
    rf"|(?:{_MONTH_ALT}) \d{{1,2}}, \d{{4}}"
)
_TIME_FORMS = (
    r"\d{1,2}:\d{2}\s?(?:AM|PM|am|pm)"
    r"|\d{1,2}\s?(?:AM|PM|am|pm)"
    r"|\d{1,2}:\d{2}"
    r"|noon|midnight"
)


# Date/time searches start where a match can first begin: a date match has a
# digit <= _DATE_BACK chars in, a time match a digit, noon or midnight <= 3
# in; search(s, pos) still reads s[pos - 1] for \b, so the match is the same.
_DIGIT_RE = re.compile(r"\d")  # the grammar's Unicode \d
_DATE_BACK = len("on ") + max(map(len, G.MONTH_FULL + G.MONTH_ABBR)) + 1
_TIME_BACK = len("at ")


class EventGrammar:
    """Compiled grammar; construct once per process."""

    def __init__(self) -> None:
        self.note_re = re.compile(r"\s*\(note: (.*?)\)")
        self.rec_re = re.compile(rf"\s+repeating ({_alt(G.RECURRENCES)})\b")
        self.dur_re = re.compile(
            r"\s+for (\d+\s?(?:minutes|mins|minute|min|hours|hrs|hour|hr))\b"
        )
        self.att_re = re.compile(rf"\s+with ({_NAME}(?:, {_NAME})*)\b")
        self.date_re = re.compile(rf"(?:\bon )?\b({_DATE_FORMS})\b")
        self.time_re = re.compile(rf"(?:\bat )?\b({_TIME_FORMS})\b")
        lower_locs = list(G.PLACES_LOWER) + [
            a for a in G.PLACE_ALIASES if a[0].islower()
        ]
        title = r"[A-Z][\w'&-]*(?: [A-Z0-9][\w'&-]*)*"
        self.loc_re = re.compile(
            rf"\s+(?:at|in|on|via|over) ({_alt(lower_locs)}|{title})"
        )
        self.action_re = re.compile(
            rf"\b(?:{_alt(G.LEAD_VERBS)}) an? ({_alt(G.ACTIONS)})\b",
            re.IGNORECASE,
        )

    def extract_sentence(self, sentence: str) -> Optional[Dict[str, Any]]:
        """Parse one sentence into the 8-slot dict, or None if no event."""
        s = sentence
        d = _DIGIT_RE.search(s)
        if not self._date(s, d) and not self._time(s, d):
            return None

        out: Dict[str, Any] = dict.fromkeys(TARGET_KEYS)

        m = "(note: " in s and self.note_re.search(s)
        if m:
            out["notes"] = m.group(1)
            s = s[: m.start()] + s[m.end():]

        m = "repeating " in s and self.rec_re.search(s)
        if m:
            out["recurrence"] = m.group(1)
            s = s[: m.start()] + s[m.end():]

        m = "for " in s and self.dur_re.search(s)
        if m:
            out["duration"] = m.group(1)
            s = s[: m.start()] + s[m.end():]

        m = "with " in s and self.att_re.search(s)
        if m:
            out["attendees"] = m.group(1).split(", ")
            s = s[: m.start()] + s[m.end():]

        m = self._date(s, _DIGIT_RE.search(s))
        if m:
            out["date"] = normalize_date(m.group(1))
            s = s[: m.start()] + s[m.end():]

        m = self._time(s, _DIGIT_RE.search(s))
        if m:
            out["time"] = normalize_time(m.group(1))
            s = s[: m.start()] + s[m.end():]

        m = self.loc_re.search(s)
        if m:
            out["location"] = m.group(1)
            s = s[: m.start()] + s[m.end():]

        m = self.action_re.search(s)
        if m:
            out["action"] = m.group(1).lower()

        return out

    def _date(self, s: str, d) -> Optional[re.Match]:
        """``date_re.search(s)``; ``d`` is ``_DIGIT_RE.search(s)``."""
        return d and self.date_re.search(s, max(0, d.start() - _DATE_BACK))

    def _time(self, s: str, d) -> Optional[re.Match]:
        """``time_re.search(s)``; ``d`` is ``_DIGIT_RE.search(s)``."""
        firsts = [i for i in (s.find("noon"), s.find("midnight"),
                              d.start() if d else -1) if i >= 0]
        if not firsts:
            return None
        return self.time_re.search(s, max(0, min(firsts) - _TIME_BACK))

    def extract_page(self, text: str) -> List[Dict[str, Any]]:
        """Extract all events from page text (one sentence per line).

        ``event_ordinal`` counts events in document order — it is the basis of
        the deterministic ``event_id = hash(url, ordinal)``.
        """
        events: List[Dict[str, Any]] = []
        if not text:
            return events
        for line in text.split("\n"):
            slots = self.extract_sentence(line)
            if slots is not None:
                slots["event_ordinal"] = len(events)
                events.append(slots)
        return events
