"""Deterministic synthetic Common-Crawl-style page generator (FIXTURES.md F1).

Each page is a pure function of ``(seed, page index)`` — no global RNG, no
wall clock — so the generator runs identically on the driver (unit tests),
inside distributed ``map_batches`` over ``ray.data.range(n)`` (bench-scale
fixtures), and across resume/retry. Surface forms come from the shared
grammar (``functions/grammar.py``), which mirrors the reference's text
diversifiers (augmentation/faker_synth.py:50-240, renderers.py:7-12).

Produces, per page:
  - the pages record ``(url, warc_ts, html, text, lang)`` where ``text`` is
    the golden byte-identical extraction target, and
  - the golden event-slot records with CANONICAL entities (post-linking
    ground truth for the P/R >= 0.95 gate).
``synth_page`` returns both; ``pages_table`` (the pipeline's source) makes
the same draws but renders the records only, with no golden slots.

Knobs baked in (SURVEY.md §7, FIXTURES.md):
  - hub-entity skew: ~30% of events land on HUB_LOCATIONS ("HQ", "Zoom");
  - alias/typo surfaces: ~20% of attendee mentions and ~20% of location
    mentions use an alias (dict-resolvable) or typo (fuzzy-resolvable)
    surface form while the golden slot stays canonical;
  - ~4% duplicate-content pages (same text, different url) for dedup ops;
  - ~5% non-"en" pages, which the pipeline's language filter must drop.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta
from typing import Any, Dict, List, Tuple

import pyarrow as pa

from calendar_event_entity_extraction_ray.functions import grammar as G

_BASE_TS = datetime(2025, 3, 1, 0, 0, 0)

_BOILERPLATE = [
    "Contact the front desk if you have questions.",
    "All sessions are open to members.",
    "See our website to learn more.",
    "Registration details will follow soon.",
]

_TITLES = [
    "Upcoming Events", "Community Newsletter", "Team Calendar Updates",
    "This Week's Schedule", "Announcements", "Office Bulletin",
]

_NON_EN = {
    "de": "Willkommen auf unserer Seite. Der Kalender ist derzeit nicht verfügbar und die Termine folgen bald.",
    "fr": "Bienvenue sur notre site. Le calendrier est indisponible pour le moment et les rendez-vous suivront.",
    "es": "Bienvenido a nuestro sitio. El calendario no está disponible y las citas llegarán pronto.",
}
_COLUMNS = ("url", "warc_ts", "html", "text", "lang")
_TYPES = (pa.string(), pa.timestamp("us"), pa.binary(), pa.string(), pa.string())


def _escape(s: str) -> str:
    return (
        s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;").replace("'", "&#39;")
    )


def _pick_article(action: str) -> str:
    return "an" if action[0] in "aeiou" else "a"


def _alias_candidates(aliases: Dict[str, str]) -> Dict[str, List[str]]:
    """canonical -> its alias surfaces, in sorted-alias order."""
    return {c: [a for a in sorted(aliases) if aliases[a] == c] for c in aliases.values()}


_PERSON_CANDS = _alias_candidates(G.PERSON_ALIASES)
_PLACE_CANDS = _alias_candidates(G.PLACE_ALIASES)
_FUZZY_CANDS = _alias_candidates(G.FUZZY_SURFACES)


def _draw_event(rng: random.Random) -> Tuple[str, Dict[str, Any]]:
    """One event sentence + its slot draws (date/time raw: ``_golden_slots``)."""
    action = rng.choice(G.ACTIONS)
    verb = rng.choice(G.LEAD_VERBS)

    dt = _BASE_TS + timedelta(days=rng.randint(-180, 180))
    date_style = rng.randint(0, 5)
    date_text = G.format_date_text(dt, date_style)

    tdt = dt.replace(hour=rng.randint(7, 20), minute=rng.choice((0, 0, 0, 10, 15, 30, 45, 50)))
    if rng.random() < 0.05:
        tdt = tdt.replace(hour=12, minute=0)
    time_style = rng.randint(0, 5)
    time_text = G.format_time_text(tdt, time_style)

    # attendees: canonical golden + (possibly aliased) surface mention
    attendees_canon: List[str] | None = None
    att_surfaces: List[str] = []
    if rng.random() < 0.6:
        n_att = rng.choices((1, 2, 3), cum_weights=(4, 7, 8))[0]
        attendees_canon = []
        for _ in range(n_att):
            if rng.random() < 0.55:
                canon = rng.choice(G.FIRST_NAMES)
                if rng.random() < 0.2:
                    cands = _PERSON_CANDS.get(canon)
                    surface = rng.choice(cands) if cands else canon
                else:
                    surface = canon
            else:
                canon = f"{rng.choice(G.FIRST_NAMES)} {rng.choice(G.LAST_NAMES)}"
                surface = canon
            attendees_canon.append(canon)
            att_surfaces.append(surface)

    # location: hub skew + alias/typo surfaces
    location_canon: str | None = None
    loc_surface: str | None = None
    if rng.random() < 0.85:
        r = rng.random()
        if r < 0.30:
            location_canon = rng.choice(G.HUB_LOCATIONS)
        elif r < 0.55:
            location_canon = rng.choice(G.MEDIUMS)
        elif r < 0.90:
            location_canon = rng.choice(G.PLACES_TITLE)
        else:
            location_canon = rng.choice(G.PLACES_LOWER)
        loc_surface = location_canon
        r2 = rng.random()
        cands = (_PLACE_CANDS.get(location_canon) if r2 < 0.15
                 else _FUZZY_CANDS.get(location_canon) if r2 < 0.20
                 else None)
        if cands:
            loc_surface = rng.choice(cands)

    duration: str | None = None
    if rng.random() < 0.5:
        mins = rng.choice(G.DURATION_MINUTES)
        if mins % 60 == 0 and rng.random() < 0.5:
            h = mins // 60
            sing, plur = rng.choice(G.DURATION_UNITS_HR)
            duration = f"{h} {sing if h == 1 else plur}"
        else:
            duration = f"{mins} {rng.choice(G.DURATION_UNITS_MIN)}"

    recurrence = rng.choice(G.RECURRENCES) if rng.random() < 0.35 else None
    notes = rng.choice(G.NOTES_POOL) if rng.random() < 0.35 else None

    att_clause = f" with {', '.join(att_surfaces)}" if att_surfaces else ""
    loc_clause = ""
    if loc_surface is not None:
        prep = G.location_prep(loc_surface, rng.randint(0, 5))
        loc_clause = f" {prep} {loc_surface}"
    dur_clause = f" for {duration}" if duration else ""
    rec_clause = f" repeating {recurrence}" if recurrence else ""
    note_clause = f" (note: {notes})" if notes else ""
    art = _pick_article(action)

    style = rng.randint(0, 3)
    if style == 0:
        sent = (f"{verb} {art} {action}{loc_clause} on {date_text} at {time_text}"
                f"{att_clause}{dur_clause}{rec_clause}{note_clause}.")
    elif style == 1:
        sent = (f"Please {verb.lower()} {art} {action} on {date_text} at {time_text}"
                f"{att_clause}{loc_clause}{dur_clause}{rec_clause}{note_clause}.")
    elif style == 2:
        sent = (f"{verb} {art} {action}{att_clause} on {date_text} at {time_text}"
                f"{loc_clause}{dur_clause}{rec_clause}{note_clause}.")
    else:
        sent = (f"Could you {verb.lower()} {art} {action}{loc_clause} on {date_text}"
                f" at {time_text}{att_clause}{dur_clause}{rec_clause}{note_clause}?")

    return sent, {
        "action": action,
        "date": (dt, date_style),  # normalized by _golden_slots
        "time": tdt,
        "attendees": attendees_canon,
        "location": location_canon,
        "duration": duration,
        "recurrence": recurrence,
        "notes": notes,
    }


def _golden_slots(draws: Dict[str, Any]) -> Dict[str, Any]:
    """Golden slots of one ``_draw_event``; the date is the REFERENCE's dayfirst
    normalization (augmentation/main.py:76-84), computed without dateutil."""
    return {**draws, "date": G.expected_normalized_date(*draws["date"]),
            "time": G.format_time_json(draws["time"])}


def _page_content(i: int, seed: int) -> Tuple[str, List[str], List[Dict[str, Any]], str]:
    """(title, sentences(+boiler), event draws, lang) for page i."""
    rng = random.Random(f"pages:{seed}:{i}")
    if rng.random() < 0.05:
        lang = rng.choice(sorted(_NON_EN))
        return rng.choice(_TITLES), [_NON_EN[lang]], [], lang
    title = rng.choice(_TITLES)
    n_events = rng.choices((1, 2, 3), cum_weights=(5, 8, 9))[0]
    body: List[str] = []
    draws: List[Dict[str, Any]] = []
    for _ in range(n_events):
        sent, d = _draw_event(rng)
        body.append(sent)
        draws.append(d)
    if rng.random() < 0.5:
        body.append(rng.choice(_BOILERPLATE))
    return title, body, draws, "en"


def _render(i: int, seed: int) -> Tuple[tuple, List[Dict[str, Any]]]:
    """Page i as a ``_COLUMNS`` row, plus its events' draws."""
    rng = random.Random(f"page-meta:{seed}:{i}")
    # ~4% exact-content duplicates of the previous page (different url/ts)
    content_ix = i - 1 if (i > 0 and rng.random() < 0.04) else i
    title, body, draws, lang = _page_content(content_ix, seed)

    url = f"https://site{i % 101}.example.org/events/{i}"
    warc_ts = _BASE_TS + timedelta(seconds=i * 37 + (i % 13))
    text = "\n".join([title] + body)

    paras = "\n".join(f"<p>{_escape(s)}</p>" for s in body)
    html = (
        "<html><head><title>" + _escape(title) + "</title>"
        "<style>body { font-family: sans-serif; }</style></head><body>\n"
        "<nav><ul><li>Home</li><li>Events</li><li>About</li></ul></nav>\n"
        f"<h1>{_escape(title)}</h1>\n{paras}\n"
        f"<footer>&copy; 2025 site{i % 101}.example.org</footer>\n"
        "</body></html>"
    ).encode("utf-8")
    return (url, warc_ts, html, text, lang), draws


def synth_page(i: int, seed: int = 42) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Build page record i plus its golden canonical event-slot records."""
    row, draws = _render(i, seed)
    page = dict(zip(_COLUMNS, row))
    return page, [{"url": page["url"], **_golden_slots(d), "event_ordinal": j}
                  for j, d in enumerate(draws)]


def pages_table(indices, seed: int = 42) -> pa.Table:
    """Arrow pages table for the given page indices (batch-generator body):
    rows equal ``synth_page(i)[0]``, rendered without the golden slots."""
    rows = [_render(int(i), seed)[0] for i in indices]
    cols = list(zip(*rows)) or [()] * len(_COLUMNS)
    return pa.table({name: pa.array(col, typ) for name, col, typ
                     in zip(_COLUMNS, cols, _TYPES)})
