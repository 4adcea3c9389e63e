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


def _escape(s: str) -> str:
    return (
        s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;").replace("'", "&#39;")
    )


def _pick_article(action: str) -> str:
    return "an" if action[0] in "aeiou" else "a"


def _make_event(rng: random.Random) -> Tuple[str, Dict[str, Any]]:
    """One event sentence + its golden canonical slots."""
    action = rng.choice(G.ACTIONS)
    verb = rng.choice(G.LEAD_VERBS)

    dt = _BASE_TS + timedelta(days=rng.randint(-180, 180))
    date_style = rng.randint(0, 5)
    date_text = G.format_date_text(dt, date_style)
    # Golden slot value follows the REFERENCE's normalization of the surface
    # form (dateutil dayfirst=True, augmentation/main.py:76-84) — e.g. the
    # ambiguous ISO "2025-06-03" normalizes to 06/03/2025 under dayfirst.
    # Computed analytically (sweep-verified == normalize_date) — dateutil in
    # the generator hot loop was 1/3 of page-render cost.
    date_json = G.expected_normalized_date(dt, date_style)

    tdt = dt.replace(hour=rng.randint(7, 20), minute=rng.choice([0, 0, 0, 10, 15, 30, 45, 50]))
    if rng.random() < 0.05:
        tdt = tdt.replace(hour=12, minute=0)
    time_style = rng.randint(0, 5)
    time_text = G.format_time_text(tdt, time_style)
    time_json = G.format_time_json(tdt)

    # attendees: canonical golden + (possibly aliased) surface mention
    attendees_canon: List[str] | None = None
    att_surfaces: List[str] = []
    if rng.random() < 0.6:
        n_att = rng.choices([1, 2, 3], weights=[4, 3, 1])[0]
        attendees_canon = []
        alias_items = sorted(G.PERSON_ALIASES.items())
        for _ in range(n_att):
            if rng.random() < 0.55:
                canon = rng.choice(G.FIRST_NAMES)
                if rng.random() < 0.2:
                    cands = [a for a, c in alias_items if c == canon]
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
        if r2 < 0.15:
            cands = [a for a, c in sorted(G.PLACE_ALIASES.items()) if c == location_canon]
            if cands:
                loc_surface = rng.choice(cands)
        elif r2 < 0.20:
            cands = [a for a, c in sorted(G.FUZZY_SURFACES.items()) if c == location_canon]
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

    slots = {
        "action": action,
        "date": date_json,
        "time": time_json,
        "attendees": attendees_canon,
        "location": location_canon,
        "duration": duration,
        "recurrence": recurrence,
        "notes": notes,
    }
    return sent, slots


def _page_content(i: int, seed: int) -> Tuple[str, List[str], List[Dict[str, Any]], str]:
    """(title, sentences(+boiler), golden event slots, lang) for page i."""
    rng = random.Random(f"pages:{seed}:{i}")
    if rng.random() < 0.05:
        lang = rng.choice(sorted(_NON_EN))
        return rng.choice(_TITLES), [_NON_EN[lang]], [], lang
    title = rng.choice(_TITLES)
    n_events = rng.choices([1, 2, 3], weights=[5, 3, 1])[0]
    body: List[str] = []
    events: List[Dict[str, Any]] = []
    for j in range(n_events):
        sent, slots = _make_event(rng)
        slots["event_ordinal"] = j
        body.append(sent)
        events.append(slots)
    if rng.random() < 0.5:
        body.append(rng.choice(_BOILERPLATE))
    return title, body, events, "en"


def synth_page(i: int, seed: int = 42) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Build page record i plus its golden canonical event-slot records."""
    rng = random.Random(f"page-meta:{seed}:{i}")
    # ~4% exact-content duplicates of the previous page (different url/ts)
    content_ix = i - 1 if (i > 0 and rng.random() < 0.04) else i
    title, body, events, lang = _page_content(content_ix, seed)

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

    page = {"url": url, "warc_ts": warc_ts, "html": html, "text": text, "lang": lang}
    golden = [
        {"url": url, **slots}
        for slots in events
    ]
    return page, golden


def pages_table(indices, seed: int = 42) -> pa.Table:
    """Arrow pages table for the given page indices (batch-generator body)."""
    cols: Dict[str, list] = {"url": [], "warc_ts": [], "html": [], "text": [], "lang": []}
    for i in indices:
        page, _ = synth_page(int(i), seed)
        for k in cols:
            cols[k].append(page[k])
    return pa.table(
        {
            "url": pa.array(cols["url"], pa.string()),
            "warc_ts": pa.array(cols["warc_ts"], pa.timestamp("us")),
            "html": pa.array(cols["html"], pa.binary()),
            "text": pa.array(cols["text"], pa.string()),
            "lang": pa.array(cols["lang"], pa.string()),
        }
    )

