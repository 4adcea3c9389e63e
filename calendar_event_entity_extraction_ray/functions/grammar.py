"""Shared surface-form grammar: vocabularies + formatting helpers.

The reference's synthetic-text diversifiers (augmentation/faker_synth.py:10-34
ACTIONS/MEDIUMS/REC_TEXT_PHRASES, :50-97 date/time styles, :216-240 sentence
styles; augmentation/renderers.py:7-12 TEMPLATES) define the surface forms a
calendar-event sentence takes. This module is the single source of truth for
those forms in this engine: the synthetic page generator renders FROM it and
the extractor grammar parses BACK with it (SURVEY.md §2.2 "grammar source",
§7.2 steps 1+3).

Everything here is deterministic data — no RNG, no Ray.
"""

from __future__ import annotations

from datetime import datetime

# --- closed vocabularies ---------------------------------------------------

ACTIONS = [
    "meeting", "call", "lunch", "workshop", "study session", "brainstorm",
    "coffee chat", "sync", "review", "presentation", "kickoff", "demo",
    "check-in", "planning session", "strategy session", "interview",
    "standup", "retrospective", "one-on-one", "dinner", "brunch",
    "game night", "yoga class", "workout", "doctor appointment",
]

LEAD_VERBS = ["Schedule", "Set up", "Add", "Organize", "Arrange", "Plan", "Book"]

# Communication mediums take on/via/over; physical locations take at/in.
MEDIUMS = ["Zoom", "Google Meet", "Teams", "Skype", "Webex", "Slack Huddle"]

# Canonical physical locations. Title-case (generic titlecase pattern in the
# extractor) plus a closed lowercase vocabulary.
PLACES_TITLE = [
    "HQ", "Boardroom", "Meeting Room B", "Conference Room A", "Lobby",
    "Library", "Studio", "City Park", "Beach House", "Community Center",
    "Auditorium", "Conference Hall", "Downtown Cafe", "Riverside Restaurant",
    "Innovation Lab", "Room 204",
]
PLACES_LOWER = [
    "the park", "coffee shop", "bakery", "restaurant", "gym", "arena",
    "sports complex", "my place", "home",
]

# Hub entities (skew knob): a small set repeated across a large fraction of
# pages to exercise salted aggregation (FIXTURES.md F1).
HUB_LOCATIONS = ["HQ", "Zoom"]

FIRST_NAMES = [
    "John", "Elizabeth", "Robert", "William", "Katherine", "Michael",
    "David", "Thomas", "Megan", "Sarah", "James", "Jennifer", "Daniel",
    "Laura", "Andrew", "Priya", "Wei", "Carlos", "Aisha", "Elena",
]
LAST_NAMES = [
    "Smith", "Johnson", "Lee", "Patel", "Garcia", "Chen", "Brown",
    "Wilson", "Khan", "Novak",
]

RECURRENCES = [
    "weekly", "biweekly", "monthly", "quarterly", "annual", "daily",
    "every Monday", "every Tuesday", "every Wednesday", "every Thursday",
    "every Friday", "every other Tuesday", "every 2 weeks",
    "first Monday of each month",
]

NOTES_POOL = [
    "bring slides", "prepare the agenda", "send invites beforehand",
    "review the budget draft", "bring your laptop", "lunch provided",
    "remember the quarterly report", "dial in from the app",
    "RSVP by Friday", "casual dress code",
]

DURATION_MINUTES = [15, 20, 25, 30, 40, 45, 50, 60, 75, 90, 120]
DURATION_UNITS_MIN = ["minutes", "mins"]
DURATION_UNITS_HR = [("hour", "hours"), ("hr", "hrs")]

MONTH_ABBR = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
              "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
MONTH_FULL = ["January", "February", "March", "April", "May", "June",
              "July", "August", "September", "October", "November", "December"]

# Alias dictionary (FIXTURES.md F4): surface form -> (canonical, kind).
# The generator occasionally emits the alias surface; golden truth carries the
# canonical; the linker stage resolves via this broadcast dict (exact,
# case-insensitive) with MinHash/Jaccard blocking as the fuzzy fallback.
PERSON_ALIASES = {
    "Jon": "John", "Johnny": "John",
    "Liz": "Elizabeth", "Beth": "Elizabeth",
    "Bob": "Robert", "Rob": "Robert",
    "Bill": "William", "Will": "William",
    "Kate": "Katherine", "Kathy": "Katherine",
    "Mike": "Michael", "Dave": "David", "Tom": "Thomas",
    "Meg": "Megan", "Jen": "Jennifer", "Dan": "Daniel",
    "Andy": "Andrew", "Jim": "James",
}
PLACE_ALIASES = {
    "zoom": "Zoom", "teams": "Teams", "webex": "Webex", "skype": "Skype",
    "Conf Room A": "Conference Room A", "Mtg Room B": "Meeting Room B",
    "Board Room": "Boardroom", "The Lobby": "Lobby",
    "Comm Center": "Community Center", "Conf Hall": "Conference Hall",
    "Head Quarters": "HQ", "Innov Lab": "Innovation Lab",
}
# Typo surfaces deliberately NOT in the alias dict — only the fuzzy (n-gram
# Jaccard) linking path can resolve these.
FUZZY_SURFACES = {
    "Confrence Room A": "Conference Room A",
    "Comunity Center": "Community Center",
    "Riversde Restaurant": "Riverside Restaurant",
    "Innovaton Lab": "Innovation Lab",
    "Conferene Hall": "Conference Hall",
}


def alias_rows() -> list[dict]:
    """The F4 aliases table: identity rows for canonicals + alias rows."""
    rows = []
    for alias, canon in PERSON_ALIASES.items():
        rows.append({"alias": alias, "canonical": canon, "kind": "person"})
    for alias, canon in PLACE_ALIASES.items():
        rows.append({"alias": alias, "canonical": canon, "kind": "place"})
    return rows


# --- surface formatting (generator side) -----------------------------------

def ordinal_suffix(d: int) -> str:
    ords = {1: "st", 2: "nd", 3: "rd"}
    return ords.get(d if d < 20 else d % 10, "th")


def format_time_json(dt: datetime) -> str:
    """Normalized slot form H:MM AM/PM, no leading zero (faker_synth.py:46-48)."""
    return dt.strftime("%I:%M %p").lstrip("0")


def format_date_text(dt: datetime, style: int) -> str:
    """Parseable date surface forms (subset of faker_synth.py:51-77 styles)."""
    d, m, y = dt.day, dt.month, dt.year
    style = style % 6
    if style == 0:
        return f"{d:02d}/{m:02d}/{y}"
    if style == 1:
        return f"{y}-{m:02d}-{d:02d}"
    if style == 2:
        return f"{d}{ordinal_suffix(d)} {MONTH_FULL[m - 1]} {y}"
    if style == 3:
        return f"{MONTH_FULL[m - 1]} {d}, {y}"
    if style == 4:
        return f"{d} {MONTH_ABBR[m - 1]} {y}"
    return f"{d}-{m:02d}-{y}"


def expected_normalized_date(dt: datetime, style: int) -> str:
    """What ``normalize_date(format_date_text(dt, style))`` returns, computed
    analytically (no dateutil) — the generator's golden-date fast path.

    The only dayfirst ambiguity in the emitted styles is the ISO form
    (style 1, ``Y-m-d``): dateutil with ``dayfirst=True`` swaps day/month
    when both are <= 12. Exhaustively verified against dateutil over the
    full (day, month, year, style) space in
    tests/test_properties.py::TestAnalyticDateFastPath.
    """
    d, m, y = dt.day, dt.month, dt.year
    if style % 6 == 1 and d <= 12:
        return f"{m:02d}/{d:02d}/{y}"
    return f"{d:02d}/{m:02d}/{y}"


def format_time_text(dt: datetime, style: int) -> str:
    """Parseable time surface forms (subset of faker_synth.py:80-97 styles)."""
    h, m = dt.hour, dt.minute
    style = style % 6
    if style == 0:
        return dt.strftime("%I:%M %p").lstrip("0")          # 9:05 AM
    if style == 1 and m == 0:
        return dt.strftime("%I%p").lstrip("0")              # 9AM
    if style == 2 and m == 0:
        return dt.strftime("%I %p").lstrip("0")             # 9 AM
    if style == 3:
        return dt.strftime("%H:%M")                         # 13:05
    if style == 4 and m == 0 and h in (12, 0):
        return "noon" if h == 12 else "midnight"
    if style == 5:
        return dt.strftime("%I:%M%p").lstrip("0")           # 9:05AM
    return dt.strftime("%I:%M %p").lstrip("0")


def location_prep(location: str, pick: int) -> str:
    """Mediums take on/via/over; physical places at/in
    (reference: faker_synth.py:151-156)."""
    surface_canon = PLACE_ALIASES.get(location, FUZZY_SURFACES.get(location, location))
    if location in MEDIUMS or surface_canon in MEDIUMS:
        return ["on", "via", "over"][pick % 3]
    if location in PLACES_LOWER or location[0].islower():
        return ["at", "in"][pick % 2]
    return ["at", "in"][pick % 2]
