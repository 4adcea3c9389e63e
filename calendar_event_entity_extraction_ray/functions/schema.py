"""Record shape and defensive coercion.

Pins the reference's fixed 8-slot record shape and its null semantics:
  - canonical key list (reference: augmentation/utils.py:8)
  - ``json`` -> ``output`` key alias + projection onto the 8 keys
    (reference: augmentation/utils.py:28-33 ``canonicalize_output``)
  - missing keys filled with None (reference: augmentation/main.py:99-100,
    src/data.py:13-14, src/validate_json.py:8-9)
  - empty string coerced to null (reference: augmentation/augmentors.py:51-61
    ``ensure_output_schema_row``)
"""

from __future__ import annotations

from typing import Any, Dict

from calendar_event_entity_extraction_ray import TARGET_KEYS


# ---------------------------------------------------------------------------
# Row-level coercion (the oracle / unit-test path; the distributed pipeline
# applies the same rules vectorized inside map_batches)
# ---------------------------------------------------------------------------

def canonicalize_output(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Project a raw record onto ``{"event_text", "output"}``.

    Accepts the legacy ``"json"`` key as an alias for ``"output"``, strips
    event_text, and projects the payload onto the 8 canonical keys with None
    fill (reference: augmentation/utils.py:28-33).
    """
    event_text = (obj.get("event_text") or "").strip()
    payload = obj.get("output") or obj.get("json") or {}
    out_obj = {k: payload.get(k, None) for k in TARGET_KEYS}
    return {"event_text": event_text, "output": out_obj}


def ensure_schema(o: Dict[str, Any]) -> Dict[str, Any]:
    """Key-fill with None (reference: augmentation/main.py:99-100)."""
    return {k: o.get(k, None) for k in TARGET_KEYS}


def coerce_empty_to_null(v: Any) -> Any:
    """Empty/whitespace-only string -> None (reference: augmentors.py:57-59)."""
    if isinstance(v, str) and v.strip() == "":
        return None
    return v


def ensure_output_schema_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """Unify key name to ``output``; all 8 keys present; ""->None.

    Reference: augmentation/augmentors.py:51-61.
    """
    event_text = (row.get("event_text") or "").strip()
    payload = row.get("output") or row.get("json") or {}
    normalized = {k: coerce_empty_to_null(payload.get(k, None)) for k in TARGET_KEYS}
    return {"event_text": event_text, "output": normalized}
