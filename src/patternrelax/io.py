"""Instance serialization: objective + box + optional pattern family."""

from __future__ import annotations

import json

from .patterns import PatternFamily
from .polynomials import Box, Polynomial


def export_instance_json(f: Polynomial, box: Box, fam: PatternFamily | None = None,
                         **meta) -> str:
    data = {"f": f.to_json_dict(), "box": box.to_json_dict()}
    if fam is not None:
        data["family"] = fam.to_json_dict()
    for key, val in meta.items():
        data[key] = val
    return json.dumps(data)


def import_instance_json(text: str):
    """Returns (f, box, family-or-None, meta dict); raises on malformed input."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"instance JSON is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("instance JSON is not an object")
    if "f" not in data:
        raise ValueError("instance JSON missing field 'f'")
    if "box" not in data:
        raise ValueError("instance JSON missing field 'box'")
    # the decoders raise whatever Python raises on data of the wrong shape or
    # type; each becomes a ValueError
    try:
        f = Polynomial.from_json_dict(data["f"])
        box = Box.from_json_dict(data["box"])
        fam = None
        if data.get("family") is not None:
            fam = PatternFamily.from_json_dict(data["family"])
    except (TypeError, IndexError, KeyError, AttributeError) as exc:
        raise ValueError(f"instance JSON cannot be decoded: "
                         f"{type(exc).__name__}: {exc}") from exc
    if fam is not None and fam.n != f.n:
        raise ValueError("family dimension does not match the objective")
    if box.n != f.n:
        raise ValueError("box dimension does not match the objective")
    meta = {k: v for k, v in data.items() if k not in ("f", "box", "family")}
    return f, box, fam, meta
