"""JSON (de)serialization of clips.

Extracted clip corpora are expensive to produce (full P&R per design),
so experiments save them to disk and reload them later -- also the
natural interchange for sharing "difficult clip" suites.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Iterable

from repro.clips.clip import Clip, ClipNet, ClipPin

_FORMAT_VERSION = 1


def clip_to_dict(clip: Clip) -> dict:
    """Plain-dict form of a clip (stable, version-tagged)."""
    return {
        "version": _FORMAT_VERSION,
        "name": clip.name,
        "nx": clip.nx,
        "ny": clip.ny,
        "nz": clip.nz,
        "horizontal": list(clip.horizontal),
        "x_pitch": clip.x_pitch,
        "y_pitch": clip.y_pitch,
        "min_metal": clip.min_metal,
        "pin_cost": clip.pin_cost,
        "origin": list(clip.origin),
        "obstacles": sorted(list(v) for v in clip.obstacles),
        "nets": [
            {
                "name": net.name,
                "pins": [
                    {
                        "access": sorted(list(v) for v in pin.access),
                        "area_nm2": pin.area_nm2,
                        "position": list(pin.position),
                        "on_boundary": pin.on_boundary,
                    }
                    for pin in net.pins
                ],
            }
            for net in clip.nets
        ],
    }


@functools.lru_cache(maxsize=256)
def clip_digest(clip: Clip) -> str:
    """SHA-256 of the clip's canonical serialization without its name:
    the clip's content address, computed once per clip value (equal
    copies share one computation)."""
    data = clip_to_dict(clip)
    del data["name"]
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def clip_from_dict(data: dict) -> Clip:
    """Rebuild a clip from its dict form."""
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported clip format version {version!r}")
    nets = tuple(
        ClipNet(
            name=net["name"],
            pins=tuple(
                ClipPin(
                    access=frozenset(tuple(v) for v in pin["access"]),
                    area_nm2=pin["area_nm2"],
                    position=tuple(pin["position"]),
                    on_boundary=pin["on_boundary"],
                )
                for pin in net["pins"]
            ),
        )
        for net in data["nets"]
    )
    return Clip(
        name=data["name"],
        nx=data["nx"],
        ny=data["ny"],
        nz=data["nz"],
        horizontal=tuple(data["horizontal"]),
        nets=nets,
        obstacles=frozenset(tuple(v) for v in data["obstacles"]),
        x_pitch=data["x_pitch"],
        y_pitch=data["y_pitch"],
        min_metal=data["min_metal"],
        pin_cost=data["pin_cost"],
        origin=tuple(data["origin"]),
    )


def dump_clips(clips: Iterable[Clip]) -> str:
    """Serialize a clip corpus as JSON text."""
    return json.dumps(
        [clip_to_dict(clip) for clip in clips], indent=1, sort_keys=True
    )


def load_clips(text: str) -> list[Clip]:
    """Load a clip corpus from JSON text."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("expected a JSON array of clips")
    return [clip_from_dict(entry) for entry in data]
