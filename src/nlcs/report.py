"""The one JSON form shared by every report dataclass."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np


class JsonReport:
    """Mixin giving a dataclass ``to_dict`` and ``to_json``.

    Each field is written under its own name, an ndarray as a flat list of
    floats.  Field metadata ``{"json": key}`` writes the field under another
    key, and ``{"json": None}`` leaves it out.
    """

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            key = f.metadata.get("json", f.name)
            if key is None:
                continue
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = [float(v) for v in value.ravel()]
            elif isinstance(value, list):
                value = list(value)
            out[key] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)
