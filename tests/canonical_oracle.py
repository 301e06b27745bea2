"""Reference encoder for specguard.speccore.records.canonical_key.

Shapes every value into a tagged JSON list and lets json.dumps sort the
names and render the text. It defines the key strings the one-pass encoder
must keep byte for byte, and the exceptions it raises for values no record
can hold. test_schema_records.py checks the two against each other on
random field maps.
"""
from __future__ import annotations

import json
from typing import Any, Mapping

from specguard.errors import FormatError


def _canonical_value(value: Any) -> Any:
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, (int, float)):
        # %.17g round-trips every float; +0.0 so -0.0 and 0.0 collapse.
        return ["n", "%.17g" % (float(value) + 0.0,)]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, list):
        return ["l", [_canonical_value(v) for v in value]]
    raise FormatError(f"value {value!r} cannot appear in a record")


def canonical_key(fields: Mapping[str, Any]) -> str:
    """A stable text identity for a record's input fields.

    Two field maps get the same key exactly when they hold the same values
    (3 and 3.0 collapse, -0.0 and 0.0 collapse, key order never matters).
    Used for deduplication and reachability memoization.
    """
    shaped = {name: _canonical_value(value) for name, value in fields.items()}
    return json.dumps(shaped, sort_keys=True, separators=(",", ":"))
