"""The private switch that turns every fast path off.

Each fast path in specguard stands in front of an exact path that gives
the same answers, and falls back to it. With the switch set, each of them
declines where it is chosen, and only the exact code runs:
- speccore.spec.spec_function returns None, so the monitor's clean_line
  (monitor.clean_line_function, its failing-check answers included), the
  gated pattern's decide (patterns.gated_decide_function), dataset's
  generated conformance guard and the schema key
  (speccore.spec.schema_key_function) do not exist, and tables and
  augment key every record by value_key;
- records.canonical_key renders every key from its tokens, without its
  name templates and grid-cell memo;
- errors.read_json_streamed returns None, so its callers read the file
  whole;
- the JSON Lines readers and the subprocess classifier decode a line with
  json.loads (errors.line_decoder), not with errors.json_line's scanner;
- cli._write_json writes a report through json's own encoder, a Violation
  as its to_json_dict(), not through its own writer, which renders each
  shared detail once and each Violation from its fields.

Each reads the switch once per call or per file, never per line or per
key, so it costs nothing where records are processed. It is meant for
differential tests: run a command both ways and compare every byte.
set_exact is the only way to set it; it starts off.
"""
from __future__ import annotations

from typing import Callable

_exact = False
_caches: list[Callable[[], None]] = []  # emptied when the switch moves


def exact() -> bool:
    """Is every fast path switched off?"""
    return _exact


def set_exact(on: bool) -> None:
    """Switch every fast path off (True) or on (False), and empty the
    caches that hold what a fast path built."""
    global _exact
    _exact = bool(on)
    for clear in _caches:
        clear()


def forget_on_switch(clear: Callable[[], None]) -> None:
    """Call clear whenever set_exact moves the switch."""
    _caches.append(clear)
