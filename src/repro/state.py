"""Machine-wide snapshot, restore, fork, and serialization.

Section 6.3 of the paper enumerates the Dorado's architectural state
precisely: RM/T/COUNT/Q/SHIFTCTL/MEMBASE, a TPC per task, the writable
control store, and the cache/map/storage contents.  Every stateful
subsystem in this simulator declares exactly that state through one
protocol -- ``state_dict() -> dict`` returning plain data (ints, bools,
strings, lists, dicts; no object references, no aliasing of live
containers) and ``load_state(dict)`` copying it back in.  Derived
mechanism -- the execution-plan cache, instrumentation hooks, decode
tables, compiled ALU closures -- is explicitly excluded and rebuilt
when needed.

This module assembles the per-subsystem dicts into a versioned
:class:`MachineState` (see :meth:`repro.core.processor.Processor.
snapshot` / ``restore`` / ``fork``) and serializes it as **canonical
JSON**: keys sorted, integer dict keys stringified symmetrically, and
long integer arrays run-length encoded.  Canonicalization is applied
identically on every save, so save -> load -> save round-trips
byte-identically; tests and the warm-start benchmark rely on that.

What is architectural state and what is mechanism, and how the format
is versioned, is documented in DESIGN.md section 5.4.
"""

from __future__ import annotations

import dataclasses
import json
from itertools import groupby
from typing import Any, Dict, List, Optional

from .errors import StateError

#: Version stamp written into every MachineState.  Bump whenever a
#: subsystem's state_dict layout changes incompatibly; restore refuses
#: snapshots from a different version rather than misinterpreting them.
STATE_FORMAT_VERSION = 2

#: Marker key for run-length-encoded integer arrays in canonical JSON.
#: ``{RLE_KEY: [[value, count], ...]}`` with maximal runs is also the
#: form in which storage hands its image to a snapshot (DESIGN.md 5.4).
RLE_KEY = "__rle__"
#: Integer lists at least this long are RLE-coded (storage images and
#: register files compress enormously; short lists stay readable).
RLE_MIN = 64

#: JSON scalars: :func:`_canonical` and :func:`_revive` leave them as they
#: are, so a list holding nothing else is taken whole.
_SCALARS = {int, str, bool, float, type(None)}


def config_signature(config) -> Dict[str, Any]:
    """The config as plain data, for snapshot/machine compatibility.

    Two machines with equal signatures have identical geometry, timing,
    and fault plan, so a snapshot taken on one loads on the other.
    """
    return dataclasses.asdict(config)


# --------------------------------------------------------------------------
# canonical JSON: deterministic bytes in, identical bytes out
# --------------------------------------------------------------------------

def _rle_encode(values: List[int]) -> List[List[int]]:
    """Maximal ``[value, count]`` runs of *values*."""
    return [[value, len(list(group))] for value, group in groupby(values)]


def check_run(run: Any) -> None:
    """Refuse a run that is not ``[int value, positive int count]``.

    Runs arrive from outside the program (suspend envelopes, saved
    states); ``bool`` is refused although it is an ``int`` subclass.
    """
    if (
        type(run) is not list
        or len(run) != 2
        or type(run[0]) is not int
        or type(run[1]) is not int
        or run[1] <= 0
    ):
        raise StateError(f"malformed run {run!r} in a run-length-coded array")


def _rle_decode(pairs: Any) -> List[int]:
    """The values of checked ``[value, count]`` runs (StateError if bad)."""
    if type(pairs) is not list:
        raise StateError("run-length-coded array is not a list of runs")
    for run in pairs:
        check_run(run)
    total = sum(count for _, count in pairs)
    try:
        values = [0] * total
    except (OverflowError, MemoryError) as exc:
        raise StateError(
            f"run-length-coded array of {total} values does not fit in memory"
        ) from exc
    start = 0
    for value, count in pairs:
        if value:
            values[start : start + count] = [value] * count
        start += count
    return values


def _canonical(obj: Any) -> Any:
    """Normalize for serialization: string keys, RLE'd int arrays.

    Applied before every dump, whether the data came from live
    ``state_dict`` calls (int keys) or from a previous load (string
    keys already), so the emitted bytes are identical either way.
    """
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        types = set(map(type, obj))
        if len(obj) >= RLE_MIN and types == {int}:
            return {RLE_KEY: _rle_encode(obj)}
        if types <= _SCALARS:
            return obj
        return [_canonical(v) for v in obj]
    return obj


def _parse_key(key: Any) -> Any:
    """Undo the stringification of integer dict keys.

    State dicts key on either identifiers (field names) or integers
    (addresses, pages, tasks); no identifier is all digits, so the
    digit test is unambiguous.
    """
    if isinstance(key, str) and (
        key.isdigit() or (key.startswith("-") and key[1:].isdigit())
    ):
        return int(key)
    return key


def _revive(obj: Any) -> Any:
    """Invert :func:`_canonical` after a JSON parse."""
    if isinstance(obj, dict):
        if set(obj) == {RLE_KEY}:
            return _rle_decode(obj[RLE_KEY])
        return {_parse_key(k): _revive(v) for k, v in obj.items()}
    if isinstance(obj, list):
        if set(map(type, obj)) <= _SCALARS:
            return obj
        return [_revive(v) for v in obj]
    return obj


def canonical_json(data: Any) -> str:
    """Canonical JSON of a plain-data tree: same data, same bytes.

    The one serialization the repo's byte-identity guarantees are built
    on -- sorted stringified keys, RLE-coded integer arrays, no
    whitespace.  :class:`MachineState` uses it for single machines and
    the cluster layer (:mod:`repro.cluster`) for vectors of them.
    """
    return json.dumps(_canonical(data), sort_keys=True, separators=(",", ":"))


def parse_canonical_json(text: str) -> Any:
    """Invert :func:`canonical_json` (raises StateError on bad input)."""
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise StateError(f"malformed canonical-state JSON: {exc}") from exc
    return _revive(raw)


# --------------------------------------------------------------------------
# the assembled machine state
# --------------------------------------------------------------------------

class MachineState:
    """One machine's complete architectural state, as plain data.

    Produced by :meth:`Processor.snapshot` and consumed by
    :meth:`Processor.restore`; :attr:`data` is a nested dict with the
    sections ``version``, ``config``, ``im``, ``core``, ``mem``,
    ``ifu``, ``io`` (one entry per attached device, in attachment
    order), and ``fault`` (None when fault injection is off).
    """

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data

    @property
    def version(self) -> int:
        return self.data["version"]

    @property
    def config(self) -> Dict[str, Any]:
        return self.data["config"]

    def __eq__(self, other: object) -> bool:
        """Same state means same canonical bytes (DESIGN.md 5.4).

        Plain-data equality would not do: a live snapshot carries the
        storage image as runs, a parsed one as a dense list.
        """
        return isinstance(other, MachineState) and self.to_json() == other.to_json()

    def __repr__(self) -> str:
        cycles = self.data.get("core", {}).get("now", "?")
        return f"MachineState(version={self.version}, cycle={cycles})"

    # --- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON: the same state always yields the same bytes."""
        return canonical_json(self.data)

    @classmethod
    def from_json(cls, text: str) -> "MachineState":
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise StateError(f"malformed machine-state JSON: {exc}") from exc
        if not isinstance(raw, dict) or "version" not in raw:
            raise StateError("machine-state JSON lacks a version field")
        return cls(_revive(raw))

    def save(self, path) -> None:
        """Write the canonical serialization (plus a trailing newline)."""
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")

    @classmethod
    def load(cls, path) -> "MachineState":
        with open(path) as f:
            return cls.from_json(f.read())


# --------------------------------------------------------------------------
# divergence bisection support
# --------------------------------------------------------------------------

def diff_states(a: Any, b: Any, limit: int = 20, _path: str = "") -> List[str]:
    """Human-readable paths where two state trees differ.

    The tool the mid-run bisection workflow is built on: snapshot both
    cycle paths every N cycles, and the first non-empty diff names the
    subsystem (and register) that diverged.  Accepts either
    :class:`MachineState` objects or raw state dicts.
    """
    if isinstance(a, MachineState):
        a = a.data
    if isinstance(b, MachineState):
        b = b.data
    diffs: List[str] = []
    _collect_diffs(a, b, _path or "$", diffs, limit)
    return diffs


def _dense(obj: Any) -> Any:
    """A run-length-coded array as a plain list; anything else unchanged."""
    if isinstance(obj, dict) and set(obj) == {RLE_KEY}:
        return _rle_decode(obj[RLE_KEY])
    return obj


def _collect_diffs(a: Any, b: Any, path: str, out: List[str], limit: int) -> None:
    if len(out) >= limit or a == b:
        return
    # Storage images are runs in live snapshots and lists in parsed
    # ones; compare them word by word so diffs name word addresses.
    a, b = _dense(a), _dense(b)
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a:
                out.append(f"{path}.{key}: only in second")
            elif key not in b:
                out.append(f"{path}.{key}: only in first")
            else:
                _collect_diffs(a[key], b[key], f"{path}.{key}", out, limit)
            if len(out) >= limit:
                return
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _collect_diffs(x, y, f"{path}[{i}]", out, limit)
            if len(out) >= limit:
                return
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")
