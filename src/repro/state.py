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

A parse keeps every run-coded array in its run form, as live storage
snapshots do; the subsystem that owns an array expands it on load
through :func:`int_array`, which checks the runs against the array's
length before allocating anything.

What is architectural state and what is mechanism, and how the format
is versioned, is documented in DESIGN.md section 5.4.
"""

from __future__ import annotations

import dataclasses
import json
from itertools import groupby
from typing import Any, Dict, List, Optional, Tuple

from .config import MAX_STORAGE_WORDS
from .errors import StateError

#: Version stamp written into every MachineState.  Bump whenever a
#: subsystem's state_dict layout changes incompatibly; restore refuses
#: snapshots from a different version rather than misinterpreting them.
STATE_FORMAT_VERSION = 2

#: Marker key for run-length-encoded integer arrays in canonical JSON.
#: ``{RLE_KEY: [[value, count], ...]}`` with maximal runs is also the
#: form in which storage hands its image to a snapshot, and the form in
#: which a parsed state carries every run-coded array (DESIGN.md 5.4).
RLE_KEY = "__rle__"
#: Integer lists at least this long are RLE-coded (storage images and
#: register files compress enormously; short lists stay readable).
RLE_MIN = 64

#: JSON scalars: :func:`_canonical` leaves them as they are, so a list
#: holding nothing else is taken whole.
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


def checked_runs(runs: Any, length: Optional[int] = None) -> List[List[int]]:
    """*runs*, once every run and their total are checked.

    Runs arrive from outside the program (suspend envelopes, saved
    states).  Each must be ``[int value, positive int count]`` (``bool``
    is refused although it is an ``int`` subclass), and the counts must
    total *length*.  Where nothing fixes the length (FIFOs, packets, the
    console trace) they may total at most the largest real machine's
    storage, :data:`~repro.config.MAX_STORAGE_WORDS`.  Nothing is
    allocated from a count before this check passes.
    """
    if type(runs) is not list:
        raise StateError("run-length-coded array is not a list of runs")
    total = 0
    for run in runs:
        if (
            type(run) is not list
            or len(run) != 2
            or type(run[0]) is not int
            or type(run[1]) is not int
            or run[1] <= 0
        ):
            raise StateError(f"malformed run {run!r} in a run-length-coded array")
        total += run[1]
    if length is None and total > MAX_STORAGE_WORDS:
        raise StateError(
            f"run-length-coded array of {total} values, more than the "
            f"{MAX_STORAGE_WORDS} any array may hold"
        )
    if length is not None and total != length:
        raise StateError(
            f"run-length-coded array of {total} values, expected {length}"
        )
    return runs


def int_array(data: Any, length: Optional[int] = None) -> List[int]:
    """A state array as a fresh list, given as a list or as runs.

    Live snapshots hold most arrays as lists; parsed ones hold every
    array of :data:`RLE_MIN` or more ints as ``{RLE_KEY: runs}``.  A
    ``load_state`` takes either form through here.  With *length*, the
    array must hold exactly that many values; runs are checked by
    :func:`checked_runs` before the list is allocated.
    """
    if type(data) is dict and len(data) == 1 and RLE_KEY in data:
        runs = checked_runs(data[RLE_KEY], length)
        values = [0] * sum(count for _, count in runs)
        start = 0
        for value, count in runs:
            if value:
                values[start : start + count] = [value] * count
            start += count
        return values
    if type(data) is not list:
        raise StateError(f"state array {data!r:.40} is neither a list nor runs")
    if length is not None and len(data) != length:
        raise StateError(f"state array of {len(data)} values, expected {length}")
    return list(data)


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


def _revive_object(pairs: List[Tuple[str, Any]]) -> Dict[Any, Any]:
    """Build one parsed JSON object, undoing the stringified int keys.

    The ``object_pairs_hook`` of :func:`parse_canonical_json`: the C
    parser calls it as it finishes each object, so the whole parse is
    one pass.  State dicts key on either identifiers (field names) or
    integers (addresses, pages, tasks); no identifier is all digits, so
    the digit test is unambiguous.  Run-coded arrays stay runs.
    """
    obj = {}
    for key, value in pairs:
        if key.isdigit() or (key[:1] == "-" and key[1:].isdigit()):
            key = int(key)
        obj[key] = value
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
    """Invert :func:`canonical_json` (raises StateError on bad input).

    Integer keys come back as ints; run-coded arrays stay in their run
    form ``{RLE_KEY: runs}`` for their owners to expand (:func:`int_array`),
    so parsing costs what the text holds, not what the runs expand to.
    ``canonical_json(parse_canonical_json(t)) == t`` for canonical *t*.
    """
    try:
        return json.loads(text, object_pairs_hook=_revive_object)
    except ValueError as exc:
        raise StateError(f"malformed canonical-state JSON: {exc}") from exc


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

        Plain-data equality would not do: a live snapshot carries only
        the storage image as runs, a parsed one every long int array.
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
        data = parse_canonical_json(text)
        if not isinstance(data, dict) or "version" not in data:
            raise StateError("machine-state JSON lacks a version field")
        return cls(data)

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
        return int_array(obj)
    return obj


def _collect_diffs(a: Any, b: Any, path: str, out: List[str], limit: int) -> None:
    if len(out) >= limit or a == b:
        return
    # Long int arrays may be runs on one side and lists on the other;
    # compare them value by value so diffs name word addresses.
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
