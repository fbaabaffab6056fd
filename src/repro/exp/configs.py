"""Hash-identified machine-configuration variants.

The paper's evaluation is a matrix of workloads against machine
features -- bypassing (section 5.6), IFU decode latency (section 4),
cache geometry (section 3), and the simulator's own execution tiers.
This module gives every point in that design space a stable identity:
a :class:`ConfigVariant` names a frozen
:class:`~repro.config.MachineConfig`, and :func:`config_hash` derives a
short content hash from the config's canonical JSON payload, so two
variants are interchangeable exactly when their hashes are equal.  The
hash is computed over *sorted* keys: re-ordering fields cannot change
it, while changing any field value must (``tests/test_exp_matrix.py``
pins both properties with Hypothesis).

The simulator's three execution tiers (interpretive, decoded-plan,
compiled-trace) are not variants of the machine being modelled but of
the simulator running it, so no variant names one: every clean matrix
cell runs each of :data:`repro.config.TIERS` on its variant's machine
and proves cycle parity across all three.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping

from ..config import MODEL0, PRODUCTION, STITCHWELD, MachineConfig

def hash_payload(payload: Mapping[str, Any]) -> str:
    """Short content hash of a plain-data mapping.

    Keys are sorted before hashing, so insertion order never matters;
    any value change produces a different digest.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def config_signature_payload(config: MachineConfig) -> Dict[str, Any]:
    """The config as the plain dict the hash is computed over."""
    return dataclasses.asdict(config)


def config_hash(config: MachineConfig) -> str:
    """Stable 12-hex identity of a :class:`MachineConfig`."""
    return hash_payload(config_signature_payload(config))


@dataclass(frozen=True)
class ConfigVariant:
    """A named, hash-identified point in the machine design space."""

    name: str
    config: MachineConfig
    description: str = ""

    @property
    def hash(self) -> str:
        return config_hash(self.config)


#: The registry of named variants the scenario matrix draws from.
#: ``production`` is the paper's Model 1 multiwire machine; the others
#: each ablate one feature the paper discusses.  Variants that disable
#: bypassing break the (unpadded) emulator microcode by design -- the
#: matrix excludes such cells unless the workload declares itself
#: Model-0 safe (see ``repro.exp.matrix.WORKLOAD_DEFS``).
CONFIG_VARIANTS: Dict[str, ConfigVariant] = {
    variant.name: variant
    for variant in (
        ConfigVariant(
            "production", PRODUCTION,
            "Model 1, multiwire: the paper's production machine",
        ),
        ConfigVariant(
            "model0", MODEL0,
            "Model 0 ablation: bypass paths removed (section 5.6)",
        ),
        ConfigVariant(
            "stitchweld", STITCHWELD,
            "stitchwelded prototype: 50 ns cycle (section 6.4)",
        ),
        ConfigVariant(
            "small_cache",
            MachineConfig(cache_lines=32, cache_ways=1),
            "cache-geometry ablation: 32 direct-mapped lines",
        ),
        ConfigVariant(
            "ifu_slow",
            MachineConfig(ifu_decode_cycles=2),
            "IFU ablation: two-cycle byte decode",
        ),
        ConfigVariant(
            "grain3",
            MachineConfig(task_grain=3),
            "the rejected 3-instruction task grain (section 6.2.1)",
        ),
    )
}


def variant(name: str) -> ConfigVariant:
    """Look up a registered variant, with a helpful error."""
    try:
        return CONFIG_VARIANTS[name]
    except KeyError:
        known = ", ".join(sorted(CONFIG_VARIANTS))
        raise KeyError(f"unknown config variant {name!r} (known: {known})") from None
