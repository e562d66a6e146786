"""Canonical configuration fingerprints: the store's dedup key.

The campaign service deduplicates submissions by content, not identity:
two clients asking for the same campaign — same ``DutConfig``, same
``DiffConfig``, same campaign parameters — must produce the same key so
the second submission is served from the store.  That requires a hash
that is *canonical*:

* **field order independent** — dataclass fields and dict keys are
  serialised sorted by name, so semantically identical inputs built in
  different orders hash identically;
* **default-value transparent** — a config constructed with explicit
  default values hashes the same as one relying on the defaults,
  because hashing walks the *resolved* field values, never the
  constructor call;
* **structural** — nested dataclasses (``CacheParams``) are walked
  recursively and tagged with their class name, so two different types
  with coincidentally equal fields cannot collide.

The hash is SHA-256 over a minified, key-sorted JSON document, so it is
stable across processes and Python versions (no reliance on ``hash()``
randomisation or pickle details).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Optional

__all__ = ["canonical_document", "config_fingerprint"]


def canonical_document(value: Any) -> Any:
    """Reduce a value to a canonical JSON-serialisable document.

    Dataclasses become ``{"__type__": ClassName, <sorted fields>}``;
    dicts are key-sorted (JSON dumping enforces it, but normalising keys
    to strings here keeps mixed-key dicts deterministic); bytes are
    hex-encoded under a tag so images can participate in a key without
    being embedded raw.  Anything else JSON-incompatible is a caller
    bug, reported loudly.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        doc = {"__type__": type(value).__name__}
        for field in sorted(dataclasses.fields(value),
                            key=lambda f: f.name):
            doc[field.name] = canonical_document(getattr(value, field.name))
        return doc
    if isinstance(value, dict):
        return {str(key): canonical_document(value[key])
                for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonical_document(item) for item in value]
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {"__bytes__": bytes(value).hex()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(
        f"cannot fingerprint {type(value).__name__!r} values; "
        "pass dataclasses, containers or JSON primitives")


def config_fingerprint(dut_config: Optional[object] = None,
                       diff_config: Optional[object] = None,
                       **campaign_params: Any) -> str:
    """The canonical dedup key of one campaign submission.

    ``dut_config`` / ``diff_config`` are the *resolved* config objects
    (not names — renaming ``_CONFIGS`` entries must not alias distinct
    configurations), and ``campaign_params`` everything else that
    changes the deterministic report: seeds, lengths, fault lists,
    fail-fast flags.  Execution knobs that the determinism guarantee
    makes irrelevant (worker counts, timeouts) must be left out by the
    caller.
    """
    document = canonical_document({
        "dut": dut_config,
        "config": diff_config,
        "params": campaign_params,
    })
    payload = json.dumps(document, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
