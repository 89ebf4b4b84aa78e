from __future__ import annotations

import hashlib
import json
import os
from typing import Dict

from .correlators import CorrelatorTable

__all__ = ["CacheFile", "CACHE_VERSION", "CacheError"]

CACHE_VERSION = "1"


class CacheError(ValueError):
    pass


def _canonical_payload(sections: Dict[str, Dict[str, str]]) -> str:
    return json.dumps(sections, sort_keys=True, separators=(",", ":"))


class CacheFile:
    """Single versioned, human-readable cache file.

    Layout: {"version", "sections": {"correlators": {...}}, "checksum"};
    rationals are "num/den" strings, keys sorted, sections kept as read, so
    load-then-save is byte-identical when nothing was added.  A version
    mismatch or checksum mismatch is rejected, never migrated.  `collect`
    adds only keys the section lacks and says whether it added any, so a
    caller saves only when the file would change.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.sections: Dict[str, Dict[str, str]] = {"correlators": {}}

    def load(self) -> "CacheFile":
        if not os.path.exists(self.path):
            return self
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except TimeoutError:  # a wall-clock alarm, not a failure of the file
            raise
        except OSError as exc:
            raise CacheError(f"cannot read {self.path!r}: {exc.strerror}") from exc
        if not isinstance(data, dict):
            raise CacheError("cache file is not a JSON object")
        if data.get("version") != CACHE_VERSION:
            raise CacheError(
                f"cache version {data.get('version')!r} != {CACHE_VERSION!r}")
        sections = data.get("sections", {})
        if not (isinstance(sections, dict)
                and all(isinstance(v, dict) for v in sections.values())):
            raise CacheError("cache sections are not JSON objects")
        payload = _canonical_payload(sections)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if data.get("checksum") != digest:
            raise CacheError("cache checksum mismatch")
        self.sections = sections
        sections.setdefault("correlators", {})
        return self

    def save(self) -> None:
        payload = _canonical_payload(self.sections)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        body = json.dumps(
            {"version": CACHE_VERSION, "sections": self.sections,
             "checksum": digest},
            sort_keys=True, indent=1)
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
            os.replace(tmp, self.path)
        except TimeoutError:
            raise
        except OSError as exc:
            raise CacheError(f"cannot write {self.path!r}: {exc.strerror}") from exc

    # -- section adapters ---------------------------------------------------

    def attach_correlators(self, table: CorrelatorTable) -> None:
        """Hand the correlator section to `table`, which checks every
        entry now and parses each one when it is first read."""
        table.load(self.sections["correlators"])

    def collect(self, table: CorrelatorTable) -> bool:
        """Add the table's memo entries that the section lacks; True if any.
        Unread loaded entries are not compared, so the work is the memo's."""
        section = self.sections["correlators"]
        added = {k: v for k, v in table.memo_entries().items() if k not in section}
        section.update(added)
        return bool(added)
