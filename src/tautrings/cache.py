from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from typing import Dict, Tuple

from .correlators import CorrelatorTable

__all__ = ["CacheFile", "CACHE_VERSION", "CacheError"]

CACHE_VERSION = "1"


class CacheError(ValueError):
    pass


def _checksum(sections: Dict[str, Dict[str, str]]) -> str:
    import hashlib  # loads OpenSSL: only cache users pay for it

    payload = json.dumps(sections, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _key_text(g: int, exps: Tuple[int, ...]) -> str:
    """The entry form "g:k1,k2,..." of a sorted key."""
    return f"{g}:" + ",".join(map(str, exps))


# The entry grammar, the shape `collect` writes (a value need not be in lowest
# terms): ints with no sign, spaces, underscores or leading zeros; keys stable
# (n >= 3 in genus 0, n >= 1 in genus 1); values "num/den" with den > 0.
_INT = "(?:0|[1-9][0-9]*)"
_KEY = (rf"0:{_INT}(?:,{_INT}){{2,}}|1:{_INT}(?:,{_INT})*"
        rf"|(?:[2-9]|[1-9][0-9]+):(?:{_INT}(?:,{_INT})*)?")
_VALUE = "(?:0|-?[1-9][0-9]*)/[1-9][0-9]*"
# A newline that does not start one well-formed item, ended by the next
# newline or the end of the string.  Left to `re`'s cache to compile on
# first use, so that a process that reads no cache file compiles nothing.
_BAD_KEY = rf"\n(?!(?:{_KEY})(?:\n|\Z))"
_BAD_VALUE = rf"\n(?!{_VALUE}(?:\n|\Z))"


def _grammatical(entries: Dict[str, str]) -> bool:
    """Whether every entry is in the grammar.  The keys, each after a
    newline, form one string and the values another, and one search of
    each finds any item that is not well formed.  The newline counts show
    that no key or value holds a newline, so the items are the entries."""
    try:
        keys = "\n" + "\n".join(entries)
        values = "\n" + "\n".join(entries.values())
    except TypeError:
        return False
    return (keys.count("\n") == values.count("\n") == len(entries)
            and re.search(_BAD_KEY, keys) is None
            and re.search(_BAD_VALUE, values) is None)


class CacheFile:
    """Single versioned, human-readable cache file.

    Layout: {"version", "sections": {"correlators": {...}}, "checksum"};
    rationals are "num/den" strings, keys sorted, sections kept as read, so
    load-then-save is byte-identical when nothing was added.  `load` raises
    a `CacheError` naming the path, never migrating, for a file of another
    version, checksum or shape, an entry outside the grammar, or a missing
    directory.  `collect` adds only keys the section lacks and says whether
    it added any, so a caller saves only when the file would change.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.sections: Dict[str, Dict[str, str]] = {"correlators": {}}

    def _error(self, problem: str) -> CacheError:
        return CacheError(f"cache file {self.path!r}: {problem}")

    def load(self) -> "CacheFile":
        if not os.path.exists(self.path):
            if not os.path.isdir(os.path.dirname(self.path) or "."):
                raise self._error("no such directory")
            return self
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except TimeoutError:  # a wall-clock alarm, not a failure of the file
            raise
        except OSError as exc:
            raise self._error(f"cannot read: {exc.strerror}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise self._error(f"not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise self._error("not a JSON object")
        if data.get("version") != CACHE_VERSION:
            raise self._error(f"version {data.get('version')!r} != {CACHE_VERSION!r}")
        sections = data.get("sections", {})
        if not (isinstance(sections, dict)
                and all(isinstance(v, dict) for v in sections.values())):
            raise self._error("sections are not JSON objects")
        if data.get("checksum") != _checksum(sections):
            raise self._error("checksum mismatch")
        entries = sections.setdefault("correlators", {})
        if entries and not _grammatical(entries):
            bad = next(k for k in entries if not _grammatical({k: entries[k]}))
            raise self._error(f"bad entry {bad!r}: {entries[bad]!r}")
        self.sections = sections
        return self

    def save(self) -> None:
        body = json.dumps({"version": CACHE_VERSION, "sections": self.sections,
                           "checksum": _checksum(self.sections)},
                          sort_keys=True, indent=1)
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
            os.replace(tmp, self.path)
        except TimeoutError:
            raise
        except OSError as exc:
            raise self._error(f"cannot write: {exc.strerror}") from exc

    # -- section adapters ---------------------------------------------------

    def attach_correlators(self, table: CorrelatorTable) -> None:
        """Let `table` answer its memo misses from the correlator section,
        parsing an entry when its key is first looked up (so an entry whose
        exponents are not sorted is kept as read and never used)."""
        entries = self.sections["correlators"]

        def lookup(g, exps):
            text = entries.get(_key_text(g, exps))
            return None if text is None else Fraction(text)
        table.attach(lookup)

    def collect(self, table: CorrelatorTable) -> bool:
        """Add the table's memo entries that the section lacks; True if any.
        Entries the table never looked up are not compared."""
        section = self.sections["correlators"]
        memo = {_key_text(g, exps): v for (g, exps), v in table.items()}
        added = {k: f"{v.numerator}/{v.denominator}" for k, v in memo.items() if k not in section}
        section.update(added)
        return bool(added)
