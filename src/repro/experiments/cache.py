"""On-disk caching of experiment results.

Reference traces (one full-detail pass per benchmark) and technique runs
are deterministic given their configuration, so they are cached under a
key derived from the configuration.  The cache directory defaults to
``<repo>/.expcache`` and can be overridden with the ``REPRO_CACHE_DIR``
environment variable; delete the directory to force recomputation.

The cache is safe for concurrent writers across processes:

* every entry is published with a write-to-unique-tmp + ``os.replace``
  sequence, so readers only ever observe absent or complete files;
* unreadable entries (torn by a crash predating this scheme, or damaged
  on disk) are quarantined to ``<key>.<ext>.corrupt`` and recomputed
  instead of poisoning every later read;
* per-instance ``hits`` / ``misses`` / ``corrupt`` counters make the
  behaviour observable (see :meth:`ResultCache.stats`).

The cache holds no locks: the fleet queue's leases decide who runs a
cell (DESIGN.md §12).  Two processes that miss on one key at once both
compute it; results are deterministic, so both publish the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, Optional, TypeVar

from ..errors import CacheError
from ..sampling.full import ReferenceTrace

__all__ = ["ResultCache"]

T = TypeVar("T")

#: Bump when a change invalidates previously cached results (simulator
#: timing semantics, workload definitions, estimators).
CACHE_VERSION = 7

#: File suffixes the cache may leave in its directory.
_CACHE_SUFFIXES = (".json", ".npz", ".tmp", ".corrupt")


def _default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".expcache"


def _reject_unserializable(obj: Any) -> Any:
    raise CacheError(
        f"cache payload value {obj!r} of type {type(obj).__name__} is not "
        "JSON-serialisable; convert it explicitly before keying (silently "
        "stringifying could collapse distinct configurations onto one key)"
    )


class ResultCache:
    """Content-addressed store for traces and JSON-able results."""

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory) if directory else _default_cache_dir()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Unreadable entries quarantined and recomputed.
        self.corrupt = 0

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: hits, misses, corrupt."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }

    def key(self, payload: Dict[str, Any]) -> str:
        """Stable hash of a JSON-able payload plus the cache version.

        Raises:
            CacheError: if the payload contains values that JSON cannot
                represent (they would otherwise be stringified, which can
                merge distinct configurations into one key).
        """
        try:
            material = json.dumps(
                {"v": CACHE_VERSION, **payload},
                sort_keys=True,
                default=_reject_unserializable,
            )
        except (TypeError, ValueError) as exc:
            # Non-string dict keys and circular references surface as
            # TypeError/ValueError without consulting ``default``.
            if isinstance(exc, CacheError):
                raise
            raise CacheError(f"cache payload is not JSON-serialisable: {exc}") from exc
        return hashlib.sha256(material.encode()).hexdigest()[:24]

    def json(
        self, payload: Dict[str, Any], compute: Callable[[], Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Return the cached result for *payload*, computing it on a miss."""
        path = self.directory / f"{self.key(payload)}.json"
        return self._get(path, _load_json, _dump_json, compute)

    def trace(
        self, payload: Dict[str, Any], compute: Callable[[], ReferenceTrace]
    ) -> ReferenceTrace:
        """Return the cached reference trace for *payload*."""
        path = self.directory / f"{self.key(payload)}.npz"
        return self._get(path, _load_trace, _dump_trace, compute)

    def clear(self) -> int:
        """Delete every cache-owned file (entries, tmp, quarantine).

        Returns the number of files removed.  Sweeping ``.tmp`` files
        keeps leftovers from interrupted runs from accumulating forever.
        """
        removed = 0
        for path in sorted(self.directory.glob("*")):
            if path.suffix in _CACHE_SUFFIXES:
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
        return removed

    def sweep(self) -> Dict[str, int]:
        """Remove crash litter without touching published entries.

        Deletes orphaned ``.tmp`` files and returns their count — run by
        ``pgss-sim clear-cache --sweep`` after killing workers.
        """
        removed = 0
        for path in sorted(self.directory.glob("*.tmp")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return {"tmp_files": removed}

    # ------------------------------------------------------------------
    # Get-or-compute with atomic publication.

    def _get(
        self,
        path: Path,
        load: Callable[[Path], T],
        dump: Callable[[T, Path], None],
        compute: Callable[[], T],
    ) -> T:
        value = self._load(path, load)
        if value is not None:
            self.hits += 1
            return value

        self.misses += 1
        tmp = self._tmp_path(path)
        try:
            result = compute()
            dump(result, tmp)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        return result

    def _load(self, path: Path, load: Callable[[Path], T]) -> Optional[T]:
        """Load an entry; quarantine and miss on a corrupted file."""
        if not path.exists():
            return None
        try:
            return load(path)
        except Exception:
            # Anything unreadable — torn writes predating atomic
            # publication, bad blocks, schema drift — is moved aside so
            # the entry is recomputed instead of failing forever.
            self.corrupt += 1
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> None:
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def _tmp_path(self, path: Path) -> Path:
        """A tmp name unique per writer (pid + random token)."""
        token = uuid.uuid4().hex[:8]
        return path.with_name(f"{path.name}.{os.getpid()}.{token}.tmp")


def _load_json(path: Path) -> Dict[str, Any]:
    with path.open() as fh:
        value = json.load(fh)
    if not isinstance(value, dict):
        raise CacheError(f"cache entry {path.name} is not a JSON object")
    return value


def _dump_json(result: Dict[str, Any], tmp: Path) -> None:
    with tmp.open("w") as fh:
        json.dump(result, fh)


def _load_trace(path: Path) -> ReferenceTrace:
    return ReferenceTrace.load(path)


def _dump_trace(trace: ReferenceTrace, tmp: Path) -> None:
    trace.save(tmp)
