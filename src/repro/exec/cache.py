"""On-disk, hash-addressed memoization of flow-stage results.

Layout: ``<root>/<stage>/<key[:2]>/<key>.pkl`` where ``key`` is the
SHA-256 fingerprint of the stage's inputs (including the global
:data:`~repro.exec.fingerprint.FINGERPRINT_VERSION`).  One file per
entry keeps eviction and concurrent access trivial: writers write to a
temporary file in the same directory and ``os.replace`` it into place,
so readers never observe a torn entry, and two processes computing the
same entry simply race to an identical result.

Invalidation is purely key-driven — a changed circuit, architecture,
option, seed, or fingerprint version produces a different key and the
stale entry is never touched again.  ``clear()`` (or removing the
directory) is the only explicit invalidation.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache root (default ``~/.cache/repro/stages``);
* ``REPRO_CACHE_DISABLE=1`` — turn every lookup into a miss and every
  store into a no-op (useful to A/B a cold path); the value is parsed
  by :func:`repro.utils.env.env_flag`, so ``0`` leaves the cache on.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

from repro.exec.fingerprint import code_fingerprint, fingerprint
from repro.utils.env import env_flag


def atomic_write_bytes(path: os.PathLike, data: bytes) -> None:
    """Write *data* to *path* so readers never observe a torn file.

    The tmp-file + ``os.replace`` idiom of :meth:`StageCache.put`,
    exposed for other durable artefacts (campaign JSONL checkpoints):
    the payload lands in a temporary file in the destination
    directory and is renamed into place, so a crash mid-write leaves
    either the old content or the new, never a prefix.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_append_text(path: os.PathLike, text: str) -> None:
    """Append *text* to *path* with whole-file atomicity.

    Read-modify-replace rather than ``open(mode="a")``: a process
    killed mid-append must leave the previous complete file behind,
    not a torn final line — that is the contract campaign checkpoint
    resume relies on.  O(file size) per append, which is fine for the
    few-hundred-line JSONL checkpoints it exists for.
    """
    path = Path(path)
    try:
        existing = path.read_bytes()
    except FileNotFoundError:
        existing = b""
    atomic_write_bytes(path, existing + text.encode("utf-8"))


def default_cache_dir() -> Path:
    """Cache root honouring ``REPRO_CACHE_DIR``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "stages"


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`StageCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    #: Entries that existed on disk but failed to unpickle (truncated
    #: write from a killed worker, bit rot, stale module shape); each
    #: also counts as an error and a miss, and the file is unlinked.
    corrupt: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.errors += other.errors
        self.corrupt += other.corrupt

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
            "corrupt": self.corrupt,
        }


class StageCache:
    """Persistent stage-result store addressed by input fingerprint.

    ``root=None`` uses :func:`default_cache_dir`; ``enabled=False`` (or
    ``REPRO_CACHE_DISABLE=1`` in the environment) makes the cache a
    transparent no-op so every call site can pass a cache
    unconditionally.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        enabled: bool = True,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = enabled and not env_flag("REPRO_CACHE_DISABLE")
        self.stats = CacheStats()

    # -- keys and paths -----------------------------------------------------

    @staticmethod
    def key(stage: str, *inputs: Any) -> str:
        """Cache key of *stage* applied to *inputs*.

        The package's own source digest participates, so editing any
        ``repro`` module invalidates every previously cached result —
        a stale entry can never masquerade as the current code's
        output.
        """
        return fingerprint(code_fingerprint(), stage, *inputs)

    def path(self, stage: str, key: str) -> Path:
        return self.root / stage / key[:2] / f"{key}.pkl"

    # -- primitive operations -------------------------------------------------

    def get(self, stage: str, key: str) -> Tuple[bool, Any]:
        """(hit, value); corrupt entries count as misses and are removed."""
        if not self.enabled:
            self.stats.misses += 1
            return False, None
        path = self.path(stage, key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except (MemoryError, RecursionError):
            # Transient resource exhaustion, not corruption: the
            # entry on disk may be perfectly fine, so it must not be
            # unlinked — and silently recomputing under the same
            # pressure would likely fail the same way.
            raise
        except Exception:
            # Torn write from a killed worker or an entry pickled
            # against a module that has since changed shape.  The
            # unpickler surfaces corruption as many exception types
            # beyond UnpicklingError — truncation raises EOFError,
            # flipped bytes raise ValueError / UnicodeDecodeError /
            # OverflowError, stale classes raise AttributeError or
            # ImportError — so anything short of a missing file or
            # resource exhaustion is treated as a miss: count it,
            # drop the entry, recompute.
            self.stats.errors += 1
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        try:
            # LRU bookkeeping for prune(): a hit marks the entry
            # recently used.  Best-effort — a read-only cache mount
            # still serves hits.
            os.utime(path)
        except OSError:
            pass
        self.stats.hits += 1
        return True, value

    def put(self, stage: str, key: str, value: Any) -> None:
        """Atomically store *value*; IO errors are swallowed (the cache
        is an accelerator, never a correctness dependency)."""
        if not self.enabled:
            return
        path = self.path(stage, key)
        try:
            atomic_write_bytes(
                path,
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
            )
            self.stats.stores += 1
        except (OSError, pickle.PicklingError, TypeError,
                AttributeError):
            # Unpicklable values degrade to "not cached", same as IO
            # errors — a failed store must never fail the flow.
            self.stats.errors += 1

    # -- memoization ----------------------------------------------------------

    def memoize(
        self,
        stage: str,
        inputs: Tuple[Any, ...],
        compute: Callable[[], Any],
    ) -> Tuple[Any, bool]:
        """Return ``(result, cache_hit)`` of *stage* on *inputs*.

        On a miss, *compute* runs and its result is stored before being
        returned, so a subsequent identical call is a hit.
        """
        if not self.enabled:
            # Skip the input fingerprinting entirely — hashing whole
            # circuits/placements is wasted work when nothing is kept.
            self.stats.misses += 1
            return compute(), False
        key = self.key(stage, *inputs)
        hit, value = self.get(stage, key)
        if hit:
            return value, True
        value = compute()
        self.put(stage, key, value)
        return value, False

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> int:
        """Remove every entry; returns the number of files removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.rglob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def n_entries(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.pkl"))

    def total_bytes(self) -> int:
        total = 0
        if not self.root.exists():
            return 0
        for path in self.root.rglob("*.pkl"):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def prune(self, max_bytes: int) -> Tuple[int, int]:
        """Evict least-recently-used entries until the cache fits
        *max_bytes*; returns ``(entries_removed, bytes_removed)``.

        Recency is file mtime, refreshed on every hit by :meth:`get`,
        so entries that keep hitting survive and entries orphaned by
        code or input changes (unreachable forever — their key will
        never be computed again) age out first.  Entries that vanish
        mid-scan (concurrent prune or clear) are skipped.
        """
        entries = []
        if self.root.exists():
            # sorted(): rglob yields OS order, and the recency sort
            # below is stable, so mtime *ties* would otherwise be
            # evicted in filesystem-dependent order.
            for path in sorted(self.root.rglob("*.pkl")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        # Newest first; keep while the running total fits the budget.
        # Stable sort + sorted enumeration = deterministic tie-breaks.
        entries.sort(key=lambda e: e[0], reverse=True)
        kept = 0
        removed = removed_bytes = 0
        for _mtime, size, path in entries:
            if kept + size <= max_bytes:
                kept += size
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            removed_bytes += size
        return removed, removed_bytes
