"""Durability primitives of the result store.

The crash-safety discipline is the classic one:

1. write the full payload to a *temp file in the destination directory*
   (same filesystem, so the final rename cannot cross a mount);
2. ``fsync`` the temp file — the bytes are on disk before anything points
   at them;
3. ``os.replace`` the temp file onto the final name — atomic on POSIX, so
   readers only ever see the old state or the complete new state;
4. ``fsync`` the *directory* — the rename itself (and, for brand-new
   files, the directory entry) is durable.  Skipping this step is the
   classic bug where a crash right after file creation loses the whole
   file even though every byte was fsynced.

``write_hook`` exists for the chaos harness (:mod:`repro.store.chaos`):
it is called between chunks and at each commit stage so a test writer can
SIGKILL itself at a seeded byte offset and prove the store is never torn.
Production callers leave it ``None``.
"""

from __future__ import annotations

import os
from pathlib import Path

#: Prefix of in-flight commit temp files; anything carrying it is garbage
#: after a crash and is reclaimed by ``ResultStore.gc()``.
TMP_PREFIX = ".tmp-"

#: Chunk size for commit writes.  Small enough that the chaos harness can
#: kill a writer at meaningful intermediate offsets, large enough to be
#: irrelevant for throughput at the entry sizes involved (a few KiB).
CHUNK_BYTES = 512

#: Stages reported to ``write_hook`` (after every chunk, then once each).
STAGE_WRITE = "write"
STAGE_FSYNCED = "fsynced"
STAGE_RENAMED = "renamed"


def fsync_dir(directory: str | os.PathLike) -> None:
    """fsync a directory so renames/creations inside it are durable.

    Best-effort on platforms whose directory handles refuse fsync
    (some network filesystems); the data-file fsync still happened.
    """
    fd = os.open(os.fspath(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def commit_bytes(path: str | os.PathLike, data: bytes, *,
                 write_hook=None) -> None:
    """Durably publish ``data`` at ``path`` (temp + fsync + rename + dirsync).

    A crash at *any* point leaves either the complete previous state or
    the complete new state at ``path`` — never a prefix — plus possibly an
    orphan ``.tmp-*`` file, which ``gc()`` reclaims.
    """
    path = Path(path)
    tmp = path.parent / f"{TMP_PREFIX}{path.name}.{os.getpid()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        written = 0
        for offset in range(0, len(data), CHUNK_BYTES):
            chunk = data[offset:offset + CHUNK_BYTES]
            os.write(fd, chunk)
            written += len(chunk)
            if write_hook is not None:
                write_hook(STAGE_WRITE, written)
        os.fsync(fd)
    finally:
        os.close(fd)
    if write_hook is not None:
        write_hook(STAGE_FSYNCED, len(data))
    os.replace(tmp, path)
    if write_hook is not None:
        write_hook(STAGE_RENAMED, len(data))
    fsync_dir(path.parent)
