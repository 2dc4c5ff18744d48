"""Atomic file replacement: readers see the old file or the new one, never a part."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Yield a file open on a temporary beside `path`; it replaces `path` on success.

    The temporary lives in the same directory, so ``os.replace`` is a
    rename within one file system. If the block raises, `path` keeps its
    previous content and the temporary is removed.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
