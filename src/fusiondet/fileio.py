"""Artifact writing: a file holds its previous or its complete new content.

Writes go to a temporary file next to the target, which ``os.replace``
moves over it on success and which is removed on error. Nothing is fsynced:
this guards against a failing writer, not against a power loss.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """``open(path, mode)`` for writing, replacing ``path`` only on success."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc):
    """The artifact JSON layout (sorted keys, indent 1), written atomically."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
