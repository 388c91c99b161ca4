"""Atomic file output: a temporary file beside the target, renamed over it once complete."""

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w"):
    """A file for the new content of `path`: renamed over `path` when the
    block ends, and removed if it raises, leaving `path` as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_text_atomic(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)
