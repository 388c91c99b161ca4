"""File access: inputs opened under a name for errors, and atomic output (a
temporary file beside the target, renamed over it once complete)."""

import os
from contextlib import contextmanager


def open_input(path, what: str, error: type[Exception], mode: str = "r", encoding=None):
    """`path` opened to read. A file that cannot be opened, missing, a
    directory or not permitted, is an `error` naming `what` and the path."""
    try:
        return open(path, mode, encoding=encoding)
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise error(f"{what} cannot be read ({exc.strerror}): {path}") from exc


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
