"""The one module that opens every comma-separated input file.

Datasets, corruption manifests, superclass maps, trajectories and
per-class meta accuracies all share the row protocol of ``read_rows`` and
its error policy: an unreadable file, a wrong header or a row with the
wrong field count raises ConfigError naming the file (and the line). Each
format's reader converts the fields and checks what only that format
knows.

Large clean files (trajectories) are parsed in blocks of lines by
``read_blocks``, which names no line: on anything it cannot take it raises
ValueError, and the caller reads the file again through ``read_rows``,
which names the file and line of the fault.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .errors import ConfigError

BLOCK_LINES = 1024
# numpy keeps a bytes field only up to its first NUL, and its number parser
# skips \x1c-\x1f as spaces where int() and float() reject them
_UNLIKE_PYTHON = ("\x00", "\x1c", "\x1d", "\x1e", "\x1f")


def read_rows(path, header, extra_columns=False, comments=False):
    """Yield ``(lineno, fields)`` for each data row of a CSV file.

    The first line that is not blank (nor, with ``comments``, a ``#``
    line) is the header. It must equal the names in ``header``, or with
    ``extra_columns`` begin with them; every data row then has as many
    fields as the header. Blank lines are skipped. With ``comments`` each
    ``#`` line is yielded whole as a one-field row. Every error message
    starts ``"{path} line {n}: "`` where there is a line.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    names = None
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if comments and line.startswith("#"):
                    yield lineno, [line]
                    continue
                fields = line.split(",")
                if names is None:
                    if tuple(fields[: len(header)]) != header or (
                        len(fields) != len(header) and not extra_columns
                    ):
                        expected = ",".join(header) + (",..." if extra_columns else "")
                        raise ConfigError(
                            f"{path} line {lineno}: expected header {expected}, "
                            f"got {line[:80]!r}"
                        )
                    names, width = line, len(fields)
                elif len(fields) != width:
                    raise ConfigError(
                        f"{path} line {lineno}: expected {names}, got {line[:80]!r}"
                    )
                else:
                    yield lineno, fields
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
    if names is None:
        raise ConfigError(f"{path}: no header line, expected {','.join(header)}")


def read_blocks(path, header, dtype):
    """Yield the data rows of a CSV file as structured ``dtype`` arrays,
    one per block of up to ``BLOCK_LINES`` file lines.

    The header is found and checked as in ``read_rows``, and empty lines
    are skipped. Each block goes through one ``np.loadtxt`` call and must
    be ASCII without the characters numpy reads unlike Python, so every
    field holds what ``int``, ``float`` or the field's own text would give.
    Anything else (an unreadable file, a bad header, a field that does not
    parse, a wrong field count, a line of spaces among the rows) raises
    OSError or ValueError without a line number; the caller then reads the
    file with ``read_rows``.
    """
    with open(path, encoding="utf-8") as fh:
        line = ""
        for line in fh:
            if line.strip():
                break
        if tuple(line.strip().split(",")) != header:
            raise ValueError(f"{path}: no header {','.join(header)}")
        while block := list(islice(fh, BLOCK_LINES)):
            text = "".join(block)
            if not text.isascii() or any(c in text for c in _UNLIKE_PYTHON):
                raise ValueError(f"{path}: characters numpy reads unlike Python")
            if text.strip():
                yield np.loadtxt(block, dtype=dtype, delimiter=",", comments=None, ndmin=1)
