"""The one reader behind every comma-separated input file.

Datasets, corruption manifests, superclass maps, trajectories and
per-class meta accuracies all share its row protocol and its error
policy: an unreadable file, a wrong header or a row with the wrong field
count raises ConfigError naming the file (and the line). Each format's
reader converts the fields and checks what only that format knows.
"""

from __future__ import annotations

from .errors import ConfigError


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
