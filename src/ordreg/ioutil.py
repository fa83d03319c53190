"""Atomic file writes, canonical JSON, and the readers of JSON and CSV inputs."""

from __future__ import annotations

import csv
import json
import numbers
import os
import re
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Iterator

from .core import InputError


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline.

    NaN/Infinity are rejected; undefined values must be encoded as null by the
    caller so that serialized output stays byte-reproducible.
    """
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted only when it holds a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if _CSV_SPECIAL.search(text) else text


def json_number(name: str, value: Any, integer: bool = False) -> int | float:
    """The number a JSON field holds: a float, or for an integer field an int.

    A bool or a non-number, and for an integer field a value that is not finite
    and whole, raise InputError naming the field; a whole float (4.0) reads as 4.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and integer and (isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    if real and not integer:
        with suppress(OverflowError):  # an int past the float range
            return float(value)
    what = "an integer" if integer else "a number"
    raise InputError(f"field {name!r}: expected {what}, got {value!r}")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory plus rename; never partial."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str | Path, obj: Any) -> None:
    atomic_write_text(path, canonical_json(obj))


def read_json(path: str | Path) -> Any:
    """The parsed document; text that is not UTF-8 JSON raises InputError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise InputError(f"{path}: malformed JSON: {err}") from None


@contextmanager
def csv_rows(path: str | Path) -> Iterator[tuple[list[str], Iterator[tuple[int, list[str]]]]]:
    """The header of a UTF-8 CSV file and its non-blank rows as ``(line, fields)``, ``line``
    the one the row starts on. An empty file, bytes that are not UTF-8, a row the csv
    module rejects and an InputError raised in the block raise InputError naming the path."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        start = 1  # the line the row being read starts on; a quoted field may span lines

        def rows() -> Iterator[tuple[int, list[str]]]:
            nonlocal start
            for fields in reader:
                if fields:
                    yield start, fields
                start = reader.line_num + 1

        try:
            if (header := next(reader, None)) is None:
                raise InputError("line 1: empty file")
            start = reader.line_num + 1
            yield header, rows()
        except UnicodeDecodeError:
            raise InputError(f"{path}: not UTF-8 text") from None
        except csv.Error as err:
            raise InputError(f"{path}: line {start}: {err}") from None
        except InputError as err:
            raise InputError(f"{path}: {err}") from None
