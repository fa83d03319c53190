"""Atomic file writes, canonical JSON, and the readers of JSON and CSV inputs."""

from __future__ import annotations

import csv
import json
import os
import re
import tempfile
from contextlib import contextmanager
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
def csv_rows(path: str | Path) -> Iterator:
    """A ``csv.reader`` over a UTF-8 file. Bytes that are not UTF-8, and rows the csv
    module rejects (a field over its size limit), raise InputError naming the file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except UnicodeDecodeError:
            raise InputError(f"{path}: not UTF-8 text") from None
        except csv.Error as err:
            raise InputError(f"{path} line {reader.line_num}: {err}") from None
