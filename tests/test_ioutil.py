import csv

import pytest

from ordreg.core import InputError
from ordreg.ioutil import atomic_write_text, csv_rows


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "new \ud800\n")  # a lone surrogate has no UTF-8 form
    assert target.read_bytes() == b"old\n"
    assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]


def _read(path):
    with csv_rows(path) as (header, rows):
        return header, list(rows)


def test_csv_rows_numbers_a_row_by_the_line_it_starts_on_and_skips_blank_rows(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_bytes(b'id,x\n"a\nb",1\n\nc,2\r\n\r\nd,3')
    assert _read(path) == (["id", "x"], [(2, ["a\nb", "1"]), (5, ["c", "2"]), (7, ["d", "3"])])


@pytest.mark.parametrize("content,message", [
    (b"", "line 1: empty file"),
    # the field passes the limit on line 4, in a row that starts on line 3
    (b'id,x\na,1\n"' + b"1" * (csv.field_size_limit() // 2) + b"\n" + b"1" * csv.field_size_limit()
     + b'",2\n', f"line 3: field larger than field limit ({csv.field_size_limit()})"),
    (b"id,x\na,\xe9\n", "not UTF-8 text"),
], ids=["empty", "field-limit", "not-utf8"])
def test_csv_rows_names_the_path_in_each_read_error(tmp_path, content, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(InputError) as err:
        _read(path)
    assert str(err.value) == f"{path}: {message}"


def test_csv_rows_prefixes_an_input_error_raised_in_its_block_with_the_path(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_bytes(b"id,x\na,1\nb,2\n")
    with pytest.raises(InputError) as err:
        with csv_rows(path) as (_, rows):
            for line, fields in rows:
                raise InputError(f"line {line}: {fields[0]!r} is wrong")
    assert str(err.value) == f"{path}: line 2: 'a' is wrong"
