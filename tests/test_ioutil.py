import pytest

from ordreg.ioutil import atomic_write_text


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "new \ud800\n")  # a lone surrogate has no UTF-8 form
    assert target.read_bytes() == b"old\n"
    assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]
