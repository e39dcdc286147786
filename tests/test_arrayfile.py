"""The binary container shared by embedding spaces, checkpoints and phrase vectors."""

import numpy as np
import pytest

from opinionsum.arrayfile import load_arrays, save_arrays
from opinionsum.corpus import CorpusError
from util import rewrite_arrayfile


def _layout(header):
    return [["a", "<f8", [header["rows"], 2]], ["b", "<f4", [4]], ["c", "<f8", [0, 5]]]


def _save(path):
    rng = np.random.default_rng(0)
    arrays = [("a", "<f8", rng.normal(size=(3, 2))), ("b", "<f4", rng.normal(size=4)), ("c", "<f8", np.empty((0, 5)))]
    save_arrays(path, "test", {"rows": 3}, arrays)
    return arrays


def test_roundtrip_gives_writable_float64_in_file_order(tmp_path):
    path = tmp_path / "f.bin"
    saved = _save(path)
    header, arrays = load_arrays(path, "test", ("rows",), _layout)
    assert header["rows"] == 3
    assert header["arrays"] == [["a", "<f8", [3, 2]], ["b", "<f4", [4]], ["c", "<f8", [0, 5]]]
    assert np.array_equal(arrays[0], saved[0][2])
    assert np.array_equal(arrays[1], saved[1][2].astype("<f4").astype(np.float64))
    assert arrays[2].shape == (0, 5)
    assert all(a.dtype == np.float64 and a.flags.writeable for a in arrays)


def test_same_arrays_same_bytes(tmp_path):
    _save(tmp_path / "a.bin")
    _save(tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def _set_entry(index, value):
    def edit(header, blocks):
        header["arrays"][0][index] = value

    return edit


def _set_rows(value):
    """Damage the header's row count and the first array's shape alike."""

    def edit(header, blocks):
        header["rows"] = header["arrays"][0][2][0] = value

    return edit


def _append(extra):
    def edit(path):
        path.write_bytes(path.read_bytes() + extra)

    return edit


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda h, b: h.update(kind="other"), "not a test file"),
        (lambda h, b: h.pop("rows"), r"header lacks \['rows'\]"),
        (lambda h, b: h.pop("arrays"), r"header lacks \['arrays'\]"),
        (lambda h, b: h.update(arrays={"a": 1}), "arrays"),
        (_set_entry(1, "|O"), "arrays"),  # an object dtype
        (_set_entry(1, ">f8"), "arrays"),  # big-endian
        (_set_entry(2, [3, 5]), "arrays"),  # not the shape the header implies
        (_set_rows(-3), "arrays"),  # a negative dimension
        (_set_rows(3.0), "arrays"),
        (_set_rows(True), "arrays"),
        (_set_rows([3]), "arrays"),
        (lambda h, b: h.update(rows="3"), "arrays"),  # the layout raises TypeError
        (_set_entry(0, 7), "arrays"),
        (lambda h, b: h["arrays"].append(["d", "<f8"]), "arrays"),
    ],
    ids=["kind", "missing-key", "no-arrays", "arrays-not-a-list", "object-dtype", "big-endian", "wrong-shape",
         "negative-dim", "float-dim", "bool-dim", "list-dim", "string-rows", "name-not-a-string", "short-entry"],
)
def test_damaged_header_names_the_file(tmp_path, damage, message):
    path = tmp_path / "damaged.bin"
    _save(path)
    rewrite_arrayfile(path, damage)
    with pytest.raises(CorpusError, match=r"damaged\.bin: " + message):
        load_arrays(path, "test", ("rows",), _layout)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda p: p.write_bytes(b"\x00\x01junk\n"), "header is not JSON"),
        (lambda p: p.write_bytes(b"[1, 2]\n"), "not a test file"),
        (lambda p: p.write_bytes(b""), "header is not JSON"),
        (lambda p: p.write_bytes(p.read_bytes()[:-1]), "truncated in array 'b'"),
        (_append(b"\0"), "1 trailing bytes"),
    ],
    ids=["not-json", "not-an-object", "empty", "truncated", "trailing"],
)
def test_damaged_bytes_name_the_file(tmp_path, damage, message):
    path = tmp_path / "damaged.bin"
    _save(path)
    damage(path)
    with pytest.raises(CorpusError, match=r"damaged\.bin: " + message):
        load_arrays(path, "test", ("rows",), _layout)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, dtype", [("a", "<f8"), ("b", "<f4")])
def test_non_finite_value_names_the_file_and_array(tmp_path, value, name, dtype):
    def edit(header, blocks):
        size = np.dtype(dtype).itemsize
        blocks[name] = blocks[name][:size] + np.array([value], dtype).tobytes() + blocks[name][2 * size :]

    path = tmp_path / "damaged.bin"
    _save(path)
    rewrite_arrayfile(path, edit)
    with pytest.raises(CorpusError, match=rf"damaged\.bin: non-finite value in array '{name}'"):
        load_arrays(path, "test", ("rows",), _layout)
