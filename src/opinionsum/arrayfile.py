"""The one binary container for every numeric workdir artifact.

A file is one JSON header line, then raw arrays.  The header is an object
with the file's "kind", the writer's own keys, and "arrays": one
[name, dtype, shape] entry per array, in file order, with dtype "<f4" or
"<f8".  The arrays follow as little-endian bytes, in the listed order, and
nothing follows them.  Every value is finite.
"""

import json
import math
from pathlib import Path

import numpy as np

from .corpus import CorpusError

_DTYPES = ("<f4", "<f8")


def save_arrays(path, kind: str, meta: dict, arrays: list[tuple[str, str, np.ndarray]]) -> None:
    """Write meta and each (name, dtype, array) to path; arrays are cast to dtype."""
    header = {**meta, "kind": kind, "arrays": [[name, dtype, list(a.shape)] for name, dtype, a in arrays]}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for _, dtype, a in arrays:
            f.write(a.astype(dtype).tobytes())


def load_arrays(path, kind: str, keys: tuple[str, ...], layout) -> tuple[dict, list[np.ndarray]]:
    """The header and the float64 arrays, in file order, of a file of this
    kind.  layout(header) gives the entries the header's keys imply; another
    layout, a missing key, arrays that do not fill the file exactly or a
    non-finite value raise a CorpusError naming path."""
    head, _, body = Path(path).read_bytes().partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError:  # not JSON, or not text
        raise CorpusError(f"{path}: header is not JSON") from None
    if type(header) is not dict or header.get("kind") != kind:
        raise CorpusError(f"{path}: not a {kind} file")
    missing = [key for key in ("arrays", *keys) if key not in header]
    if missing:
        raise CorpusError(f"{path}: header lacks {missing}")
    try:
        expected = layout(header)
    except TypeError:  # a key of the wrong type
        expected = None
    entries = header["arrays"]
    # layout builds each [name, dtype, shape]; only the sizes it takes from the header need a check
    if entries != expected or not all(
        dtype in _DTYPES and all(type(n) is int and n >= 0 for n in shape) for _, dtype, shape in entries
    ):
        raise CorpusError(f"{path}: arrays {entries} are not the {expected} its header implies")
    arrays, offset = [], 0
    for name, dtype, shape in entries:
        count = math.prod(shape)
        size = count * np.dtype(dtype).itemsize
        if offset + size > len(body):
            raise CorpusError(f"{path}: truncated in array {name!r}")
        arrays.append(np.frombuffer(body, dtype, count, offset).reshape(shape).astype(np.float64))
        if not np.isfinite(arrays[-1]).all():
            raise CorpusError(f"{path}: non-finite value in array {name!r}")
        offset += size
    if offset != len(body):
        raise CorpusError(f"{path}: {len(body) - offset} trailing bytes")
    return header, arrays
