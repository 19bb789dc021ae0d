"""The one file container, for volumes and checkpoints.

Layout: magic ``SGCK``, a body, the CRC32 of the body. The body is the
version u16, the header length u32, a JSON header whose ``"kind"`` names
what the file holds, then named entries: name length u16, UTF-8 name,
dtype code u8, ndim u8, extents ndim x u32, payload; all little-endian.
A checkpoint (kind ``"hagan"`` or ``"sr"``) holds one entry per
parameter, buffer and Adam moment; a volume (kind ``"volume"``) holds
one (D, H, W) entry, ``"volume"``.

A write goes to ``path + ".tmp"``, is synced, then renamed over ``path``:
a write that fails part-way leaves the previous file intact. Reads are
bit-exact. A file that is not a well-formed container of the expected
kind, down to its last entry, raises FormatError.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib

import numpy as np

MAGIC = b"SGCK"
VERSION = 2
_DTYPES = ("<f4", "<f8", "<i8")          # indexed by the entry's dtype code


class FormatError(RuntimeError):
    """A file that is not a well-formed container of the expected kind."""


VolumeFormatError = FormatError


@contextlib.contextmanager
def parsing(path):
    """Raise FormatError for a lookup or conversion that fails on the
    contents of the verified file ``path``."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, struct.error) as e:
        raise FormatError(f"malformed file {path}: {type(e).__name__}: {e}") from None


def write_container(path, header: dict, entries) -> None:
    """Write ``header`` and the ``(name, array)`` pairs of ``entries``."""
    hb = json.dumps(header, sort_keys=True).encode()
    body = [struct.pack("<HI", VERSION, len(hb)), hb]
    for name, arr in entries:
        arr = np.ascontiguousarray(arr)
        le = arr.dtype.newbyteorder("<")
        nb = name.encode()
        body += [struct.pack("<H", len(nb)), nb,
                 struct.pack(f"<BB{arr.ndim}I", _DTYPES.index(le.str), arr.ndim, *arr.shape),
                 arr.astype(le).tobytes()]
    blob = b"".join(body)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(blob)
        f.write(struct.pack("<I", zlib.crc32(blob)))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def read_container(path, kind: str) -> tuple[dict, dict]:
    """Read and verify a container of ``kind``; returns (header, entries),
    entries mapping each name to its array.

    Checks, in this order: the magic, the CRC of the body, the format
    version; only then are the header and the entries parsed and the
    header's "kind" compared with ``kind``.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise FormatError(f"bad magic: {path} is not a {kind} file")
    blob = memoryview(raw)[4:-4]
    if len(raw) < 14 or zlib.crc32(blob) != struct.unpack("<I", raw[-4:])[0]:
        raise FormatError(f"checksum mismatch: {path} corrupt or truncated")
    version, hlen = struct.unpack_from("<HI", blob)
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}")
    with parsing(path):
        header = json.loads(bytes(blob[6:6 + hlen]))
        if header.get("kind") != kind:
            raise FormatError(f"file kind {header.get('kind')!r}, expected {kind!r}")
        entries = {}
        off = 6 + hlen
        while off < len(blob):
            (nlen,) = struct.unpack_from("<H", blob, off)
            name = bytes(blob[off + 2:off + 2 + nlen]).decode()
            off += 2 + nlen
            code, ndim = struct.unpack_from("<BB", blob, off)
            shape = struct.unpack_from(f"<{ndim}I", blob, off + 2)
            off += 2 + 4 * ndim
            if code >= len(_DTYPES):
                raise FormatError(f"entry '{name}' has unknown dtype code {code}")
            dt = np.dtype(_DTYPES[code])
            nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
            if off + nbytes > len(blob):
                raise FormatError(f"entry '{name}' is shorter than its extents {shape}")
            entries[name] = np.frombuffer(blob[off:off + nbytes], dtype=dt).reshape(shape).copy()
            off += nbytes
    return header, entries


def volume_write(path, vol: np.ndarray) -> None:
    """Write a (D, H, W) volume (a leading unit channel axis is dropped) as
    float64 if it is float64, else as float32."""
    arr = np.asarray(vol)
    if arr.ndim == 4 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 3:
        raise VolumeFormatError(f"expected a (D, H, W) volume, got shape {arr.shape}")
    if arr.dtype != np.float64:
        arr = arr.astype(np.float32, copy=False)
    write_container(path, {"kind": "volume"}, [("volume", arr)])


def volume_read(path) -> np.ndarray:
    _, entries = read_container(path, "volume")
    vol = entries.get("volume")
    if len(entries) != 1 or vol is None or vol.ndim != 3 or vol.dtype.kind != "f":
        raise VolumeFormatError(f"{path} does not hold one (D, H, W) float volume")
    return vol
