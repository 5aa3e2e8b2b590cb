"""Binary state snapshots.

Layout: 16-byte header (magic b"DYAD", u32 version, u32 branching, u32
depth, all little-endian) followed by node_count little-endian IEEE doubles
in heap order.
"""

from __future__ import annotations

import struct

import numpy as np

from .core import ModelParams, TreeState, node_count
from .errors import StateFileError

MAGIC = b"DYAD"
VERSION = 1
_HEADER = struct.Struct("<4sIII")


def dump_state(state: TreeState, path) -> None:
    params = state.params
    header = _HEADER.pack(MAGIC, VERSION, params.branching, params.depth)
    values = np.ascontiguousarray(state.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.tobytes())


def load_state(path, params: ModelParams) -> TreeState:
    """Read a snapshot; the caller supplies the model parameters, which must
    agree with the header's branching and depth.  A malformed or mismatched
    file raises StateFileError; an unreadable one, OSError."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise StateFileError(f"{path}: truncated header")
        magic, version, branching, depth = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise StateFileError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise StateFileError(f"{path}: unsupported version {version}")
        if branching != params.branching or depth != params.depth:
            raise StateFileError(
                f"{path}: header (branching={branching}, depth={depth}) does not "
                f"match params (branching={params.branching}, depth={params.depth})")
        n = node_count(branching, depth, params.max_nodes)
        raw = fh.read(8 * n)
        if len(raw) != 8 * n:
            raise StateFileError(f"{path}: expected {8 * n} data bytes, got {len(raw)}")
    # TreeState's copy converts to native byte order
    return TreeState(np.frombuffer(raw, dtype="<f8"), params)
