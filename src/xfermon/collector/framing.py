"""Length-prefixed binary framing for the ingest wire.

Each frame is a 4-byte unsigned big-endian payload length followed by the
payload (a serialized metric envelope). Frames above 64 KiB are illegal and
cause the receiving side to reset the connection.
"""
from __future__ import annotations

import struct

MAX_FRAME_BYTES = 64 * 1024
_LEN = struct.Struct(">I")
HEADER_BYTES = _LEN.size


class FrameError(ValueError):
    """Structurally invalid frame (oversize or negative length).

    ``frames`` holds the whole payloads that the failing ``feed`` call split
    off before it reached the bad header."""

    def __init__(self, message: str, frames: list[bytes] | None = None):
        super().__init__(message)
        self.frames = frames or []


def encode_frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"payload of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental decoder: feed arbitrary byte chunks, iterate payloads."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> list[bytes]:
        self._buf.extend(chunk)
        out: list[bytes] = []
        while True:
            if len(self._buf) < HEADER_BYTES:
                return out
            (length,) = _LEN.unpack_from(self._buf, 0)
            if length > MAX_FRAME_BYTES:
                raise FrameError(f"frame length {length} exceeds {MAX_FRAME_BYTES}", out)
            if len(self._buf) < HEADER_BYTES + length:
                return out
            out.append(bytes(self._buf[HEADER_BYTES : HEADER_BYTES + length]))
            del self._buf[: HEADER_BYTES + length]

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
