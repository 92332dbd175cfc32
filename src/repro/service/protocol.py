"""Wire protocol for the trace-ingest service.

Every message is one **frame**::

    offset  size  field
    0       4     magic  b"ADSV"
    4       1     protocol version (readers reject anything else)
    5       1     frame type (FrameType)
    6       2     reserved (readers reject anything but zero)
    8       4     header length  H  (big-endian u32)
    12      4     payload length P  (big-endian u32)
    16      4     CRC-32 over frame type + header + payload
    20      H     header: UTF-8 JSON object (seq numbers, session ids, ...)
    20+H    P     payload: raw bytes (CHUNK frames carry one column
                  block of trace records, laid out by
                  :func:`repro.service.session.chunk_to_bytes`)

Design notes:

* **Length-prefixed, never delimited** — a reader always knows exactly
  how many bytes to wait for, so a slow or stalled peer cannot wedge the
  parser, and a disconnect is detected as an *incomplete read* at a known
  boundary (:class:`FrameTruncated`), which the server treats as
  "session suspended, checkpoint and wait for resume".
* **CRC-guarded** — a torn or bit-flipped frame fails the checksum (or
  the magic, version, type, reserved or length checks the CRC does not
  cover) and raises :class:`ProtocolError` instead of feeding garbage
  records into a monitor.  A CHUNK payload has no checksum of its own:
  this CRC covers it on the wire, and the session log's record CRC in
  the store.
* **Versioned** — the version byte follows the same contract as the
  binary trace format: bump on any incompatible change, readers reject
  foreign versions with an actionable error.  Version 2 changed the
  CHUNK payload to binary trace format version 2; version 3 to a bare
  column block, with the trace meta sent once, in HELLO/RESUME.

Frame size limits bound a malicious or broken peer's memory cost before
any allocation happens.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from dataclasses import dataclass, field
from enum import IntEnum

__all__ = [
    "FRAME_MAGIC",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "PROTOCOL_VERSION",
    "Frame",
    "FrameTruncated",
    "FrameType",
    "ProtocolError",
    "encode_frame",
    "read_frame",
]

FRAME_MAGIC = b"ADSV"
PROTOCOL_VERSION = 3
"""Wire format version; incompatible changes bump this.

2: CHUNK payloads are binary trace format version 2 (one column block).
3: CHUNK payloads are a bare column block (record count, string
itemsizes, columns); the trace meta travels once, in HELLO/RESUME.  The
frame CRC also covers the frame type, and the reserved bytes must be
zero, so every single-byte flip of a frame is refused.
"""

MAX_HEADER_BYTES = 1 << 20        # 1 MiB of JSON is already pathological
MAX_PAYLOAD_BYTES = 64 << 20      # one chunk must stay far below this

_PREFIX = struct.Struct("!4sBBHIII")
PREFIX_BYTES = _PREFIX.size


class ProtocolError(ValueError):
    """The byte stream is not a valid frame (bad magic/version/CRC/size)."""


class FrameTruncated(ProtocolError):
    """The stream ended mid-frame (peer died or tore the frame)."""


class FrameType(IntEnum):
    """Every message the service speaks, both directions."""

    HELLO = 1      # client -> server: open a session (meta, session_id)
    WELCOME = 2    # server -> client: session accepted (next_seq)
    CHUNK = 3      # client -> server: trace records (seq; npz payload)
    ACK = 4        # server -> client: chunk applied (seq, live violations)
    BUSY = 5       # server -> client: backpressure (retry_after_s); the
    #                frame was NOT applied and must be resent
    FINISH = 6     # client -> server: stream complete, request verdict
    VERDICT = 7    # server -> client: the final CheckReport + diagnosis
    RESUME = 8     # client -> server: re-open an interrupted session
    RESUMED = 9    # server -> client: resume point (next_seq, verdict?)
    STATUS = 10    # client -> server: request fleet aggregates
    STATS = 11     # server -> client: fleet aggregates snapshot
    ERROR = 12     # server -> client: request rejected (message, fatal?)
    BYE = 13       # either direction: orderly close


@dataclass(slots=True)
class Frame:
    """One decoded frame."""

    type: FrameType
    header: dict = field(default_factory=dict)
    payload: bytes = b""

    def __repr__(self) -> str:  # compact: payloads can be megabytes
        return (f"Frame({self.type.name}, header={self.header}, "
                f"payload={len(self.payload)}B)")


def encode_frame(ftype: FrameType | int, header: dict | None = None,
                 payload: bytes = b"") -> bytes:
    """Serialize one frame to wire bytes."""
    header_bytes = json.dumps(header or {}, separators=(",", ":"),
                              sort_keys=True).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header of {len(header_bytes)} bytes exceeds the "
            f"{MAX_HEADER_BYTES}-byte limit")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte limit")
    crc = _crc(int(ftype), header_bytes, payload)
    prefix = _PREFIX.pack(FRAME_MAGIC, PROTOCOL_VERSION, int(ftype), 0,
                          len(header_bytes), len(payload), crc)
    return prefix + header_bytes + payload


def _crc(ftype: int, header_bytes: bytes, payload: bytes) -> int:
    """The frame's CRC-32: over its type byte, header and payload."""
    return zlib.crc32(payload, zlib.crc32(header_bytes,
                                          zlib.crc32(bytes((ftype,)))))


def _decode_prefix(prefix: bytes) -> tuple[FrameType, int, int, int]:
    magic, version, ftype, reserved, header_len, payload_len, crc = \
        _PREFIX.unpack(prefix)
    if magic != FRAME_MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (not a service stream, or the "
            "stream lost sync)")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this build speaks version {PROTOCOL_VERSION}; run client "
            "and server from the same release)")
    try:
        ftype = FrameType(ftype)
    except ValueError:
        raise ProtocolError(f"unknown frame type {ftype}") from None
    if reserved:
        raise ProtocolError(f"{ftype.name} frame has reserved bytes "
                            f"{reserved:#06x}, not zero")
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"frame header length {header_len} exceeds "
                            f"the {MAX_HEADER_BYTES}-byte limit")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"frame payload length {payload_len} exceeds "
                            f"the {MAX_PAYLOAD_BYTES}-byte limit")
    return ftype, header_len, payload_len, crc


def _decode_body(ftype: FrameType, header_bytes: bytes, payload: bytes,
                 crc: int) -> Frame:
    if _crc(ftype, header_bytes, payload) != crc:
        raise ProtocolError(
            f"{ftype.name} frame failed its CRC check (torn or corrupted "
            "in transit)")
    try:
        header = json.loads(header_bytes) if header_bytes else {}
    except ValueError as exc:
        raise ProtocolError(f"{ftype.name} frame header is not valid "
                            f"JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(f"{ftype.name} frame header must be a JSON "
                            f"object, got {type(header).__name__}")
    return Frame(ftype, header, payload)


async def read_frame(reader: asyncio.StreamReader) -> Frame | None:
    """Read one frame from the stream.

    Returns ``None`` on a clean EOF at a frame boundary (the peer closed
    between messages).  An EOF *inside* a frame — the signature of a
    mid-frame disconnect or a torn write — raises :class:`FrameTruncated`
    so the caller can suspend the session instead of mistaking the
    partial bytes for an orderly close.
    """
    try:
        prefix = await reader.readexactly(PREFIX_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise FrameTruncated(
            f"stream ended {len(exc.partial)} byte(s) into a frame "
            "prefix") from exc
    ftype, header_len, payload_len, crc = _decode_prefix(prefix)
    try:
        header_bytes = await reader.readexactly(header_len)
        payload = await reader.readexactly(payload_len)
    except asyncio.IncompleteReadError as exc:
        raise FrameTruncated(
            f"stream ended mid-{ftype.name} ({len(exc.partial)} of the "
            "remaining frame bytes arrived)") from exc
    return _decode_body(ftype, header_bytes, payload, crc)


def decode_frames(data: bytes) -> list[Frame]:
    """Decode a byte buffer holding zero or more complete frames.

    Synchronous sibling of :func:`read_frame` for tests and offline
    tooling; trailing partial bytes raise :class:`FrameTruncated`.
    """
    frames = []
    offset = 0
    while offset < len(data):
        if len(data) - offset < PREFIX_BYTES:
            raise FrameTruncated(
                f"{len(data) - offset} trailing byte(s) are not a frame")
        ftype, header_len, payload_len, crc = _decode_prefix(
            data[offset:offset + PREFIX_BYTES])
        end = offset + PREFIX_BYTES + header_len + payload_len
        if end > len(data):
            raise FrameTruncated(f"buffer ends mid-{ftype.name}")
        header_bytes = data[offset + PREFIX_BYTES:
                            offset + PREFIX_BYTES + header_len]
        payload = data[offset + PREFIX_BYTES + header_len:end]
        frames.append(_decode_body(ftype, header_bytes, payload, crc))
        offset = end
    return frames
