"""Bit-exact codec for the 14-byte Pi protocol frame.

Wire layout (big-endian, 14 bytes total):

    byte 0      (version << 4) | msg_type      version is fixed at 1;
                                               msg_type 1=EVENT, 2=STATUS
    bytes 1-4   sensor_id    unsigned 32-bit
    bytes 5-8   seq_no       unsigned 32-bit, counts every frame the sensor
                             has ever transmitted (events and status alike)
    bytes 9-12  level_index  signed 32-bit two's-complement, net count of
                             upward minus downward delta crossings since
                             activation
    byte 13     CRC-8 over bytes 0-12, polynomial 0x07, init 0x00,
                no reflection, no final XOR

EVENT and STATUS share the one layout so sensors stay trivially simple;
STATUS repeats the current level_index, which lets the sink re-anchor a
quiet sensor after losses. This layout is the stable wire contract: golden
hex vectors in the test suite pin it bit-for-bit.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import NamedTuple

FRAME_LEN = 14
PI_VERSION = 1

_BODY = struct.Struct(">BIIi")


class MsgType(IntEnum):
    EVENT = 1
    STATUS = 2


class PiProtocolError(Exception):
    """Base class for all codec failures."""


class InvalidHeader(PiProtocolError):
    """Encode refused: msg_type or a body field out of range."""


class BadLength(PiProtocolError):
    """Decode refused: input is not exactly 14 bytes."""


class BadCrc(PiProtocolError):
    """Decode refused: checksum mismatch."""


class UnknownVersion(PiProtocolError):
    """Decode refused: version nibble is not 1."""


class UnknownType(PiProtocolError):
    """Decode refused: msg_type nibble is neither EVENT nor STATUS."""


def _build_crc_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table.append(crc)
    return tuple(table)


_CRC_TABLE = _build_crc_table()


def crc8(data: bytes) -> int:
    """CRC-8, polynomial 0x07, init 0x00, no reflection, no final XOR."""
    crc = 0
    for byte in data:
        crc = _CRC_TABLE[crc ^ byte]
    return crc


class PiFrame(NamedTuple):
    """One sensor transmission. Its version and checksum live only on the wire.

    Immutable, and equal to the plain tuple of its fields in this order.
    """

    msg_type: MsgType
    sensor_id: int
    seq_no: int
    level_index: int


# The header byte of each msg_type, and back.
_HEADERS = {t: (PI_VERSION << 4) | t for t in MsgType}
_HEADER_TYPES = {header: t for t, header in _HEADERS.items()}
_CRC_BYTES = tuple(bytes((crc,)) for crc in range(256))


def encode(frame: PiFrame) -> bytes:
    """Serialize a frame to its 14-byte wire form.

    The header byte carries PI_VERSION. Every refusal is InvalidHeader: a
    msg_type with no header byte, or a body field that is not an integer in
    its wire range.
    """
    try:
        header = _HEADERS[frame.msg_type]
    except (KeyError, TypeError):  # TypeError: an unhashable msg_type
        raise InvalidHeader(f"no header for msg_type {frame.msg_type!r}") from None
    try:
        body = _BODY.pack(header, frame.sensor_id, frame.seq_no, frame.level_index)
    except struct.error as exc:
        raise InvalidHeader(
            f"sensor_id {frame.sensor_id!r}, seq_no {frame.seq_no!r}, level_index {frame.level_index!r}: {exc}"
        ) from None
    return body + _CRC_BYTES[crc8(body)]


def decode(data: bytes) -> PiFrame:
    """Parse a 14-byte wire frame; inverse of encode on the valid domain.

    Failures are distinguishable and checked in this order: BadLength,
    BadCrc, UnknownVersion, UnknownType. The CRC is checked by its residue:
    with init 0, no reflection and no final XOR, the CRC of the whole frame
    is 0 exactly when byte 13 is the CRC of bytes 0-12.
    """
    if len(data) != FRAME_LEN:
        raise BadLength(f"expected {FRAME_LEN} bytes, got {len(data)}")
    if crc8(data):
        raise BadCrc(f"crc mismatch: computed {crc8(data[:13]):#04x}, frame carries {data[13]:#04x}")
    header, sensor_id, seq_no, level_index = _BODY.unpack_from(data)
    msg_type = _HEADER_TYPES.get(header)
    if msg_type is None:
        if header >> 4 != PI_VERSION:
            raise UnknownVersion(f"version {header >> 4}")
        raise UnknownType(f"msg_type {header & 0x0F}")
    return PiFrame(msg_type, sensor_id, seq_no, level_index)
