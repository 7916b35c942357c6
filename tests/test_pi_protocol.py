import random
import struct

import pytest

from asmisim.pi_protocol import (
    FRAME_LEN,
    PI_VERSION,
    BadCrc,
    BadLength,
    InvalidHeader,
    MsgType,
    PiFrame,
    PiProtocolError,
    UnknownType,
    UnknownVersion,
    crc8,
    decode,
    encode,
)

from golden_frames import GOLDEN_FRAMES, body_oracle, crc8_oracle


def test_frame_len_constant():
    # Both pipelines in comparison.csv pay this many bytes per message.
    assert FRAME_LEN == 14


def test_crc8_check_value():
    assert crc8(b"123456789") == 0xF4


def test_crc8_matches_bitwise_oracle_on_random_payloads():
    rng = random.Random(0xC8C8)
    for _ in range(300):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 32)))
        assert crc8(data) == crc8_oracle(data)


def test_golden_encode():
    for (msg_type, sensor_id, seq_no, level_index), wire_hex in GOLDEN_FRAMES:
        frame = PiFrame(MsgType(msg_type), sensor_id, seq_no, level_index)
        assert encode(frame).hex() == wire_hex


def test_golden_decode():
    for (msg_type, sensor_id, seq_no, level_index), wire_hex in GOLDEN_FRAMES:
        frame = decode(bytes.fromhex(wire_hex))
        assert frame.msg_type == MsgType(msg_type)
        assert frame.sensor_id == sensor_id
        assert frame.seq_no == seq_no
        assert frame.level_index == level_index


def test_every_single_bit_corruption_is_rejected():
    for _fields, wire_hex in GOLDEN_FRAMES:
        wire = bytes.fromhex(wire_hex)
        flips = 0
        for byte_index in range(FRAME_LEN):
            for bit in range(8):
                corrupted = bytearray(wire)
                corrupted[byte_index] ^= 1 << bit
                with pytest.raises(PiProtocolError):
                    decode(bytes(corrupted))
                flips += 1
        assert flips == 112


def test_roundtrip_random_frames():
    rng = random.Random(1414)
    for _ in range(200):
        frame = PiFrame(
            msg_type=MsgType(rng.choice([1, 2])),
            sensor_id=rng.randrange(2**32),
            seq_no=rng.randrange(2**32),
            level_index=rng.randrange(-(2**31), 2**31),
        )
        wire = encode(frame)
        assert len(wire) == FRAME_LEN
        assert decode(wire) == frame


def test_bad_length():
    with pytest.raises(BadLength):
        decode(b"")
    with pytest.raises(BadLength):
        decode(bytes(13))
    with pytest.raises(BadLength):
        decode(bytes(15))


def test_unknown_version_rejected():
    body = bytearray(body_oracle(1, 5, 6, 7))
    body[0] = (3 << 4) | 1  # version 3
    wire = bytes(body) + bytes([crc8_oracle(bytes(body))])
    with pytest.raises(UnknownVersion):
        decode(wire)


def test_unknown_type_rejected():
    body = bytearray(body_oracle(1, 5, 6, 7))
    body[0] = (1 << 4) | 3  # type 3
    wire = bytes(body) + bytes([crc8_oracle(bytes(body))])
    with pytest.raises(UnknownType):
        decode(wire)


def test_crc_checked_before_version_and_type():
    # Garbage header with a wrong CRC must surface as BadCrc, not as a
    # header complaint: integrity first, interpretation second.
    body = bytearray(body_oracle(1, 5, 6, 7))
    body[0] = 0xFF
    wire = bytes(body) + bytes([crc8_oracle(bytes(body)) ^ 0x55])
    with pytest.raises(BadCrc):
        decode(wire)


def test_encode_rejects_out_of_range_fields():
    good = PiFrame(MsgType.EVENT, 1, 1, 0)
    for bad in [
        PiFrame(MsgType.EVENT, -1, 1, 0),
        PiFrame(MsgType.EVENT, 2**32, 1, 0),
        PiFrame(MsgType.EVENT, 1, -1, 0),
        PiFrame(MsgType.EVENT, 1, 2**32, 0),
        PiFrame(MsgType.EVENT, 1, 1, 2**31),
        PiFrame(MsgType.EVENT, 1, 1, -(2**31) - 1),
    ]:
        with pytest.raises(InvalidHeader):
            encode(bad)
    assert decode(encode(good)) == good


def test_encode_rejects_bad_version_and_type():
    with pytest.raises(InvalidHeader):
        encode(PiFrame(MsgType.EVENT, 1, 1, 0, version=2))
    with pytest.raises(InvalidHeader):
        encode(PiFrame(9, 1, 1, 0))


def test_frame_is_an_immutable_tuple_in_field_order():
    frame = PiFrame(MsgType.STATUS, 7, 8, -9)
    with pytest.raises(AttributeError):
        frame.seq_no = 9
    msg_type, sensor_id, seq_no, level_index, version = frame
    assert (msg_type, sensor_id, seq_no, level_index, version) == (MsgType.STATUS, 7, 8, -9, PI_VERSION)
    assert frame == (MsgType.STATUS, 7, 8, -9, 1) == tuple(frame)
    assert frame.version == 1
    decoded = decode(encode(frame))
    assert type(decoded) is PiFrame and decoded == frame
    assert type(decoded.msg_type) is MsgType


# The codec as it stood before decode checked the CRC by its residue and
# encode looked its header up, kept verbatim as the reference.
_BODY = struct.Struct(">BIIi")


def _reference_encode(frame: PiFrame) -> bytes:
    """Serialize a frame to its 14-byte wire form."""
    if frame.version != PI_VERSION:
        raise InvalidHeader(f"version must be {PI_VERSION}, got {frame.version}")
    if frame.msg_type not in (MsgType.EVENT, MsgType.STATUS):
        raise InvalidHeader(f"unknown msg_type {frame.msg_type!r}")
    if not 0 <= frame.sensor_id < 2**32:
        raise InvalidHeader(f"sensor_id {frame.sensor_id} outside unsigned 32-bit range")
    if not 0 <= frame.seq_no < 2**32:
        raise InvalidHeader(f"seq_no {frame.seq_no} outside unsigned 32-bit range")
    if not -(2**31) <= frame.level_index < 2**31:
        raise InvalidHeader(f"level_index {frame.level_index} outside signed 32-bit range")
    body = _BODY.pack(
        (frame.version << 4) | int(frame.msg_type),
        frame.sensor_id,
        frame.seq_no,
        frame.level_index,
    )
    return body + bytes((crc8(body),))


def _reference_decode(data: bytes) -> PiFrame:
    """Parse a 14-byte wire frame; inverse of encode on the valid domain.

    Failures are distinguishable: BadLength, BadCrc, UnknownVersion,
    UnknownType.
    """
    if len(data) != FRAME_LEN:
        raise BadLength(f"expected {FRAME_LEN} bytes, got {len(data)}")
    if crc8(data[:13]) != data[13]:
        raise BadCrc(f"crc mismatch: computed {crc8(data[:13]):#04x}, frame carries {data[13]:#04x}")
    header, sensor_id, seq_no, level_index = _BODY.unpack(data[:13])
    version = header >> 4
    msg_type = header & 0x0F
    if version != PI_VERSION:
        raise UnknownVersion(f"version {version}")
    if msg_type not in (MsgType.EVENT, MsgType.STATUS):
        raise UnknownType(f"msg_type {msg_type}")
    return PiFrame(
        msg_type=MsgType(msg_type),
        sensor_id=sensor_id,
        seq_no=seq_no,
        level_index=level_index,
    )


def _outcome(fn, arg):
    """What fn(arg) returns, or the class of what it raises."""
    try:
        return fn(arg)
    except Exception as exc:
        return type(exc)


def _oracle_inputs(rng):
    """Every header byte under seeded bodies, with a correct and a wrong
    CRC, and random bytes of every length from 0 to 20."""
    for header in range(256):
        for _ in range(8):
            body = bytes((header,)) + rng.randbytes(12)
            crc = crc8_oracle(body)
            yield body + bytes((crc,))
            yield body + bytes((crc ^ rng.randrange(1, 256),))
    for length in range(21):
        for _ in range(20):
            yield rng.randbytes(length)


def test_decode_matches_reference_on_every_header_and_length():
    outcomes = set()
    for data in _oracle_inputs(random.Random(0xDEC0)):
        expected = _outcome(_reference_decode, data)
        got = _outcome(decode, data)
        assert got == expected, data.hex()
        if isinstance(got, PiFrame):
            assert type(got.msg_type) is MsgType
            outcomes.add(got.msg_type)
        else:
            outcomes.add(got)
    assert outcomes == {MsgType.EVENT, MsgType.STATUS, BadLength, BadCrc, UnknownVersion, UnknownType}


def test_crc_residue_is_zero_exactly_for_the_correct_check_byte():
    rng = random.Random(0x0E51)
    for _ in range(300):
        body = rng.randbytes(rng.randrange(0, 32))
        assert crc8(body + bytes((crc8(body),))) == 0
        wrong = crc8(body) ^ rng.randrange(1, 256)
        assert crc8(body + bytes((wrong,))) != 0


def test_encode_matches_reference_on_the_valid_domain():
    rng = random.Random(0xE0C0)
    edges = {
        "sensor_id": (0, 1, 2**32 - 1),
        "seq_no": (0, 1, 2**32 - 1),
        "level_index": (-(2**31), -1, 0, 2**31 - 1),
    }
    for _ in range(500):
        fields = {
            name: rng.choice(values) if rng.random() < 0.3 else rng.randrange(values[0], values[-1] + 1)
            for name, values in edges.items()
        }
        frame = PiFrame(rng.choice(list(MsgType)), **fields)
        assert encode(frame) == _reference_encode(frame)


HOSTILE_FIELD_VALUES = (None, "7", b"\x01", 1.5, 1.0, -1, 2**31, 2**32, float("nan"), float("inf"), [], {}, 3, 0)


@pytest.mark.parametrize("field", ["version", "msg_type", "sensor_id", "seq_no", "level_index"])
def test_encode_refuses_hostile_fields_with_invalid_header_only(field):
    good = PiFrame(MsgType.STATUS, 7, 8, -9)
    for value in HOSTILE_FIELD_VALUES:
        frame = good._replace(**{field: value})
        expected = _outcome(_reference_encode, frame)
        if isinstance(expected, bytes):
            assert encode(frame) == expected, value
        elif field == "version" and value == PI_VERSION:
            # The reference leaked TypeError from `1.0 << 4`. A version equal
            # to 1 now encodes as 1, as a msg_type equal to 1 or 2 always did.
            assert encode(frame) == encode(good)
        else:
            with pytest.raises(InvalidHeader):
                encode(frame)

