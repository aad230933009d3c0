"""Fixed-point serial protocol between the planner host and the microcontroller.

Wire frame: 0xFA start byte, payload length byte, payload, CRC16 big-endian.
The command payload is three big-endian 16-bit fixed-point fields in
(accelerator, brake, steering) order, each round(x * 65535) for x in [0, 1],
so a command frame is always 10 bytes.  The CRC covers the payload only.
decode_packet is the one check of a frame; StreamDecoder finds the frame
boundaries in a raw byte stream and hands each candidate to it.
"""

from __future__ import annotations

import struct
from binascii import crc_hqx
from dataclasses import dataclass

START_BYTE = 0xFA
COMMAND_PAYLOAD_LEN = 6
COMMAND_FRAME_LEN = COMMAND_PAYLOAD_LEN + 4
FIXED_POINT_FULL_SCALE = 65535
_COMMAND_FIELDS = struct.Struct(">HHH")  # app, bpp, steer


class FrameError(ValueError):
    pass


class BadStartError(FrameError):
    pass


class BadLengthError(FrameError):
    pass


class BadCrcError(FrameError):
    pass


@dataclass(frozen=True)
class CommandPacket:
    """Normalized actuator command, every field in [0, 1]."""

    app: float
    bpp: float
    steer: float

    def __post_init__(self):
        for name in ("app", "bpp", "steer"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


def _command(app: float, bpp: float, steer: float) -> CommandPacket:
    """Unchecked CommandPacket for fields in [0, 1] by construction (a 16-bit count / 65535)."""
    pkt = object.__new__(CommandPacket)
    fields = pkt.__dict__  # a frozen dataclass blocks only attribute assignment
    fields["app"] = app
    fields["bpp"] = bpp
    fields["steer"] = steer
    return pkt


def crc16_ccitt(data: bytes) -> int:
    """CRC16/CCITT-FALSE of data.

    Polynomial 0x1021 starting from 0xFFFF, MSB first, no reflection, no
    final xor; the check value of b"123456789" is 0x29B1.  binascii's
    crc_hqx is this CRC with the start value as its second argument.
    """
    return crc_hqx(data, 0xFFFF)


def _encode_fixed(value: float, name: str) -> int:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value} outside [0, 1]")
    return round(value * FIXED_POINT_FULL_SCALE)


def encode_packet(app: float, bpp: float, steer: float) -> bytes:
    """Serialize a command into the 10-byte wire frame."""
    payload = _COMMAND_FIELDS.pack(_encode_fixed(app, "app"), _encode_fixed(bpp, "bpp"),
                                   _encode_fixed(steer, "steer"))
    crc = crc16_ccitt(payload)
    return bytes((START_BYTE, COMMAND_PAYLOAD_LEN)) + payload + crc.to_bytes(2, "big")


def decode_packet(buf: bytes) -> CommandPacket:
    """Check a command frame and unpack its three fields.

    The first check that fails raises, in this order: at least 2 bytes,
    the start byte, the length byte against the frame's size, the CRC,
    and a 6-byte command payload.  The error types tell framing noise
    (BadStartError, BadLengthError) from corruption (BadCrcError).
    """
    size = len(buf)
    if size < 2:
        raise BadLengthError(f"frame truncated at {size} bytes")
    if buf[0] != START_BYTE:
        raise BadStartError(f"expected start byte 0x{START_BYTE:02X}, got 0x{buf[0]:02X}")
    length = buf[1]
    if size != length + 4:
        raise BadLengthError(f"length byte {length} but frame is {size} bytes")
    crc = buf[-2] << 8 | buf[-1]
    computed = crc_hqx(buf[2:-2], 0xFFFF)  # crc16_ccitt, without the call
    if crc != computed:
        raise BadCrcError(f"crc mismatch: frame 0x{crc:04X}, computed 0x{computed:04X}")
    if length != COMMAND_PAYLOAD_LEN:
        raise BadLengthError(f"command payload must be {COMMAND_PAYLOAD_LEN} bytes, got {length}")
    app, bpp, steer = _COMMAND_FIELDS.unpack_from(buf, 2)
    return _command(app / FIXED_POINT_FULL_SCALE, bpp / FIXED_POINT_FULL_SCALE,
                    steer / FIXED_POINT_FULL_SCALE)


class StreamDecoder:
    """Byte-at-a-time resynchronizing decoder for a raw serial stream.

    Single-owner: feed() is not reentrant. Garbage before a start byte is
    discarded; a frame failing its length or CRC check costs one byte of
    progress and the scan resumes, so a corrupted stream re-locks on the
    next genuine frame boundary.
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[CommandPacket]:
        """Append data to the buffer; returns the packets decoded, in stream order."""
        if not self._buf and len(data) == COMMAND_FRAME_LEN:
            # one whole frame into an empty buffer, as the control loop feeds it
            try:
                return [decode_packet(data)]
            except FrameError:
                data = data[1:]  # the scan would check it again, then drop byte 0
        self._buf.extend(data)
        out: list[CommandPacket] = []
        while True:
            start = self._buf.find(START_BYTE)
            if start < 0:
                self._buf.clear()
                return out
            if start:
                del self._buf[:start]
            if len(self._buf) < 2:
                return out
            length = self._buf[1]
            total = length + 4
            if length != COMMAND_PAYLOAD_LEN:
                del self._buf[0]
                continue
            if len(self._buf) < total:
                return out
            candidate = bytes(self._buf[:total])
            try:
                out.append(decode_packet(candidate))
            except FrameError:
                del self._buf[0]
                continue
            del self._buf[:total]
