"""Wire protocol v8: the versioned binary codec of the cluster runtime.

One explicit binary format, no pickle, shared by every runtime wire path:
the loopback TCP transport of :mod:`repro.runtime.transport`, the
worker-to-worker links of the cluster runtime and the coordinator's control
channel.  What v1–v7 carried and why each changed is told in
``docs/architecture.md`` (The cluster runtime and wire protocol v8).  v8 has
one monitoring layout that carries one or more messages: what a monitor
sends one peer in one callback travels as one frame.

Frame layout (network byte order)::

    offset  size  field
    0       2     magic   b"RW"           (Repro Wire)
    2       1     version 0x08            (this module speaks exactly one)
    3       1     type    frame type tag (see the ``TYPE_*`` constants)
    4       4     length  payload size in bytes, at most MAX_FRAME_BYTES
    8       n     payload type-specific binary body

A monitoring frame (:data:`TYPE_MONITORING`) carries a *delivery instant* —
the virtual-time ``due`` the sending transport computed — as a leading
float64, then a message count (at least one) and the messages in send
order, each a tag byte (:data:`TYPE_TOKEN`, :data:`TYPE_TERMINATION`) and
its body; a monitor receives nothing else.  It decodes to the message
itself when it holds one, else to the tuple of them.  Control frames
(:data:`TYPE_CONTROL`) carry one string-keyed mapping as canonical JSON —
sorted keys, no whitespace, UTF-8, no ``NaN`` — so re-encoding a decoded
control frame gives back its bytes; the coordinator/worker handshake
travels in them.  Types 0x03 and 0x04 are unassigned: they carried a bare
primitive value and a verdict digest, which no peer of this version sends,
and they decode as unknown types; 0x01 and 0x02 are no frame type since v8.

Monitoring bodies use variable-length integers (LEB128, zigzag for signed)
and *packed integers*: a width byte (1, 2 or 4, the least that holds the
largest value) followed by the values back to back.

Termination body: ``process``, ``final_event_sn``, ``declared``.  Token body::

    routing   parent_process, token_id, hops, declared
    n         process count; ``known`` as n packed integers
    runs      count, then per process in ascending order: the process and
              its run (below)
    entries   count, then per entry: transition id, the n ``(care, want)``
              pairs of ``bits`` as 2n packed integers, start_cut + cut +
              depend + min_positions as 4n packed integers, n ``satisfied``
              bytes, eval, parked_on, waiting_for

    run       event count; one byte D and the run's D ≤ 255 distinct letter
              masks in order of first use, as D packed integers; one byte
              per event indexing them; every component of every clock as
              count * n packed integers

so writing or reading a run of events takes a constant number of calls,
not a loop per clock component.  ``declared`` is a bitset of automaton states:
at most ten varint bytes, states 0–69 (case-study automata have five).  A mask is over
``automaton.compiled.atoms``, which every node of a session derives,
sorted, from the same specification; the codec carries masks as they are,
and the receiving monitor ignores a run holding a mask outside its
alphabet.  Every message type of
:mod:`repro.core.messages` writes its fields in a fixed order with
canonicalised container order (map keys and set elements sorted),
so encoding is **byte-stable**: ``encode(decode(encode(m))) == encode(m)``,
which the codec property tests enforce.

The decoder trusts nothing: every count, width and table index is checked
against the bytes that are left *before* anything is allocated, sliced or
indexed on its word, so corrupt or hostile input raises a
:class:`CodecError` subclass and nothing else.

Version policy
--------------
The version byte identifies the frame layout *and* the payload encoders as
one unit; there is no in-band downgrade and no second decode path.  A
decoder that sees a version it does not speak raises
:class:`ProtocolVersionError` naming both versions, and the coordinator
compares :data:`PROTOCOL_VERSION` at the worker's hello, so a mixed-version
cluster fails fast at the handshake with an actionable diagnostic instead
of corrupting a run.  One version per release: bumping the protocol means
bumping :data:`PROTOCOL_VERSION` and upgrading every node together.
"""

from __future__ import annotations

import asyncio
import json
import struct
from collections.abc import Sequence
from itertools import chain

from ..core.messages import TerminationNotice, Token, TokenEntry

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "HEADER",
    "TYPE_MONITORING",
    "TYPE_TOKEN",
    "TYPE_TERMINATION",
    "TYPE_CONTROL",
    "CodecError",
    "CorruptFrameError",
    "ProtocolVersionError",
    "encode_wire",
    "decode_wire",
    "encode_control",
    "decode_control",
    "decode_header",
    "split_frame",
    "read_frame_async",
]

#: the two magic bytes opening every frame
MAGIC = b"RW"
#: the wire protocol version this codec speaks (exactly one)
PROTOCOL_VERSION = 8
#: the largest payload a header may announce: readers buffer a whole payload
#: before decoding it, and honest tokens are a few KB
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: frame header: magic (2s) + version (B) + type (B) + payload length (I)
HEADER = struct.Struct(">2sBBI")

#: the tags of a monitoring frame's messages: a :class:`repro.core.messages.Token`
#: and a :class:`repro.core.messages.TerminationNotice`
TYPE_TOKEN = 0x01
TYPE_TERMINATION = 0x02
#: a monitoring frame: its delivery instant and one or more tagged messages
TYPE_MONITORING = 0x05
#: a string-keyed control mapping (coordinator/worker handshake)
TYPE_CONTROL = 0x10

_FLOAT64 = struct.Struct(">d")


class CodecError(ValueError):
    """Base class for every wire-codec failure."""


class CorruptFrameError(CodecError):
    """A frame that is structurally invalid (bad magic, type, or payload)."""


class ProtocolVersionError(CodecError):
    """A frame whose wire protocol version this codec does not speak."""

    def __init__(self, peer_version: int) -> None:
        self.peer_version = peer_version
        super().__init__(
            f"peer speaks wire protocol version {peer_version}, this node "
            f"speaks only version {PROTOCOL_VERSION}; run matching releases "
            f"on every cluster node (pickled v1 frames are not accepted)"
        )


# ---------------------------------------------------------------------------
# primitive layer: varints and single bytes
# ---------------------------------------------------------------------------
def _w_uvarint(out: bytearray, value: int) -> None:
    """Append *value* (non-negative) as a LEB128 varint."""
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _r_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Read one LEB128 varint at *pos*; returns ``(value, new_pos)``."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CorruptFrameError("truncated payload: varint runs past the end")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptFrameError("malformed varint: more than 64 bits")


def _w_svarint(out: bytearray, value: int) -> None:
    """Append a signed integer, zigzag-mapped onto a uvarint."""
    _w_uvarint(out, (value << 1) ^ (value >> 63) if value < 0 else value << 1)


def _r_svarint(data: bytes, pos: int) -> tuple[int, int]:
    """Read one zigzag-encoded signed integer."""
    raw, pos = _r_uvarint(data, pos)
    return (raw >> 1) ^ -(raw & 1), pos


def _r_byte(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """Read the single byte at *pos*, named *what* in the diagnostic."""
    if pos >= len(data):
        raise CorruptFrameError(f"truncated payload: {what} missing")
    return data[pos], pos + 1


# ---------------------------------------------------------------------------
# message-specific encoders: fixed field order, canonical container order
# ---------------------------------------------------------------------------
def _w_opt_int(out: bytearray, value: int | None) -> None:
    if value is None:
        out.append(0)
    else:
        out.append(1)
        _w_svarint(out, value)


def _r_opt_int(data: bytes, pos: int) -> tuple[int | None, int]:
    flag, pos = _r_byte(data, pos, "optional flag")
    if flag == 0:
        return None, pos
    return _r_svarint(data, pos)


def _w_uints(out: bytearray, values: Sequence[int]) -> None:
    """Append non-negative integers as one packed fixed-width array.

    A width byte (1, 2 or 4: the least that holds the largest value), then
    the values back to back in network byte order; the reader knows how
    many there are.
    """
    low, top = (min(values), max(values)) if values else (0, 0)
    if low < 0:
        raise CodecError(f"cannot pack negative value {low}")
    if top < 1 << 8:
        out.append(1)
        out += bytes(values)
    elif top < 1 << 16:
        out.append(2)
        out += struct.pack(f">{len(values)}H", *values)
    elif top < 1 << 32:
        out.append(4)
        out += struct.pack(f">{len(values)}I", *values)
    else:
        raise CodecError(f"cannot pack {top}: wider than 32 bits")


def _r_uints(data: bytes, pos: int, count: int) -> tuple[Sequence[int], int]:
    """Read *count* packed integers written by :func:`_w_uints`."""
    width, pos = _r_byte(data, pos, "integer width")
    if width not in (1, 2, 4):
        raise CorruptFrameError(f"invalid integer width {width} in payload")
    end = pos + count * width
    if end > len(data):
        raise CorruptFrameError(
            f"truncated payload: {count} integers of {width} bytes run past the end"
        )
    if width == 1:
        return data[pos:end], end
    return struct.unpack_from(f">{count}{'H' if width == 2 else 'I'}", data, pos), end


def _r_count(data: bytes, pos: int) -> tuple[int, int]:
    """Read the count of elements that follow, each at least one byte.

    The count is checked against the bytes that are left, so that nothing
    is allocated or looped over on the word of a corrupt length.
    """
    count, pos = _r_uvarint(data, pos)
    if count > len(data) - pos:
        raise CorruptFrameError(
            f"truncated payload: {count} elements announced, "
            f"{len(data) - pos} bytes left"
        )
    return count, pos


def _w_run(out: bytearray, n: int, masks: Sequence[int], vcs: Sequence[tuple[int, ...]]) -> None:
    """One process's run of events, in a constant number of calls per run.

    The event count, the run's distinct masks (at most 255, in order of
    first use) as one packed array, one byte per event indexing them, and
    every component of every clock as one packed array.
    """
    if len(masks) != len(vcs) or any(len(vc) != n for vc in vcs):
        raise CodecError("a run's masks and clocks do not line up")
    distinct = list(dict.fromkeys(masks))
    if len(distinct) > 255:
        raise CodecError(f"{len(distinct)} distinct masks in one run (at most 255)")
    _w_uvarint(out, len(masks))
    out.append(len(distinct))
    _w_uints(out, distinct)
    index = {mask: i for i, mask in enumerate(distinct)}
    out += bytes(map(index.__getitem__, masks))
    _w_uints(out, list(chain.from_iterable(vcs)))


def _r_run(data: bytes, pos: int, n: int) -> tuple[tuple[list[int], list[tuple[int, ...]]], int]:
    """Decode one run written by :func:`_w_run`."""
    count, pos = _r_count(data, pos)
    held, pos = _r_byte(data, pos, "mask count of a run")
    distinct, pos = _r_uints(data, pos, held)
    indices = data[pos : pos + count]
    if len(indices) < count:
        raise CorruptFrameError("truncated payload: a run's events run past the end")
    if count and max(indices) >= held:
        raise CorruptFrameError("event names a mask outside its run's table")
    flat, pos = _r_uints(data, pos + count, count * n)
    return (list(map(distinct.__getitem__, indices)), list(zip(*[iter(flat)] * n))), pos


def _w_entry(out: bytearray, n: int, entry: TokenEntry) -> None:
    """Encode one :class:`TokenEntry`, fields in declaration order."""
    vectors = (entry.start_cut, entry.cut, entry.depend, entry.min_positions)
    if any(len(v) != n for v in (*vectors, entry.bits, entry.satisfied)):
        raise CodecError(f"token entry is not over {n} processes")
    _w_opt_int(out, entry.transition_id)
    _w_uints(out, list(chain.from_iterable(entry.bits)))
    _w_uints(out, [position for vector in vectors for position in vector])
    out += bytes(map(bool, entry.satisfied))
    # eval is tri-state: None / False / True
    out.append(0 if entry.eval is None else (2 if entry.eval else 1))
    _w_opt_int(out, entry.parked_on)
    _w_uvarint(out, len(entry.waiting_for))
    for process in sorted(entry.waiting_for):
        _w_uvarint(out, process)


def _r_entry(data: bytes, pos: int, n: int) -> tuple[TokenEntry, int]:
    """Decode one :class:`TokenEntry`."""
    transition_id, pos = _r_opt_int(data, pos)
    flat, pos = _r_uints(data, pos, 2 * n)
    positions, pos = _r_uints(data, pos, 4 * n)
    flags = data[pos : pos + n]
    if len(flags) < n:
        raise CorruptFrameError("truncated payload: entry flags run past the end")
    pos += n
    eval_tag, pos = _r_byte(data, pos, "eval flag")
    if eval_tag > 2:
        raise CorruptFrameError(f"invalid eval tag 0x{eval_tag:02x} in token entry")
    parked_on, pos = _r_opt_int(data, pos)
    count, pos = _r_count(data, pos)
    waiting_for = set()
    for _ in range(count):
        process, pos = _r_uvarint(data, pos)
        waiting_for.add(process)
    entry = TokenEntry(
        transition_id=transition_id,
        bits=tuple(zip(flat[::2], flat[1::2])),
        start_cut=list(positions[:n]),
        cut=list(positions[n : 2 * n]),
        depend=list(positions[2 * n : 3 * n]),
        min_positions=list(positions[3 * n :]),
        satisfied=list(map(bool, flags)),
        eval=None if eval_tag == 0 else eval_tag == 2,
        parked_on=parked_on,
        waiting_for=waiting_for,
    )
    return entry, pos


def _w_token(out: bytearray, token: Token) -> None:
    """Encode one :class:`Token`: routing fields, runs, entries."""
    n = len(token.known)
    if n == 0:
        raise CodecError("token over zero processes")
    _w_svarint(out, token.parent_process)
    _w_svarint(out, token.token_id)
    _w_svarint(out, token.hops)
    _w_uvarint(out, token.declared)
    _w_uvarint(out, n)
    _w_uints(out, token.known)
    _w_uvarint(out, len(token.runs))
    for process in sorted(token.runs):
        _w_uvarint(out, process)
        _w_run(out, n, *token.runs[process])
    _w_uvarint(out, len(token.entries))
    for entry in token.entries:
        _w_entry(out, n, entry)


def _r_token(data: bytes, pos: int) -> tuple[Token, int]:
    """Decode one :class:`Token`."""
    parent_process, pos = _r_svarint(data, pos)
    token_id, pos = _r_svarint(data, pos)
    hops, pos = _r_svarint(data, pos)
    declared, pos = _r_uvarint(data, pos)
    n, pos = _r_count(data, pos)
    if n == 0:
        raise CorruptFrameError("token over zero processes")
    known, pos = _r_uints(data, pos, n)
    count, pos = _r_count(data, pos)
    runs = {}
    for _ in range(count):
        process, pos = _r_uvarint(data, pos)
        runs[process], pos = _r_run(data, pos, n)
    count, pos = _r_count(data, pos)
    entries = []
    for _ in range(count):
        entry, pos = _r_entry(data, pos, n)
        entries.append(entry)
    return Token(parent_process, entries, list(known), runs, token_id, hops, declared), pos


def _w_message(out: bytearray, message: object) -> None:
    """Append one tagged message of a monitoring frame to *out*."""
    if isinstance(message, Token):
        out.append(TYPE_TOKEN)
        _w_token(out, message)
    elif isinstance(message, TerminationNotice):
        out.append(TYPE_TERMINATION)
        _w_svarint(out, message.process)
        _w_svarint(out, message.final_event_sn)
        _w_uvarint(out, message.declared)
    else:  # a frame inside a frame too
        raise CodecError(
            f"cannot encode {type(message).__name__} as a monitoring message: "
            f"only tokens and termination notices travel the wire"
        )


def _r_message(data: bytes, pos: int) -> tuple[object, int]:
    """Decode one tagged message of a monitoring frame."""
    tag, pos = _r_byte(data, pos, "message tag")
    if tag == TYPE_TOKEN:
        return _r_token(data, pos)
    if tag == TYPE_TERMINATION:
        process, pos = _r_svarint(data, pos)
        final_event_sn, pos = _r_svarint(data, pos)
        declared, pos = _r_uvarint(data, pos)
        return TerminationNotice(process, final_event_sn, declared), pos
    raise CorruptFrameError(f"unknown message type 0x{tag:02x}")  # a frame's tag too


# ---------------------------------------------------------------------------
# frame assembly, splitting and reading
# ---------------------------------------------------------------------------
def _frame(type_tag: int, out: bytearray) -> bytes:
    """Finish a frame whose first :data:`HEADER` bytes were left blank."""
    length = len(out) - HEADER.size
    if length > MAX_FRAME_BYTES:
        raise CodecError(
            f"payload of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit"
        )
    HEADER.pack_into(out, 0, MAGIC, PROTOCOL_VERSION, type_tag, length)
    return bytes(out)


def encode_wire(due: float, message: object) -> bytes:
    """One complete monitoring frame: header + delivery instant + the message,
    or the messages of a frame (a tuple), in order."""
    messages = message if isinstance(message, tuple) else (message,)
    if not messages:
        raise CodecError("a monitoring frame holds at least one message")
    out = bytearray(HEADER.size)
    out += _FLOAT64.pack(due)
    _w_uvarint(out, len(messages))
    for part in messages:
        _w_message(out, part)
    return _frame(TYPE_MONITORING, out)


def decode_wire(type_tag: int, payload: bytes) -> tuple[float, object]:
    """Decode a monitoring frame payload into ``(due, message)``: the message
    itself when the frame holds one, else the tuple of them in order."""
    if type_tag != TYPE_MONITORING:
        raise CorruptFrameError(f"unknown message type 0x{type_tag:02x}")
    if len(payload) < _FLOAT64.size:
        raise CorruptFrameError(
            f"truncated payload: {len(payload)} bytes cannot hold the "
            f"delivery instant"
        )
    due = _FLOAT64.unpack_from(payload, 0)[0]
    count, pos = _r_count(payload, _FLOAT64.size)
    if not count:
        raise CorruptFrameError("corrupt payload: a monitoring frame of no messages")
    messages = []
    for _ in range(count):
        message, pos = _r_message(payload, pos)
        messages.append(message)
    if pos != len(payload):
        raise CorruptFrameError(f"corrupt payload: {len(payload) - pos} trailing bytes")
    return due, messages[0] if count == 1 else tuple(messages)


def encode_control(mapping: dict[str, object]) -> bytes:
    """One complete control frame carrying a string-keyed mapping as JSON.

    A value JSON cannot carry (bytes, sets, ``NaN``, ...) raises
    :class:`CodecError`.
    """
    try:
        text = json.dumps(
            dict(mapping),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=False,
            allow_nan=False,
        )
        out = bytearray(HEADER.size) + text.encode("utf-8")
    except (TypeError, ValueError, RecursionError) as error:
        raise CodecError(f"control mapping is not canonical JSON: {error}") from error
    return _frame(TYPE_CONTROL, out)


def _refuse_constant(name: str) -> float:
    """``json.loads`` hook: ``NaN`` and the infinities are not JSON."""
    raise ValueError(f"{name} is not a JSON value")


def decode_control(payload: bytes) -> dict[str, object]:
    """Decode a control frame payload back into its mapping.

    Anything but a UTF-8 JSON object — bad bytes, bad JSON, ``NaN``, nesting
    too deep to parse, another JSON value — raises
    :class:`CorruptFrameError`.
    """
    try:
        value = json.loads(payload.decode("utf-8"), parse_constant=_refuse_constant)
    except (ValueError, RecursionError) as error:
        raise CorruptFrameError(f"control frame is not UTF-8 JSON: {error}") from error
    if not isinstance(value, dict):
        raise CorruptFrameError(
            f"control frame carries {type(value).__name__}, expected a mapping"
        )
    return value


def decode_header(header: bytes) -> tuple[int, int]:
    """Validate one 8-byte frame header; returns ``(type_tag, length)``.

    Raises :class:`CorruptFrameError` on a bad magic (including v1 pickled
    frames, whose length prefix can never start with ``b"RW"``) or a length
    above :data:`MAX_FRAME_BYTES`, and :class:`ProtocolVersionError` on a
    version this codec does not speak.
    """
    if len(header) != HEADER.size:
        raise CorruptFrameError(f"short header: {len(header)} of {HEADER.size} bytes")
    magic, version, type_tag, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise CorruptFrameError(
            f"bad frame magic {magic!r}: not a repro wire frame "
            f"(v1 length-prefixed pickle framing is no longer supported)"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolVersionError(version)
    if length > MAX_FRAME_BYTES:
        raise CorruptFrameError(
            f"frame announces a payload of {length} bytes, "
            f"at most {MAX_FRAME_BYTES} are allowed"
        )
    return type_tag, length


def split_frame(frame: bytes) -> tuple[int, bytes]:
    """Split one in-memory frame into ``(type_tag, payload)`` (tests, bench)."""
    type_tag, length = decode_header(frame[: HEADER.size])
    payload = frame[HEADER.size :]
    if len(payload) != length:
        raise CorruptFrameError(
            f"frame length mismatch: header announces {length} payload "
            f"bytes, {len(payload)} present"
        )
    return type_tag, payload


async def read_frame_async(
    reader: asyncio.StreamReader, peer: str = "peer"
) -> tuple[int, bytes] | None:
    """Read one frame from *reader*: ``(type_tag, payload)``, or ``None``.

    The wire's one frame reader: every socket of the loopback transport,
    the cluster's peer links and its control channel go through it.  EOF
    or a connection reset at a frame boundary is a clean close (``None``).
    A stream that ends or resets inside a frame raises
    :class:`ConnectionError` naming how much of the frame arrived, with
    *peer* naming the sender.  A bad magic, a foreign version or an
    oversized length raise :func:`decode_header`'s errors on the header
    alone, before any payload is awaited.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if error.partial:
            raise ConnectionError(
                f"{peer} disconnected mid-frame: {len(error.partial)} of "
                f"{HEADER.size} frame-header bytes received"
            ) from error
        return None
    except ConnectionResetError:
        # an abrupt teardown of an idle connection; only a reset after the
        # header was consumed is unambiguously mid-frame
        return None
    type_tag, length = decode_header(header)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ConnectionError(
            f"{peer} disconnected mid-frame: {len(error.partial)} of "
            f"{length} payload bytes received"
        ) from error
    except ConnectionResetError as error:
        raise ConnectionError(
            f"{peer} reset the connection mid-frame before its "
            f"{length}-byte payload arrived"
        ) from error
    return type_tag, payload
