"""Wire protocol v8 codec: byte-stable round-trips and corruption diagnostics.

The acceptance properties of the codec (hypothesis-tested here):

1. **Round-trip**: every message type in :mod:`repro.core.messages`, every
   frame of one or more of them, and every control mapping of JSON values
   decodes back to an equal object; nothing else encodes as a monitoring
   frame.
2. **Byte stability**: re-encoding a decoded message reproduces the exact
   original frame (canonical map-key and set-element order), so frames can
   be compared, cached and hashed by bytes.
3. **Diagnostics**: corrupted frames, truncations and foreign protocol
   versions raise typed errors whose messages say what went wrong — and a
   v1 length-prefixed pickle frame is named as such.
4. **Nothing but codec errors**: whatever bytes arrive, decoding raises a
   :class:`~repro.cluster.codec.CodecError` subclass or returns a message.

Plus the grep-enforced guarantee that pickle is gone from every runtime
wire path.
"""

import asyncio
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import codec
from repro.cluster.transport import read_control_async
from repro.core.messages import TerminationNotice, Token, TokenEntry

REPO_ROOT = Path(__file__).resolve().parents[2]


def _read_stream(data, frames=1):
    """Read *frames* frames through the wire's one reader from *data* + EOF.

    Each frame is decoded to ``(due, message)``; a clean close reads as
    ``None``.
    """

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        read = []
        for _ in range(frames):
            frame = await codec.read_frame_async(reader)
            read.append(None if frame is None else codec.decode_wire(*frame))
        return read

    return asyncio.run(main())


# -- hypothesis strategies ---------------------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
small_ints = st.integers(min_value=-(2**40), max_value=2**40)

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), small_ints, finite_floats, st.text(max_size=20)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


#: clock components, positions and letter masks: mostly small, sometimes
#: past each of the packed widths (one, two and four bytes)
positions = st.one_of(
    st.integers(0, 50), st.sampled_from([255, 256, 65_535, 65_536, 2**32 - 1])
)
masks = positions


@st.composite
def token_entries(draw, num_processes):
    """One :class:`TokenEntry` whose vectors all have *num_processes* slots."""
    n = num_processes
    int_vec = st.lists(positions, min_size=n, max_size=n)
    bits = st.lists(st.tuples(masks, masks), min_size=n, max_size=n).map(tuple)
    return TokenEntry(
        transition_id=draw(st.one_of(st.none(), st.integers(0, 500))),
        bits=draw(bits),
        start_cut=draw(int_vec),
        cut=draw(int_vec),
        depend=draw(int_vec),
        min_positions=draw(int_vec),
        satisfied=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        eval=draw(st.one_of(st.none(), st.booleans())),
        parked_on=draw(st.one_of(st.none(), st.integers(0, n - 1))),
        waiting_for=draw(st.sets(st.integers(0, n - 1), max_size=n)),
    )


@st.composite
def runs(draw, num_processes):
    """One process's run: as many masks as clocks, possibly none."""
    clock = st.lists(positions, min_size=num_processes, max_size=num_processes)
    events = draw(st.lists(st.tuples(masks, clock.map(tuple)), max_size=6))
    return [mask for mask, _ in events], [vc for _, vc in events]


@st.composite
def tokens(draw):
    """One :class:`Token` with 0–3 entries over a shared process count."""
    n = draw(st.integers(min_value=1, max_value=4))
    entries = draw(st.lists(token_entries(n), max_size=3))
    return Token(
        parent_process=draw(st.integers(0, n - 1)),
        entries=entries,
        known=draw(st.lists(positions, min_size=n, max_size=n)),
        runs=draw(st.dictionaries(st.integers(0, n - 1), runs(n), max_size=n)),
        token_id=draw(st.integers(1, 10**6)),
        hops=draw(st.integers(0, 1000)),
        declared=draw(st.integers(0, 2**64 - 1)),
    )


termination_notices = st.builds(
    TerminationNotice,
    process=st.integers(0, 16),
    final_event_sn=st.integers(-1, 10**4),
    declared=st.integers(0, 2**64 - 1),
)

#: the messages of one monitoring frame, in send order
frames = st.lists(st.one_of(tokens(), termination_notices), min_size=1, max_size=5)


def _body(message):
    """The body of *message* sent alone: its frame past the header, the
    instant, the count and the tag."""
    return codec.encode_wire(0.0, message)[codec.HEADER.size + 10 :]


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(message=tokens(), due=finite_floats)
    def test_token_round_trips_byte_stably(self, message, due):
        frame = codec.encode_wire(due, message)
        type_tag, payload = codec.split_frame(frame)
        assert type_tag == codec.TYPE_MONITORING
        assert payload[8:10] == bytes([1, codec.TYPE_TOKEN])  # one message, a token
        decoded_due, decoded = codec.decode_wire(type_tag, payload)
        assert decoded_due == due
        assert decoded == message
        assert codec.encode_wire(decoded_due, decoded) == frame

    @settings(max_examples=100, deadline=None)
    @given(message=termination_notices, due=finite_floats)
    def test_termination_round_trips_byte_stably(self, message, due):
        frame = codec.encode_wire(due, message)
        type_tag, payload = codec.split_frame(frame)
        assert type_tag == codec.TYPE_MONITORING
        assert payload[8:10] == bytes([1, codec.TYPE_TERMINATION])
        decoded_due, decoded = codec.decode_wire(type_tag, payload)
        assert (decoded_due, decoded) == (due, message)
        assert codec.encode_wire(decoded_due, decoded) == frame

    def test_the_retired_verdict_frame_is_an_unknown_type(self):
        # 0x04 carried a verdict digest: an origin and the verdict's string
        body = bytes(8) + bytes([0x02, 0x03]) + "⊤".encode()
        with pytest.raises(codec.CorruptFrameError, match="unknown message type 0x04"):
            codec.decode_wire(0x04, body)

    @pytest.mark.parametrize("type_tag", [0x00, 0x01, 0x02, 0x03, 0x0F, 0x11, 0xFF])
    def test_every_unassigned_type_tag_is_rejected(self, type_tag):
        # only monitoring frames carry messages (0x03 once carried a bare
        # primitive value no monitor accepts; 0x01 and 0x02 were the v7
        # token and termination frames, and tag messages inside a v8 one)
        _, payload = codec.split_frame(codec.encode_wire(0.0, TerminationNotice(1, 3)))
        with pytest.raises(
            codec.CorruptFrameError, match=f"unknown message type 0x{type_tag:02x}"
        ):
            codec.decode_wire(type_tag, payload)

    def test_control_frames_are_json_from_protocol_version_5(self):
        # v4 wrote control mappings in a tagged value layout; a v4 peer
        # cannot read a v5 handshake
        assert codec.PROTOCOL_VERSION >= 5
        frame = codec.encode_control({"kind": "hello", "process": 0})
        assert frame[codec.HEADER.size :] == b'{"kind":"hello","process":0}'

    def test_a_token_names_no_view_from_protocol_version_6(self):
        # v5 wrote the parent view and the parent event after the parent
        # process; v6 routes on parent_process, token_id and hops alone
        assert codec.PROTOCOL_VERSION >= 6
        token = Token(parent_process=1, entries=[], known=[0, 0], token_id=5, hops=2)
        assert _body(token)[:5] == bytes([2, 10, 4, 0, 2])  # zigzag 1, 5, 2; declared; n = 2

    def test_tokens_and_notices_carry_what_was_declared_from_protocol_version_7(self):
        # v7 adds one varint to both messages: the states the sender knew declared
        assert codec.PROTOCOL_VERSION >= 7
        token = Token(parent_process=1, entries=[], known=[0, 0], token_id=5, declared=0b10)
        undeclared = Token(parent_process=1, entries=[], known=[0, 0], token_id=5)
        assert _body(token)[:5] == bytes([2, 10, 0, 2, 2])
        assert len(_round_trip(token)) == len(_round_trip(undeclared))
        notice = TerminationNotice(2, 9, declared=1 << 40)
        body = _body(notice)
        assert body[:2] == bytes([4, 18])
        assert len(body) == 2 + 6  # 41 bits: six varint bytes
        assert _round_trip(notice).endswith(body)

    @pytest.mark.parametrize(
        "value",
        [None, 3, "done", {"a": 1}, [TerminationNotice(0, 1)], (TerminationNotice(0, 1), ())],
    )
    def test_only_monitoring_messages_encode(self, value):
        # a list is no frame, and a frame holds no frame
        with pytest.raises(codec.CodecError, match="cannot encode .* monitoring message"):
            codec.encode_wire(0.0, value)

    @settings(max_examples=100, deadline=None)
    @given(
        mapping=st.dictionaries(
            st.text(max_size=10), json_values, max_size=5
        )
    )
    def test_control_frames_round_trip(self, mapping):
        frame = codec.encode_control(mapping)
        type_tag, payload = codec.split_frame(frame)
        assert type_tag == codec.TYPE_CONTROL
        assert codec.decode_control(payload) == mapping
        assert codec.encode_control(codec.decode_control(payload)) == frame

    def test_map_insertion_order_is_canonicalized(self):
        # two dicts equal as mappings but built in opposite insertion order
        # must produce the identical frame — byte stability across peers
        ab = codec.encode_control({"a": 1, "b": 2})
        ba = codec.encode_control({"b": 2, "a": 1})
        assert ab == ba

    def test_stream_round_trip(self):
        stream = codec.encode_wire(1.5, TerminationNotice(0, 4)) + codec.encode_wire(
            2.5, _token([1, 2])
        )
        assert _read_stream(stream, frames=3) == [
            (1.5, TerminationNotice(0, 4)),
            (2.5, _token([1, 2])),
            None,  # clean EOF between frames
        ]


class TestDiagnostics:
    def test_bad_magic_names_the_v1_framing(self):
        header = b"\x00\x00\x00\x2a" + b"\x80\x04\x95\x00"  # v1: length + pickle
        with pytest.raises(
            codec.CorruptFrameError,
            match="bad frame magic.*v1 length-prefixed pickle framing is no "
            "longer supported",
        ):
            codec.decode_header(header[: codec.HEADER.size])

    @pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 5, 6, 7, 255])
    def test_foreign_version_reports_both_versions(self, version):
        header = codec.HEADER.pack(codec.MAGIC, version, codec.TYPE_MONITORING, 0)
        with pytest.raises(
            codec.ProtocolVersionError,
            match=f"peer speaks wire protocol version {version}, this node "
            f"speaks only version {codec.PROTOCOL_VERSION}",
        ) as excinfo:
            codec.decode_header(header)
        assert excinfo.value.peer_version == version

    def test_short_header_reported(self):
        with pytest.raises(codec.CorruptFrameError, match="short header: 3 of 8"):
            codec.decode_header(b"RW\x03")

    def test_frame_length_mismatch_reported(self):
        frame = codec.encode_wire(0.0, TerminationNotice(0, 4))
        with pytest.raises(
            codec.CorruptFrameError, match="length mismatch.*announces"
        ):
            codec.split_frame(frame[:-1])

    def test_trailing_bytes_rejected(self):
        type_tag, payload = codec.split_frame(codec.encode_wire(0.0, TerminationNotice(1, 2)))
        with pytest.raises(
            codec.CorruptFrameError, match="2 trailing bytes"
        ):
            codec.decode_wire(type_tag, payload + b"\x00\x00")

    def test_unknown_type_tag_rejected(self):
        with pytest.raises(
            codec.CorruptFrameError, match="unknown message type 0x7f"
        ):
            codec.decode_wire(0x7F, b"")

    def test_payload_too_short_for_due_instant(self):
        with pytest.raises(
            codec.CorruptFrameError, match="cannot hold the.*delivery instant"
        ):
            codec.decode_wire(codec.TYPE_MONITORING, b"\x00\x00")

    def test_stream_truncated_mid_payload(self):
        frame = codec.encode_wire(0.0, TerminationNotice(0, 4))
        with pytest.raises(ConnectionError, match="mid-frame: 11 of 13 payload bytes"):
            _read_stream(frame[:-2])

    def test_stream_truncated_mid_header(self):
        with pytest.raises(ConnectionError, match="mid-frame: 3 of 8 frame-header bytes"):
            _read_stream(b"RW\x03")

    def test_a_reset_closes_cleanly_at_a_boundary_and_not_inside_a_frame(self):
        async def reset_after(data):
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            read = asyncio.ensure_future(codec.read_frame_async(reader))
            await asyncio.sleep(0)  # the reader consumes *data* and waits
            reader.set_exception(ConnectionResetError())
            return await read

        assert asyncio.run(reset_after(b"")) is None
        header = codec.encode_wire(0.0, TerminationNotice(0, 4))[: codec.HEADER.size]
        with pytest.raises(ConnectionError, match="reset the connection mid-frame"):
            asyncio.run(reset_after(header))

    def test_every_truncated_stream_names_the_frame(self):
        frame = codec.encode_wire(0.0, _token([1, 2]))
        for cut in range(1, len(frame)):
            with pytest.raises(ConnectionError, match="mid-frame"):
                _read_stream(frame[:cut])

    def test_control_frame_must_carry_a_mapping(self):
        with pytest.raises(
            codec.CorruptFrameError, match="carries list, expected a mapping"
        ):
            codec.decode_control(b"[1,2,3]")

    def test_errors_are_value_errors(self):
        # callers that predate the codec catch ValueError; keep that working
        assert issubclass(codec.CodecError, ValueError)
        assert issubclass(codec.CorruptFrameError, codec.CodecError)
        assert issubclass(codec.ProtocolVersionError, codec.CodecError)


def _token(known, runs=None, entries=()):
    return Token(0, entries=list(entries), known=known, runs=runs or {}, token_id=1)


def _round_trip(message):
    frame = codec.encode_wire(0.0, message)
    _, decoded = codec.decode_wire(*codec.split_frame(frame))
    assert decoded == message
    assert codec.encode_wire(0.0, decoded) == frame
    return frame


class TestTokenPayload:
    """The token body: packed widths, run tables, masks and bits."""

    def test_clocks_are_packed_at_the_width_their_largest_component_needs(self):
        sizes = []
        for top in (255, 256, 65_535, 65_536, 2**32 - 1):
            run = ([1] * 3, [(1, 1), (2, 1), (top, 2)])
            sizes.append(len(_round_trip(_token([0, 0], {0: run}))))
        # 6 components at one, two and four bytes each
        assert [b - a for a, b in zip(sizes, sizes[1:])] == [6, 0, 12, 0]

    def test_values_wider_than_32_bits_or_negative_are_refused_at_encode(self):
        for bad in (2**32, -1):
            with pytest.raises(codec.CodecError, match="cannot pack"):
                codec.encode_wire(0.0, _token([0, bad]))
            with pytest.raises(codec.CodecError, match="cannot pack"):
                codec.encode_wire(0.0, _token([0, 0], {1: ([0], [(0, bad)])}))
            with pytest.raises(codec.CodecError, match="cannot pack"):
                codec.encode_wire(0.0, _token([0, 0], {1: ([bad], [(0, 0)])}))

    def test_empty_run_round_trips(self):
        _round_trip(_token([3, 4], {1: ([], [])}))

    def test_a_run_holds_at_most_255_distinct_masks(self):
        def run_of(distinct):
            masks = list(range(distinct))
            return masks + masks[:5], [(i,) for i in range(distinct + 5)]

        _round_trip(_token([0], {0: run_of(255)}))
        with pytest.raises(codec.CodecError, match="256 distinct masks"):
            codec.encode_wire(0.0, _token([0], {0: run_of(256)}))

    def test_a_run_is_its_distinct_masks_an_index_byte_per_event_and_its_clocks(self):
        run = ([0b10, 0, 0b10, 0b10], [(0, 1), (0, 2), (0, 3), (0, 4)])
        empty = len(_round_trip(_token([0, 0], {1: ([], [])})))
        # two masks at one byte each, four index bytes, eight clock bytes
        assert len(_round_trip(_token([0, 0], {1: run}))) - empty == 2 + 4 + 8
        wide = ([256, 0, 256, 256], run[1])  # the masks' array is two bytes wide
        assert len(_round_trip(_token([0, 0], {1: wide}))) - empty == 4 + 4 + 8

    def test_an_entry_is_its_bits_positions_and_flags_and_names_no_atom(self):
        entry = TokenEntry(
            transition_id=1,
            bits=((0b01, 0b01), (0b10, 0)),  # P0.p & !P1.p over (P0.p, P1.p)
            start_cut=[0, 0],
            cut=[0, 2],
            depend=[0, 2],
            min_positions=[0, 0],
            satisfied=[True, False],
        )
        bare = len(_round_trip(_token([0, 0])))
        frame = _round_trip(_token([0, 0], entries=[entry, entry, entry]))
        # per entry: transition id (2), bits (1 + 4), positions (1 + 8),
        # satisfied (2), eval, parked_on, waiting_for (1 each)
        assert len(frame) - bare == 3 * 21
        assert b"P0" not in frame and b"P1" not in frame

    def test_misshapen_tokens_are_refused_at_encode(self):
        lopsided = ([0], [(0, 0), (0, 1)])
        short_clock = ([0], [(0,)])
        for runs in ({1: lopsided}, {1: short_clock}):
            with pytest.raises(codec.CodecError, match="do not line up"):
                codec.encode_wire(0.0, _token([0, 0], runs))
        with pytest.raises(codec.CodecError, match="zero processes"):
            codec.encode_wire(0.0, _token([]))


class TestHostileInput:
    """Whatever arrives, decoding raises a codec error or returns a message."""

    @staticmethod
    def _read(frame):
        return codec.decode_wire(*codec.split_frame(frame))

    @settings(max_examples=40, deadline=None)
    @given(message=tokens(), due=finite_floats)
    def test_every_truncation_is_a_codec_error(self, message, due):
        frame = codec.encode_wire(due, message)
        type_tag, payload = codec.split_frame(frame)
        for cut in range(1, len(frame)):
            # the frame ends early ...
            with pytest.raises(codec.CodecError):
                self._read(frame[:cut])
        for cut in range(len(payload)):
            # ... or a shorter payload arrives whole, behind an honest header
            with pytest.raises(codec.CodecError):
                codec.decode_wire(type_tag, payload[:cut])

    @settings(max_examples=40, deadline=None)
    @given(message=tokens(), due=finite_floats)
    def test_every_single_byte_corruption_raises_nothing_but_codec_errors(
        self, message, due
    ):
        frame = codec.encode_wire(due, message)
        for position in range(len(frame)):
            for flip in (0x01, 0x80, 0xFF, frame[position]):  # the last zeroes it
                corrupt = bytearray(frame)
                corrupt[position] ^= flip
                try:
                    self._read(bytes(corrupt))
                except codec.CodecError:
                    pass  # anything else (IndexError, struct.error, ...) fails

    def test_a_corrupt_count_is_refused_before_anything_is_allocated(self):
        type_tag, payload = codec.split_frame(codec.encode_wire(0.0, _token([1, 2])))
        # no runs, no entries: after the instant, the count and the tag come
        # four one-byte routing fields, then n = 2, ``known`` packed, and the
        # two counts
        assert payload[8:] == bytes([1, codec.TYPE_TOKEN, 0, 2, 0, 0, 2, 1, 1, 2, 0, 0])
        huge = bytearray()
        codec._w_uvarint(huge, 2**40)
        for at in (8, 14, 18, 19):  # the frame's messages, n, runs, entries
            with pytest.raises(codec.CorruptFrameError, match="elements announced"):
                codec.decode_wire(type_tag, payload[:at] + bytes(huge) + payload[at + 1 :])

    def test_a_v7_frame_is_refused_naming_both_versions(self):
        frame = bytearray(codec.encode_wire(0.0, _token([0])))
        frame[2:4] = bytes([7, 0x01])  # as a node of the previous release writes a token
        del frame[codec.HEADER.size + 8 : codec.HEADER.size + 10]  # no count, no tag
        for read in (self._read, codec.split_frame):
            with pytest.raises(codec.ProtocolVersionError) as excinfo:
                read(bytes(frame))
            assert "version 7" in str(excinfo.value)
            assert "only version 8" in str(excinfo.value)


class TestFrames:
    """v8: one monitoring frame carries the messages a monitor sent one peer
    in one callback — a count, then each message's tag and body."""

    @settings(max_examples=100, deadline=None)
    @given(messages=frames, due=finite_floats)
    def test_frames_of_one_to_k_messages_round_trip_byte_stably(self, messages, due):
        sent = messages[0] if len(messages) == 1 else tuple(messages)
        frame = codec.encode_wire(due, sent)
        type_tag, payload = codec.split_frame(frame)
        assert type_tag == codec.TYPE_MONITORING and payload[8] == len(messages)
        decoded_due, decoded = codec.decode_wire(type_tag, payload)
        assert (decoded_due, decoded) == (due, sent)  # one message decodes bare
        assert codec.encode_wire(decoded_due, decoded) == frame
        # the frame is its messages' bodies, each behind its tag: k - 1 headers,
        # instants and counts fewer than sending each alone
        alone = [codec.encode_wire(due, message) for message in messages]
        assert len(frame) == sum(map(len, alone)) - (len(messages) - 1) * (codec.HEADER.size + 9)
        assert frame.endswith(alone[-1][codec.HEADER.size + 9 :])

    def test_a_frame_of_one_message_is_the_message_alone(self):
        notice = TerminationNotice(0, 4)
        assert codec.encode_wire(1.0, (notice,)) == codec.encode_wire(1.0, notice)

    def test_an_empty_frame_is_refused_at_encode(self):
        with pytest.raises(codec.CodecError, match="at least one message"):
            codec.encode_wire(0.0, ())

    @staticmethod
    def _payload(*messages):
        return codec.split_frame(codec.encode_wire(2.5, tuple(messages)))[1]

    def test_a_count_beyond_the_remaining_bytes_is_refused(self):
        payload = bytearray(self._payload(TerminationNotice(0, 4), TerminationNotice(1, 2)))
        payload[8] = len(payload) - 8  # more messages than bytes behind the count
        with pytest.raises(codec.CorruptFrameError, match="elements announced"):
            codec.decode_wire(codec.TYPE_MONITORING, bytes(payload))
        payload[8] = 3  # bytes enough, messages not
        with pytest.raises(codec.CorruptFrameError, match="truncated payload"):
            codec.decode_wire(codec.TYPE_MONITORING, bytes(payload))

    def test_a_zero_count_is_refused(self):
        payload = self._payload(TerminationNotice(0, 4))
        with pytest.raises(codec.CorruptFrameError, match="no messages"):
            codec.decode_wire(codec.TYPE_MONITORING, payload[:8] + b"\x00")

    @pytest.mark.parametrize("tag", [0x00, 0x03, 0x04, 0x10, 0xFF])
    def test_an_unknown_inner_tag_is_refused(self, tag):
        payload = bytearray(self._payload(TerminationNotice(0, 4), _token([1, 2])))
        payload[9] = tag
        with pytest.raises(codec.CorruptFrameError, match=f"unknown message type 0x{tag:02x}"):
            codec.decode_wire(codec.TYPE_MONITORING, bytes(payload))

    def test_a_frame_inside_a_frame_is_refused(self):
        inner = self._payload(TerminationNotice(0, 4), TerminationNotice(1, 2))
        # a count of one, then the tag of a monitoring frame and its payload
        payload = inner[:8] + bytes([1, codec.TYPE_MONITORING]) + inner
        with pytest.raises(codec.CorruptFrameError, match="unknown message type 0x05"):
            codec.decode_wire(codec.TYPE_MONITORING, payload)
        with pytest.raises(codec.CodecError, match="cannot encode tuple"):
            codec.encode_wire(0.0, (TerminationNotice(0, 4), (TerminationNotice(1, 2),)))

    def test_trailing_bytes_after_the_last_message_are_refused(self):
        payload = self._payload(TerminationNotice(0, 4), _token([1, 2]))
        with pytest.raises(codec.CorruptFrameError, match="1 trailing bytes"):
            codec.decode_wire(codec.TYPE_MONITORING, payload + b"\x00")

    def test_a_v7_frame_is_refused(self):
        frame = bytearray(codec.encode_wire(0.0, (TerminationNotice(0, 4), _token([1]))))
        frame[2] = 7
        with pytest.raises(codec.ProtocolVersionError, match="version 7"):
            codec.split_frame(bytes(frame))

    def test_a_stream_of_frames_reads_frame_by_frame(self):
        two = (TerminationNotice(0, 4), _token([1, 2]))
        stream = codec.encode_wire(1.5, two) + codec.encode_wire(2.5, TerminationNotice(1, 0))
        assert _read_stream(stream, frames=3) == [
            (1.5, two),
            (2.5, TerminationNotice(1, 0)),
            None,
        ]


class TestFrameLengthBound:
    """One hostile header must not make the reader buffer gigabytes.

    (The wire's one reader, ``codec.read_frame_async``, is also driven
    through ``TcpStreamTransport._serve`` next to its other mid-frame
    diagnostics in ``tests/runtime/test_runtime.py``.)
    """

    oversized = codec.HEADER.pack(
        codec.MAGIC, codec.PROTOCOL_VERSION, codec.TYPE_MONITORING, codec.MAX_FRAME_BYTES + 1
    )
    message = f"{codec.MAX_FRAME_BYTES + 1} bytes, at most {codec.MAX_FRAME_BYTES}"

    def test_header_at_the_bound_is_accepted_one_above_is_not(self):
        at_bound = codec.HEADER.pack(
            codec.MAGIC, codec.PROTOCOL_VERSION, codec.TYPE_MONITORING, codec.MAX_FRAME_BYTES
        )
        assert codec.decode_header(at_bound) == (
            codec.TYPE_MONITORING,
            codec.MAX_FRAME_BYTES,
        )
        with pytest.raises(codec.CorruptFrameError, match=self.message):
            codec.decode_header(self.oversized)

    def test_async_reader_refuses_on_the_header_alone(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(self.oversized)  # no payload, no EOF: must not wait
            with pytest.raises(codec.CorruptFrameError, match=self.message):
                await asyncio.wait_for(codec.read_frame_async(reader), timeout=5.0)

        asyncio.run(main())

    def test_reader_refuses_without_reading_the_payload(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(self.oversized + b"payload")
            reader.feed_eof()
            with pytest.raises(codec.CorruptFrameError, match=self.message):
                await codec.read_frame_async(reader)
            # the header was consumed, the payload behind it was not
            return await reader.read()

        assert asyncio.run(main()) == b"payload"

    def test_encoder_refuses_what_the_decoder_would(self):
        with pytest.raises(codec.CodecError, match="exceeds the .* frame limit"):
            codec.encode_control({"blob": "x" * (codec.MAX_FRAME_BYTES + 1)})


class TestHostileControlFrames:
    """Whatever a control payload holds, decoding it raises a
    :class:`~repro.cluster.codec.CorruptFrameError` or returns a mapping —
    an error the coordinator's hello handler catches."""

    @pytest.mark.parametrize(
        "payload",
        [
            b"[" * 100_000 + b"]" * 100_000,  # nesting deeper than the parser recurses
            bytes([7, 1]) * 100_000 + b"\x00",  # the same nesting in v4's tagged layout
            b'{"a":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
            b'{"kind":"hello\xff"}',  # not UTF-8
            b"\xfe\xff",
            b"[]",  # JSON, but not an object
            b'"hello"',
            b'{"a":NaN}',
            b'{"a":-Infinity}',
            b"{",
            b"",
        ],
    )
    def test_corrupt_payloads_raise_corrupt_frame_errors(self, payload):
        with pytest.raises(codec.CorruptFrameError):
            codec.decode_control(payload)

    @settings(max_examples=200, deadline=None)
    @given(payload=st.binary(max_size=64))
    def test_any_bytes_decode_or_raise_corrupt_frame_errors(self, payload):
        try:
            assert isinstance(codec.decode_control(payload), dict)
        except codec.CorruptFrameError:
            pass

    @pytest.mark.parametrize(
        "value", [b"bytes", {1, 2}, float("nan"), float("inf"), object()]
    )
    def test_what_json_cannot_carry_is_refused_at_encode(self, value):
        with pytest.raises(codec.CodecError, match="not canonical JSON"):
            codec.encode_control({"value": value})


class TestControlChannel:
    """The coordinator–worker control channel reads through the one reader."""

    @staticmethod
    def _read_control(data, reads=1):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return [await read_control_async(reader) for _ in range(reads)]

        return asyncio.run(main())

    def test_mappings_then_a_clean_close(self):
        stream = codec.encode_control({"op": "start"}) + codec.encode_control(
            {"op": "stop", "code": 0}
        )
        assert self._read_control(stream, reads=3) == [
            {"op": "start"},
            {"op": "stop", "code": 0},
            None,
        ]

    def test_a_message_frame_is_refused(self):
        frame = codec.encode_wire(0.0, TerminationNotice(0, 1))
        with pytest.raises(
            codec.CorruptFrameError,
            match=f"expected a control frame.*type 0x{codec.TYPE_MONITORING:02x}",
        ):
            self._read_control(frame)

    def test_a_truncated_control_frame_names_the_frame(self):
        frame = codec.encode_control({"op": "start"})
        with pytest.raises(
            ConnectionError,
            match=f"mid-frame: {len(frame) - codec.HEADER.size - 1} of "
            f"{len(frame) - codec.HEADER.size} payload bytes",
        ):
            self._read_control(frame[:-1])


class TestNoPickleOnWirePaths:
    @pytest.mark.parametrize("package", ["runtime", "cluster", "core"])
    def test_wire_packages_never_import_pickle(self, package):
        """Acceptance: pickle is gone from every runtime wire path.

        Checked at the import level (docstrings may still *mention* the
        retired v1 pickle framing): no module under the wire packages may
        import or refer to the ``pickle`` family.
        """
        import ast

        offenders = []
        for path in sorted((REPO_ROOT / "src" / "repro" / package).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.partition(".")[0] in ("pickle", "cPickle", "dill")
                       for name in names):
                    offenders.append(path.name)
        assert not offenders, (
            f"pickle imported on the wire path: repro/{package}/{offenders}"
        )
