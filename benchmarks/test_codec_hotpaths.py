"""The wire protocol v5 codec hot paths.

Every monitoring message of the asyncio and cluster backends crosses
:func:`repro.cluster.codec.encode_wire` / :func:`decode_wire`; ``perf/``'s
``wire-tcp`` workload times them inside a whole run.  Here:

* encode — framing a batch of representative tokens (multi-entry, with a
  run of scanned events) and termination notices;
* decode — splitting and decoding the same batch of frames back into
  messages, byte-stably;
* token round trip — decoding and re-encoding every token frame of one
  whole monitored run (property B, 4 processes, 18 events per process,
  seed 2015: the trace of the ``wire-tcp`` workload of ``perf/``); the
  frames must stay smaller than v3's, which carried an atom table, the
  guards and the entries' letters.
"""

from unittest import mock

from repro.api import ExperimentScale, RunSpec
from repro.cluster import codec
from repro.cluster.spec import build_cell_inputs
from repro.core.messages import TerminationNotice, Token, TokenEntry
from repro.sim import simulate_monitored_run
from repro.sim.network import SimulatedNetwork

#: messages framed/parsed per batch
BATCH_MESSAGES = 2000
#: ``bytes_per_frame`` of ``codec_token_roundtrip`` under wire protocol v3
V3_BYTES_PER_FRAME = 215.9


def _representative_token(seed: int) -> Token:
    """One three-process token with two in-flight entries and a scanned run
    (masks over the atoms ``P0.p, P0.q, P1.p, P1.q``, in bit order)."""
    n = 3
    entry = TokenEntry(
        transition_id=seed % 7,
        bits=((0b0001, 0b0001), (0b1000, 0), (0, 0)),  # P0.p & !P1.q
        start_cut=[seed % 5, 0, 1],
        cut=[seed % 5 + 1, 2, 1],
        depend=[seed % 5 + 1, 2, 2],
        min_positions=[0, 0, 0],
        satisfied=[True, False, False],
        eval=None,
        parked_on=2,
        waiting_for={2},
    )
    repair = TokenEntry(
        transition_id=None,
        bits=((0, 0),) * n,
        start_cut=[0, 0, 0],
        cut=[1, 1, 1],
        depend=[1, 1, 1],
        min_positions=[1, 1, 1],
        satisfied=[True, True, True],
        eval=True,
    )
    return Token(
        parent_process=seed % n,
        entries=[entry, repair],
        known=[seed % 5, 1, 1],
        runs={1: ([0b1000, 0], [(1, 2, 0), (1, 3, 0)])},
        token_id=seed + 1,
        hops=seed % 4,
    )


def _message_batch() -> list[tuple[float, object]]:
    """The deterministic batch both codec tests work through."""
    batch = []
    for i in range(BATCH_MESSAGES):
        if i % 10 == 9:
            message = TerminationNotice(process=i % 3, final_event_sn=i % 17)
        else:
            message = _representative_token(i)
        batch.append((float(i) * 0.25, message))
    return batch


def test_codec_encode_hot_path():
    frames = [codec.encode_wire(due, message) for due, message in _message_batch()]
    assert len(frames) == BATCH_MESSAGES
    assert all(frame.startswith(codec.MAGIC) for frame in frames)


def test_codec_decode_hot_path():
    batch = _message_batch()
    frames = [codec.encode_wire(due, message) for due, message in batch]
    decoded = [codec.decode_wire(*codec.split_frame(frame)) for frame in frames]
    assert decoded == batch  # byte-stable round-trip of the whole batch


def _recording(send, frames):
    """``SimulatedNetwork.send``, also keeping every token frame sent."""

    def wrapped(self, sender, target, message):
        # encoded on the spot: the token is mutated at its next hop
        if isinstance(message, Token):
            frames.append(codec.encode_wire(0.0, message))
        send(self, sender, target, message)

    return wrapped


def test_codec_token_roundtrip():
    scale = ExperimentScale()
    spec = RunSpec(
        scenario="paper-default",
        property_name="B",
        num_processes=4,
        events_per_process=18,
        evt_mu=scale.evt_mu,
        evt_sigma=scale.evt_sigma,
        comm_mu=scale.comm_mu,
        comm_sigma=scale.comm_sigma,
        seed=2015,
        max_views_per_state=2,
    )
    computation, automaton, registry = build_cell_inputs(spec)
    frames: list[bytes] = []
    # the default network is the paper's testbed (gaussian 0.05 / 0.01)
    with mock.patch.object(
        SimulatedNetwork, "send", _recording(SimulatedNetwork.send, frames)
    ):
        simulate_monitored_run(
            computation, automaton, registry, seed=spec.seed, max_views_per_state=2
        )
    again = [
        codec.encode_wire(*codec.decode_wire(*codec.split_frame(frame)))
        for frame in frames
    ]
    assert again == frames  # byte-stable over a whole run's tokens
    bytes_per_frame = sum(map(len, frames)) / len(frames)
    assert bytes_per_frame < V3_BYTES_PER_FRAME
