"""The inline fan-out parks and flushes what the per-destination one did.

Random sequences of ``broadcast``, ``unicast``, ``cork`` and ``flush``
over one to four nodes registered in a random order, one of them
possibly crashed (its sends are
parked like any other and dropped at the flush), run on
:class:`~repro.net.network.Network` and on the reference
:class:`~tests.net.per_destination_fanout.PerDestinationNetwork`.  After
every step the parked links must be the same links, in the same
first-send order, each with the same envelopes in the same order; every
frame that leaves must leave in the same order with the same envelopes;
and once both are driven to quiescence every node must have received
the same envelopes at the same instants, with the same hop counters.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Type

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.sim.node import SimNode
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.types import Envelope, Message, MessageId

from tests.net.per_destination_fanout import PerDestinationNetwork


class RecordingNode(SimNode):
    def __init__(self, entity_id: str) -> None:
        super().__init__(entity_id)
        self.received: List[Tuple[float, str, MessageId]] = []

    def on_receive(self, sender, envelope):
        self.received.append((self.now, sender, envelope.msg_id))


def recording(base: Type[Network]) -> Type[Network]:
    """``base`` with every frame it transmits logged as it leaves."""

    class Recording(base):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.frames: List[Tuple[str, str, Tuple[MessageId, ...]]] = []

        def _transmit(self, source, destination, envelopes) -> None:
            self.frames.append((
                source, destination,
                tuple(envelope.msg_id for envelope in envelopes),
            ))
            super()._transmit(source, destination, envelopes)

    return Recording


def parked(network: Network):
    if network._parked is None:
        return None
    return [
        (link, [envelope.msg_id for envelope in envelopes])
        for link, envelopes in network._parked.items()
    ]


steps = st.lists(
    st.one_of(
        st.tuples(st.just("broadcast"), st.integers(0, 3)),
        st.tuples(st.just("unicast"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("cork")),
        st.tuples(st.just("flush")),
    ),
    max_size=30,
)


def run(
    base: Type[Network], order, crashed: Optional[int], script, seed: int
):
    scheduler = Scheduler()
    network = recording(base)(
        scheduler, latency=UniformLatency(0.2, 1.8), rng=RngRegistry(seed)
    )
    size = len(order)
    nodes = [None] * size
    for i in order:
        nodes[i] = network.register(RecordingNode(f"n{i}"))
    if crashed is not None:
        nodes[crashed % size].crash()
    seqnos = [0] * size
    states = []
    for step in script:
        kind = step[0]
        if kind in ("broadcast", "unicast"):
            source = step[1] % size
            envelope = Envelope(
                Message(MessageId(f"n{source}", seqnos[source]), "op")
            )
            seqnos[source] += 1
            if kind == "broadcast":
                network.broadcast(f"n{source}", envelope)
            else:
                network.unicast(f"n{source}", f"n{step[2] % size}", envelope)
        elif kind == "cork":
            network.cork()
        else:
            network.flush()
        states.append((parked(network), list(network.frames)))
    scheduler.run()
    return (
        states,
        [node.received for node in nodes],
        (network.hops_sent, network.hops_delivered, network.hops_dropped,
         network.frames_sent),
    )


@settings(max_examples=150, deadline=None)
@given(
    order=st.integers(1, 4).flatmap(lambda n: st.permutations(range(n))),
    crashed=st.one_of(st.none(), st.integers(0, 3)),
    script=steps,
    seed=st.integers(0, 2**16),
)
def test_inline_fanout_parks_and_flushes_the_same_frames(
    order, crashed, script, seed
):
    assert run(Network, order, crashed, script, seed) == run(
        PerDestinationNetwork, order, crashed, script, seed
    )
