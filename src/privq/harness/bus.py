"""In-process message transport with per-link FIFO ordering.

Frames carry (query_id, round, sender, recipient, payload). Two scheduler
modes: "serial" delivers messages in global send order (deterministic);
"concurrent" picks a random nonempty link each step from a seeded
generator, modeling arbitrary interleaving while preserving per-link
order. When every queue drains and the run is not finished, each node
gets one idle callback (the timeout surrogate); if that produces no new
traffic the pump stops.

A node ends each query with `NodeBase.close`, which drops the query's
state and parked messages. A message whose handler raises a `PrivqError`,
or that the node has no handler for, counts as never sent: the node drops
it and logs it in `Bus.dropped`, and the timeouts then treat its sender as
they treat a dead node.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import PrivqError, TransportClosed, UnexpectedInput
from ..serial import Reader, pack_bytes


@dataclass(frozen=True)
class Message:
    query_id: str
    round: str
    sender: str
    recipient: str
    payload: bytes
    seq: int = 0

    def frame(self) -> bytes:
        """Wire frame: length-prefixed fields, identical for socket transport."""
        return b"".join(
            pack_bytes(part)
            for part in (
                self.query_id.encode(),
                self.round.encode(),
                self.sender.encode(),
                self.recipient.encode(),
                self.payload,
            )
        )

    @classmethod
    def from_frame(cls, data: bytes, seq: int = 0) -> "Message":
        reader = Reader(data)
        fields = [reader.text() for _ in range(4)] + [reader.bytes_field()]
        reader.expect_done()
        return cls(*fields, seq)


class Bus:
    def __init__(self, scheduler: str = "serial", rng=None, record_trace: bool = False):
        if scheduler not in ("serial", "concurrent"):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        if scheduler == "concurrent" and rng is None:
            raise ValueError("concurrent scheduler needs an rng")
        self.scheduler = scheduler
        self.rng = rng
        self.nodes = {}
        self.links: dict[tuple, deque] = {}
        self._seq = 0
        self.closed = False
        self.dead: set[str] = set()
        self.trace: list[Message] | None = [] if record_trace else None
        self.dropped: list[tuple] = []  # (recipient, round, sender, repr(error))
        self.delivered = 0

    def register(self, node) -> None:
        self.nodes[node.identity] = node
        node.bus = self

    def kill(self, identity: str) -> None:
        """Drop the node: pending and future messages to it are discarded."""
        self.dead.add(identity)
        for key in list(self.links):
            if key[1] == identity:
                del self.links[key]

    def send(self, message: Message) -> None:
        if self.closed:
            raise TransportClosed("bus is closed")
        if message.sender in self.dead or message.recipient in self.dead:
            return
        if message.recipient not in self.nodes:
            raise TransportClosed(f"unknown recipient {message.recipient!r}")
        message = Message(message.query_id, message.round, message.sender,
                          message.recipient, message.payload, self._seq)
        self._seq += 1
        if self.trace is not None:
            self.trace.append(message)
        self.links.setdefault((message.sender, message.recipient), deque()).append(message)

    def post(self, query_id, round_, sender, recipient, payload=b"") -> None:
        self.send(Message(query_id, round_, sender, recipient, payload))

    def _pick_link(self):
        live = [k for k, q in self.links.items() if q]
        if not live:
            return None
        if self.scheduler == "serial":
            return min(live, key=lambda k: self.links[k][0].seq)
        return live[self.rng.randbelow(len(live))]

    def pump(self, done=lambda: False, max_messages: int = 2_000_000) -> None:
        """Deliver until `done()` or traffic is exhausted.

        When all queues drain, nodes get idle callbacks with an escalating
        level: level 0 models soft timeouts (missing DP responses, block
        assembly start), level 1 hard failures (a peer CN gone). The pump
        stops once a level-1 idle round produces no new traffic.
        """
        idle_level = 0
        while not done():
            key = self._pick_link()
            if key is None:
                if idle_level > 1:
                    return
                for node in list(self.nodes.values()):
                    if node.identity not in self.dead:
                        node.on_idle(idle_level)
                idle_level += 1
                continue
            idle_level = 0
            message = self.links[key].popleft()
            self.delivered += 1
            if self.delivered > max_messages:
                raise TransportClosed("message budget exhausted (livelock?)")
            node = self.nodes.get(message.recipient)
            if node is not None and message.recipient not in self.dead:
                node.handle(message)


class NodeBase:
    """Event-loop node: dispatches messages to on_<round> methods.

    A node whose per-query state is opened by one round (`opening_round`)
    parks the query's other messages until that round arrives, since they
    may overtake it on other links, and replays them in arrival order right
    after the opening handler has returned. Each role calls `close` where
    its part of a query ends.
    """

    opening_round: str | None = None

    def __init__(self, identity: str, topology, rng):
        self.identity = identity
        self.topology = topology
        self.rng = rng
        self.bus = None
        self.states = {}  # query id -> per-query state
        self._parked = {}  # query id -> messages that arrived before it opened

    def handle(self, message: Message) -> None:
        opening = message.round == self.opening_round
        if (self.opening_round is not None and not opening
                and message.query_id not in self.states):
            self._parked.setdefault(message.query_id, []).append(message)
            return
        self._dispatch(message)
        if opening and message.query_id in self.states:
            for parked in self._parked.pop(message.query_id, []):
                self._dispatch(parked)

    def _dispatch(self, message: Message) -> None:
        try:
            getattr(self, "on_" + message.round, self._unhandled)(message)
        except PrivqError as exc:  # a message its handler cannot use never arrived
            self.bus.dropped.append((self.identity, message.round, message.sender,
                                     repr(exc)))

    def _unhandled(self, message: Message) -> None:
        raise UnexpectedInput(f"{self.identity} has no handler for round {message.round!r}")

    def close(self, query_id) -> None:
        """End the query here: drop its state and parked messages."""
        self.states.pop(query_id, None)
        self._parked.pop(query_id, None)

    def on_idle(self, level: int = 0) -> None:
        pass

    def send(self, query_id, round_, recipient, payload=b"") -> None:
        self.bus.post(query_id, round_, self.identity, recipient, payload)
