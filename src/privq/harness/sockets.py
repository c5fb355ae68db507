"""Socket transport for multi-process runs.

`serve` hosts the CN/DP/VN node set behind a TCP listener; a querier
process connects and exchanges the same length-prefixed frames the
in-process bus uses (Message.frame). One request frame with round
"query_text" runs the full pipeline server-side and returns a "result"
frame with the JSON outcome, so the querier boundary crosses the wire
while the node set shares a process. The server keeps one node set, seeded
from the topology, for its lifetime, so its blocks extend one chain. A
request it cannot parse gets an "error" frame, and the server keeps serving.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

from ..errors import TransportClosed
from .bus import Message
from .pipeline import Simulation
from .queryparse import parse_query


def _send_frame(sock, data: bytes) -> None:
    sock.sendall(struct.pack("<I", len(data)) + data)


def _recv_frame(sock) -> bytes:
    header = _recv_exact(sock, 4)
    (length,) = struct.unpack("<I", header)
    if length > 64 * 1024 * 1024:
        raise TransportClosed("oversized frame")
    return _recv_exact(sock, length)


def _recv_exact(sock, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise TransportClosed("peer closed connection")
        buf += chunk
    return buf


class NodeServer:
    def __init__(self, topology, host: str = "127.0.0.1", port: int = 0):
        self.topology = topology
        self.sim = Simulation(topology)
        self.listener = socket.create_server((host, port))
        self.port = self.listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = None

    def serve_forever(self):
        while not self._stop.is_set():
            try:
                self.listener.settimeout(0.2)
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with conn:
                try:
                    self._handle(conn)
                except (TransportClosed, OSError):  # the client went away
                    pass

    def start_background(self):
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self.listener.close()
        if self._thread:
            self._thread.join(timeout=2)

    def _handle(self, conn):
        frame = _recv_frame(conn)
        query_id, sender = "", ""
        try:  # a request it cannot parse, like a node failure, gets an error frame
            message = Message.from_frame(frame)
            sender = message.sender
            if message.round != "query_text":
                raise TransportClosed("unsupported round")
            params = json.loads(message.payload.decode())
            query = parse_query(
                params["text"],
                scale=self.topology.scale,
                max_records=self.topology.max_records,
                bitwise_mode=params.get("bitwise_mode", "random"),
                dp_privacy=params.get("dp_privacy", False),
            )
            query_id = query.query_id
            outcome = self.sim.run(query)
            round_, body = "result", json.dumps({
                "query_id": outcome.query_id,
                "values": outcome.result.values,
                "count": outcome.result.count,
                "block_height": outcome.block.height,
            })
        except Exception as exc:
            round_, body = "error", str(exc)
        _send_frame(conn, Message(query_id, round_, "server", sender, body.encode()).frame())


def remote_query(host: str, port: int, text: str, sender: str = "Q", **params) -> dict:
    """Client side: send a query to a `NodeServer`, return the JSON outcome."""
    payload = json.dumps({"text": text, **params}).encode()
    with socket.create_connection((host, port), timeout=120) as sock:
        _send_frame(sock, Message("", "query_text", sender, "server", payload).frame())
        reply = Message.from_frame(_recv_frame(sock))
    if reply.round == "error":
        raise TransportClosed(f"remote query failed: {reply.payload.decode()}")
    return json.loads(reply.payload.decode())
