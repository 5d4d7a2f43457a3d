"""Fault-injecting TCP interposer for the serving wire.

:class:`ChaosProxy` sits between clients and a serve port and breaks the
wire in the ways real networks and real kernels do — *outside* the
server process, so every fault exercises the actual socket paths of
both peers:

* ``cut``       — close a connection abruptly, optionally after leaking
                  half a frame (EOF mid-frame, the rudest disconnect);
* ``truncate``  — forward a frame's length prefix but only part of its
                  body, then cut (the peer blocks on bytes that will
                  never come until its deadline fires);
* ``stall``     — stop forwarding in one direction for a while without
                  closing anything (the silent-stall case deadlines
                  exist for);
* ``delay``     — hold a frame back before forwarding it (reordering
                  across connections, latency spikes);
* ``dup``       — forward a frame twice (at-least-once delivery; the
                  server's idempotent puts and the client's rid matching
                  must both absorb it).

Faults are chosen per frame by a :class:`WireFaultPlan` — seeded, so a chaos
campaign is reproducible fault-for-fault — or injected manually through
:meth:`ChaosProxy.cut_all` / :meth:`ChaosProxy.stall_all` for targeted
tests.  The proxy is frame-aware (it splits the byte stream with the
server's own :class:`~repro.serve.wire.FrameReader`) but never decodes a
body; verdicts are still per frame.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional, Set, Tuple

from repro.serve.wire import _LENGTH_BYTES, FrameReader

#: Fault verbs a plan may return (plus ``pass``).
FAULTS = ("cut", "truncate", "stall", "delay", "dup")

#: Directions a fault can apply to.
CLIENTWARD = "clientward"   # server -> client
SERVERWARD = "serverward"   # client -> server


class WireFaultPlan:
    """Seeded per-frame fault decisions.

    Rates are per-frame probabilities per direction; an exempt window
    (``grace_frames``) lets the hello handshake through untouched so a
    campaign's sessions actually exist before the torture starts.
    """

    def __init__(
        self,
        seed: int,
        *,
        cut_rate: float = 0.0,
        truncate_rate: float = 0.0,
        stall_rate: float = 0.0,
        delay_rate: float = 0.0,
        dup_rate: float = 0.0,
        stall_seconds: float = 0.4,
        delay_seconds: float = 0.05,
        grace_frames: int = 2,
    ) -> None:
        self._rng = random.Random(seed)
        self.cut_rate = cut_rate
        self.truncate_rate = truncate_rate
        self.stall_rate = stall_rate
        self.delay_rate = delay_rate
        self.dup_rate = dup_rate
        self.stall_seconds = stall_seconds
        self.delay_seconds = delay_seconds
        self.grace_frames = grace_frames

    def action(
        self, direction: str, frame_index: int
    ) -> Tuple[str, float]:
        """Decide one frame's fate: ``(verb, seconds)``."""
        if frame_index < self.grace_frames:
            return ("pass", 0.0)
        roll = self._rng.random()
        threshold = 0.0
        for verb, rate in (
            ("cut", self.cut_rate),
            ("truncate", self.truncate_rate),
            ("stall", self.stall_rate),
            ("delay", self.delay_rate),
            ("dup", self.dup_rate),
        ):
            threshold += rate
            if roll < threshold:
                seconds = 0.0
                if verb == "stall":
                    seconds = self.stall_seconds * self._rng.uniform(0.5, 1.5)
                elif verb == "delay":
                    seconds = self.delay_seconds * self._rng.uniform(0.5, 1.5)
                return (verb, seconds)
        return ("pass", 0.0)


class _Link:
    """One proxied client connection (both pumps and their sockets)."""

    def __init__(
        self,
        index: int,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
        server_reader: asyncio.StreamReader,
        server_writer: asyncio.StreamWriter,
    ) -> None:
        self.index = index
        self.client_reader = client_reader
        self.client_writer = client_writer
        self.server_reader = server_reader
        self.server_writer = server_writer
        self.tasks: List[asyncio.Task] = []
        self.closed = False

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for writer in (self.client_writer, self.server_writer):
            try:
                writer.close()
            except RuntimeError:
                pass

    def abort(self) -> None:
        """Hard close: RST-ish teardown, no lingering buffered bytes."""
        if self.closed:
            return
        self.closed = True
        for writer in (self.client_writer, self.server_writer):
            transport = writer.transport
            try:
                if transport is not None:
                    transport.abort()
                else:  # pragma: no cover - defensive
                    writer.close()
            except RuntimeError:
                pass


class ChaosProxy:
    """Frame-aware fault-injecting proxy in front of one serve port."""

    def __init__(
        self,
        target_host: str,
        target_port: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        plan: Optional[WireFaultPlan] = None,
    ) -> None:
        self.target_host = target_host
        self.target_port = target_port
        self.host = host
        self.port = port
        #: ``None`` forwards everything (manual-fault mode).
        self.plan = plan
        self.counters: Dict[str, int] = {
            "connections": 0,
            "frames": 0,
            "cuts": 0,
            "truncations": 0,
            "stalls": 0,
            "delays": 0,
            "dups": 0,
        }
        self._server: Optional[asyncio.base_events.Server] = None
        self._links: Set[_Link] = set()
        self._next_link = 0
        #: Direction -> event; cleared = that direction is stalled.
        self._flowing = {
            CLIENTWARD: asyncio.Event(),
            SERVERWARD: asyncio.Event(),
        }
        for event in self._flowing.values():
            event.set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for link in list(self._links):
            link.close()
            for task in link.tasks:
                task.cancel()
        for link in list(self._links):
            for task in link.tasks:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._links.clear()

    @property
    def live_links(self) -> int:
        return sum(1 for link in self._links if not link.closed)

    # -- manual fault verbs ------------------------------------------------

    def cut_all(self, *, mid_frame: bool = False) -> int:
        """Sever every live connection now; returns how many died.

        With ``mid_frame=True`` each client is first fed half of a
        plausible frame, so its reader dies *inside* a frame boundary —
        the worst-shaped EOF the framing layer can receive.
        """
        cut = 0
        for link in list(self._links):
            if link.closed:
                continue
            if mid_frame:
                try:
                    link.client_writer.write(
                        (64).to_bytes(_LENGTH_BYTES, "big") + b'{"t":'
                    )
                except (ConnectionError, RuntimeError):
                    pass
            link.abort()
            cut += 1
        self.counters["cuts"] += cut
        return cut

    def stall_all(self, direction: str = CLIENTWARD) -> None:
        """Freeze one direction for every connection (until resumed)."""
        self._flowing[direction].clear()
        self.counters["stalls"] += 1

    def resume_all(self) -> None:
        for event in self._flowing.values():
            event.set()

    # -- plumbing ----------------------------------------------------------

    async def _handle(
        self,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
    ) -> None:
        try:
            server_reader, server_writer = await asyncio.open_connection(
                self.target_host, self.target_port
            )
        except (ConnectionError, OSError):
            try:
                client_writer.close()
            except RuntimeError:
                pass
            return
        link = _Link(
            self._next_link, client_reader, client_writer,
            server_reader, server_writer,
        )
        self._next_link += 1
        self._links.add(link)
        self.counters["connections"] += 1
        link.tasks = [
            asyncio.ensure_future(self._pump(
                link, SERVERWARD, client_reader, server_writer
            )),
            asyncio.ensure_future(self._pump(
                link, CLIENTWARD, server_reader, client_writer
            )),
        ]
        await asyncio.gather(*link.tasks, return_exceptions=True)
        link.close()
        self._links.discard(link)

    async def _pump(
        self,
        link: _Link,
        direction: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Forward frames one way, applying the plan's verdicts."""
        frames = FrameReader(reader)
        frame_index = 0
        try:
            while not link.closed:
                bodies = await frames.read()
                if bodies is None:
                    break
                for body in bodies:
                    if link.closed:
                        return
                    self.counters["frames"] += 1
                    await self._flowing[direction].wait()
                    verb, seconds = (
                        self.plan.action(direction, frame_index)
                        if self.plan is not None else ("pass", 0.0)
                    )
                    frame_index += 1
                    if verb == "cut":
                        self.counters["cuts"] += 1
                        link.abort()
                        return
                    if verb == "truncate":
                        # Honest length prefix, dishonest body: the peer
                        # waits for bytes that never arrive, then EOF.
                        self.counters["truncations"] += 1
                        keep = max(1, len(body) // 2)
                        writer.write(
                            len(body).to_bytes(_LENGTH_BYTES, "big")
                            + body[:keep]
                        )
                        try:
                            await writer.drain()
                        except (ConnectionError, RuntimeError):
                            pass
                        link.abort()
                        return
                    if verb == "stall":
                        self.counters["stalls"] += 1
                        await asyncio.sleep(seconds)
                    elif verb == "delay":
                        self.counters["delays"] += 1
                        await asyncio.sleep(seconds)
                    copies = 2 if verb == "dup" else 1
                    if verb == "dup":
                        self.counters["dups"] += 1
                    for _ in range(copies):
                        writer.write(
                            len(body).to_bytes(_LENGTH_BYTES, "big") + body
                        )
                    await writer.drain()
        except (ConnectionError, RuntimeError):
            pass
        except Exception:
            # A malformed length prefix (ProtocolError) means the stream
            # is already poisoned; drop the link rather than the proxy.
            pass
        finally:
            link.close()
