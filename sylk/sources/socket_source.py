"""Live socket ingestion — the crate's one suggested deployment is a
continuous UDP syslog-server loop (reference README/lib doc example:
bind a socket, ``parse_message`` each datagram); this module is that
lifecycle as a Ray-native source feeding the same Dataset stages the
batch pipeline uses.

Shape: ONE receiver ACTOR per listening port.  An OS socket is
single-owner mutable state — the canonical case where a raw
``@ray.remote`` actor is justified over a Dataset source.  A background
thread drains the socket into an in-actor buffer; ``drain()`` snapshots
the buffer as an Arrow table whose ref lands in the object store (the
actor-task return IS the ref), so the driver never holds the payload —
``ray.data.from_arrow_refs`` hands it zero-copy to the parse stages.

Scale: a single port is bounded by the OS socket and NIC, not by this
actor (all parse/route work happens in downstream Dataset stages on
other workers).  On a cluster you run one receiver per node (UDP
load-balancer / anycast VIP in front) and union the drains per
micro-batch; each drain is one block, so backpressure is the Dataset
streaming executor's, and a receiver crash loses at most one undrained
buffer (UDP's own delivery guarantee — the crate's server loop drops
exactly the same datagrams).

Framing: one datagram = one message for UDP (RFC 5426 §3.1).  The TCP
variant implements both RFC 6587 framings: octet counting
(``<len> SP <msg>``) and LF-terminated non-transparent framing,
auto-detected per connection from the first byte (digit => octet
counting — the same rule rsyslog/syslog-ng apply).
"""

from __future__ import annotations

import socket
import threading
import time

import pyarrow as pa

import ray

_DRAIN_SCHEMA = pa.schema([
    ("text", pa.string()),
    ("recv_ns", pa.int64()),
    ("peer", pa.string()),
])


def _empty_drain() -> pa.Table:
    return _DRAIN_SCHEMA.empty_table()


class _ReceiverBase:
    """Shared buffer/drain machinery for the UDP and TCP receivers."""

    def __init__(self, max_buffer: int = 1_000_000):
        self._buf: list[tuple[bytes, int, str]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._dropped = 0
        self._max_buffer = max_buffer

    def _push(self, payload: bytes, peer: str) -> None:
        with self._lock:
            if len(self._buf) >= self._max_buffer:
                # bounded buffer: shed load like a UDP socket would
                # rather than OOM the actor between drains
                self._dropped += 1
                return
            self._buf.append((payload, time.time_ns(), peer))

    def drain(self) -> pa.Table:
        """Snapshot and clear the buffer as one Arrow block.  Datagram
        bytes decode as UTF-8 with replacement (the parse stage's own
        binary entry handles invalid UTF-8 semantics; messages are
        overwhelmingly ASCII by RFC)."""
        with self._lock:
            items, self._buf = self._buf, []
        if not items:
            return _empty_drain()
        return pa.table({
            "text": pa.array([p.decode("utf-8", "replace")
                              for p, _, _ in items], pa.string()),
            "recv_ns": pa.array([t for _, t, _ in items], pa.int64()),
            "peer": pa.array([pr for _, _, pr in items], pa.string()),
        })

    def _note_drop(self) -> None:
        with self._lock:
            self._dropped += 1

    def pending(self) -> int:
        with self._lock:
            return len(self._buf)

    def dropped(self) -> int:
        return self._dropped

    def stop(self) -> None:
        self._stop.set()


@ray.remote
class UDPLineReceiver(_ReceiverBase):
    """One datagram = one RFC 5424 message (RFC 5426 §3.1)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_buffer: int = 1_000_000):
        super().__init__(max_buffer)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        # a burst faster than the drain thread overflows the default
        # ~208KiB queue and silently drops datagrams; ask for 8 MiB
        # (the kernel clamps to rmem_max)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8 << 20)
        self._sock.bind((host, port))
        self._sock.settimeout(0.2)
        self._addr = self._sock.getsockname()
        self._thread = threading.Thread(target=self._recv_loop, daemon=True)
        self._thread.start()

    def address(self) -> tuple[str, int]:
        return self._addr

    def _recv_loop(self) -> None:
        while not self._stop.is_set():
            try:
                data, peer = self._sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                break
            self._push(data, f"{peer[0]}:{peer[1]}")
        self._sock.close()


@ray.remote
class TCPLineReceiver(_ReceiverBase):
    """RFC 6587 TCP transport: octet counting or LF framing, detected
    per connection from the first byte (digit => octet counting)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_buffer: int = 1_000_000,
                 max_frame: int = 1 << 20):
        super().__init__(max_buffer)
        # cap on a single frame/line AND on the per-connection reassembly
        # buffer: an unvalidated octet-count header ("999999999999 ") or
        # a delimiter-free stream would otherwise grow `buf` without
        # bound and OOM the actor.  On overflow: count a drop, discard
        # the buffer, close the connection (the RFC 6587 stream has no
        # way to resynchronize mid-frame).
        self._max_frame = max_frame
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self._sock.settimeout(0.2)
        self._addr = self._sock.getsockname()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def address(self) -> tuple[str, int]:
        return self._addr

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            t = threading.Thread(target=self._conn_loop,
                                 args=(conn, f"{peer[0]}:{peer[1]}"),
                                 daemon=True)
            t.start()
        self._sock.close()

    def _conn_loop(self, conn: socket.socket, peer: str) -> None:
        conn.settimeout(0.2)
        buf = b""
        octet_mode: bool | None = None
        try:
            while not self._stop.is_set():
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not chunk:
                    break
                buf += chunk
                if octet_mode is None and buf:
                    octet_mode = buf[0:1].isdigit()
                while True:
                    if octet_mode:
                        sp = buf.find(b" ")
                        if sp < 0:
                            if len(buf) > 20:  # a real length header is
                                # a handful of digits; this is garbage
                                self._note_drop()
                                buf = b""
                                return
                            break
                        try:
                            n = int(buf[:sp])
                        except ValueError:
                            # malformed frame header: fall back to LF
                            octet_mode = False
                            continue
                        if n > self._max_frame:
                            # unvalidated header would buffer n bytes
                            self._note_drop()
                            buf = b""
                            return
                        if len(buf) < sp + 1 + n:
                            break
                        self._push(buf[sp + 1: sp + 1 + n], peer)
                        buf = buf[sp + 1 + n:]
                    else:
                        nl = buf.find(b"\n")
                        if nl < 0:
                            if len(buf) > self._max_frame:
                                # delimiter-free stream: shed it
                                self._note_drop()
                                buf = b""
                                return
                            break
                        self._push(buf[:nl].rstrip(b"\r"), peer)
                        buf = buf[nl + 1:]
        finally:
            # LF mode: a final unterminated line is still a message
            if buf and octet_mode is False:
                self._push(buf.rstrip(b"\r"), peer)
            conn.close()


def serve_counts(receiver, poll_s: float = 0.2, idle_exit: int = 5,
                 max_polls: int | None = None):
    """Micro-batch serve loop — the Ray-Data shape of the crate's
    ``loop { parse(recv()) }`` server: each poll drains the receiver,
    runs the drained block through the SAME parse+enrich Dataset stages
    as the batch flagship, and folds the per-sink counts into a running
    total.  Exits after ``idle_exit`` consecutive empty drains (or
    ``max_polls``).  Returns (sink_counts pyarrow Table with columns
    facility, severity, n; rows_seen).

    The accumulator is (facility, severity)-keyed — 192-bounded — so
    the driver state stays O(1) regardless of stream length; everything
    row-shaped stays in the object store between stages."""
    import pyarrow.compute as pc

    import ray.data

    from ..pipelines.flagship import parse_enrich
    from ..stages.collect import collect

    totals: pa.Table | None = None
    rows_seen = 0
    idle = polls = 0
    while True:
        polls += 1
        ref = receiver.drain.remote()
        # the drained block is a MICRO-batch (bounded by poll_s x line
        # rate), so the driver peek for emptiness is O(micro-batch), not
        # O(stream); the parse work happens in the Dataset stages below
        head = ray.get(ref)
        if head.num_rows == 0:
            idle += 1
        else:
            idle = 0
            rows_seen += head.num_rows
            ds = ray.data.from_arrow_refs([ref]).map_batches(
                lambda b: b.select(["text"]), batch_format="pyarrow")
            parsed = parse_enrich(ds)
            _, tbl = collect(parsed.filter(expr="ok")
                             .groupby(["facility", "severity"]).count()
                             .rename_columns({"count()": "n"}))
            if tbl.num_rows:
                totals = tbl if totals is None else \
                    pa.concat_tables([totals, tbl])
                totals = pa.TableGroupBy(totals, ["facility", "severity"]) \
                    .aggregate([("n", "sum")]).rename_columns(
                        ["facility", "severity", "n"])
        if idle >= idle_exit or (max_polls is not None and polls >= max_polls):
            break
        time.sleep(poll_s)
    if totals is None:
        totals = pa.table({"facility": pa.array([], pa.int64()),
                           "severity": pa.array([], pa.int64()),
                           "n": pa.array([], pa.int64())})
    totals = pa.table({
        "facility": totals.column("facility").cast(pa.int64()),
        "severity": totals.column("severity").cast(pa.int64()),
        "n": totals.column("n").cast(pa.int64()),
    })
    return totals.sort_by([("facility", "ascending"),
                           ("severity", "ascending")]), rows_seen
