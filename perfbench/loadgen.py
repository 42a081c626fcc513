"""The daemon load generator: one process and one thread, driving at
most ``nproc`` connections to the daemon's socket.

Open loop: requests fall due at a fixed offered rate, evenly spaced
from a seeded start offset, whatever the daemon does. A request is
timed from when it was due, so a stall also delays the requests queued
behind it. The
generator's own lateness is the gap between the moment a connection
could have sent a request (it was due and the connection was free) and
the moment the thread began sending it.

Closed loop: each connection sends its next request when the previous
reply arrives.
"""

from __future__ import annotations

import hashlib
import random
import selectors
import socket
import time
from dataclasses import dataclass, field

from common import digest_rows

clock = time.perf_counter


def account(due: float, free_at: float, begin: float, done: float) -> tuple[float, float]:
    """``(latency, lag)`` of one open-loop request, all in seconds.

    ``due`` is the scheduled send time, ``free_at`` when the connection
    that sent it became free, ``begin`` when the generator started
    sending and ``done`` when the reply was decoded. Latency counts from
    the due time; lag is how late the generator itself was.
    """
    return done - due, max(0.0, begin - max(due, free_at))


class Schedule:
    """Due times (offsets from the phase start) at a fixed rate. Even
    spacing keeps the offered load the same from run to run, so the
    latency spread measures the daemon, not the arrival draw."""

    def __init__(self, rate: float, seconds: float, rng: random.Random) -> None:
        offset = rng.random() / rate
        self.due: list[float] = [
            offset + i / rate for i in range(int((seconds - offset) * rate) + 1)
        ]


@dataclass
class Sample:
    op: str
    ok: bool
    latency_s: float = 0.0
    lag_s: float = 0.0
    encode_s: float = 0.0
    decode_s: float = 0.0
    client_s: float = 0.0  # encode start -> reply decoded
    server: dict = field(default_factory=dict)
    error: str = ""


class Connection:
    """One session on the daemon socket (protocol's hello handshake).

    ``call`` is a blocking round trip; ``send``/``feed`` split one into
    its halves for the multiplexed loops below."""

    def __init__(self, path: str, timeout: float = 60.0) -> None:
        from repro.service import protocol

        self.protocol = protocol
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buffer = bytearray()
        self._ids = 0
        self.free_at = 0.0
        self.inflight: tuple | None = None
        reply, _line, _e, _d = self.call({"op": "hello", "protocol": protocol.PROTOCOL_VERSION})
        if not reply.ok:
            raise ConnectionError(f"handshake refused: {reply.error}")

    def send(self, payload: dict) -> float:
        """Encode and send one request; returns the encode seconds."""
        self._ids += 1
        t0 = clock()
        frame = self.protocol.encode(dict(payload, id=self._ids))
        encode_s = clock() - t0
        self.sock.sendall(frame)
        return encode_s

    def feed(self) -> bytes | None:
        """One ``recv`` (the socket is readable); the reply line once
        it is complete, else None."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buffer.extend(chunk)
        newline = self.buffer.find(b"\n")
        if newline < 0:
            return None
        line = bytes(self.buffer[:newline])
        del self.buffer[: newline + 1]
        return line

    def decode(self, line: bytes):
        t0 = clock()
        reply = self.protocol.decode_response(line)
        return reply, clock() - t0

    def call(self, payload: dict):
        """``(response, raw_line, encode_s, decode_s)``."""
        encode_s = self.send(payload)
        line = None
        while line is None:
            line = self.feed()
        reply, decode_s = self.decode(line)
        return reply, line, encode_s, decode_s

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def connect_when_up(path: str, timeout: float, alive) -> Connection:
    """Poll until a ``ping`` succeeds (the daemon's boot is over)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            conn = Connection(path)
            reply, *_ = conn.call({"op": "ping"})
            if reply.ok:
                return conn
            conn.close()
        except OSError:
            pass
        if not alive() or time.monotonic() > deadline:
            raise RuntimeError("daemon did not answer ping")
        time.sleep(0.005)


class Verifier:
    """Checks inline checkout rows against the generator's digests.

    A reply whose row bytes were already verified for the same version
    is accepted by a hash of those bytes, so a cached read costs the
    generator microseconds, not a sort of every row."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected  # (dataset, vid) -> digest
        self.seen: set = set()

    def check(self, key, line: bytes, reply) -> bool:
        start = line.find(b',"data":[[')
        end = line.find(b"]]}", start)
        fingerprint = None
        if start >= 0 and end > start:
            fingerprint = (key, hashlib.blake2b(line[start:end]).digest())
            if fingerprint in self.seen:
                return True
        want = self.expected.get(key)
        rows = (reply.data or {}).get("data") or []
        if want is None or digest_rows(rows) != want:
            return False
        if fingerprint is not None:
            self.seen.add(fingerprint)
        return True


def finish(op: dict, sample: Sample, reply, line: bytes, verifier: Verifier, on_commit) -> Sample:
    """Judge a reply: status, inline content, and commit bookkeeping."""
    sample.server = reply.trace or {}
    if not reply.ok:
        sample.ok = False
        sample.error = f"{reply.status}: {reply.error}"
    elif op["kind"] == "read" and not verifier.check(op["key"], line, reply):
        sample.ok = False
        sample.error = f"wrong content for {op['key']}"
    elif op["kind"] == "write":
        on_commit(op, reply.data)
    return sample


def execute(conn: Connection, op: dict, verifier: Verifier, on_commit) -> Sample:
    """One blocking round trip (warm-up, write probe, read-back)."""
    begin = clock()
    try:
        reply, line, enc, dec = conn.call(op["request"])
    except (OSError, ValueError) as error:
        return Sample(op["kind"], False, error=f"{type(error).__name__}: {error}")
    sample = Sample(op["kind"], True, encode_s=enc, decode_s=dec, client_s=clock() - begin)
    sample.latency_s = sample.client_s
    return finish(op, sample, reply, line, verifier, on_commit)


class Loop:
    """One thread multiplexing ``n_conn`` connections with a selector.

    A single thread keeps the generator's own interpreter-lock
    contention out of the measurement: a due request waits at most for
    the decode of one reply, which ``lag`` records."""

    def __init__(self, path: str, n_conn: int, verifier: Verifier, on_commit) -> None:
        self.path = path
        self.verifier = verifier
        self.on_commit = on_commit
        self.selector = selectors.DefaultSelector()
        self.idle: list[Connection] = []
        self.busy = 0
        self.samples: list[Sample] = []
        self.retries = 0
        for _ in range(n_conn):
            self._add(Connection(path))

    def _add(self, conn: Connection) -> None:
        self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        self.idle.append(conn)

    def start(self, op: dict, due: float | None) -> None:
        """Send ``op`` on an idle connection (``due`` None: closed loop)."""
        conn = self.idle.pop()
        begin = clock()
        lag = 0.0 if due is None else account(due, conn.free_at, begin, begin)[1]
        try:
            encode_s = conn.send(op["request"])
        except OSError as error:
            conn.inflight = (op,)
            self.busy += 1
            self._lost(conn, f"{type(error).__name__}: {error}")
            return
        conn.inflight = (op, due if due is not None else begin, begin, lag, encode_s)
        self.busy += 1

    def wait(self, timeout: float | None) -> None:
        """Handle the replies that arrive within ``timeout``."""
        for key, _mask in self.selector.select(timeout):
            conn = key.data
            try:
                line = conn.feed()
            except OSError as error:
                self._lost(conn, f"{type(error).__name__}: {error}")
                continue
            if line is None:
                continue
            done = clock()
            op, due, begin, lag, encode_s = conn.inflight
            conn.inflight = None
            self.busy -= 1
            sample = Sample(op["kind"], True, latency_s=done - due, lag_s=lag,
                            encode_s=encode_s)
            try:
                reply, sample.decode_s = conn.decode(line)
            except ValueError as error:
                sample.ok, sample.error = False, f"undecodable reply: {error}"
            else:
                finish(op, sample, reply, line, self.verifier, self.on_commit)
            sample.latency_s += sample.decode_s
            sample.client_s = done + sample.decode_s - begin
            self.samples.append(sample)
            conn.free_at = clock()
            self.idle.append(conn)

    def _lost(self, conn: Connection, error: str) -> None:
        """A dead connection: its op fails, a fresh connection replaces it."""
        if conn.inflight is not None:
            self.busy -= 1
            self.samples.append(Sample(conn.inflight[0]["kind"], False, error=error))
        self.selector.unregister(conn.sock)
        conn.close()
        if conn in self.idle:
            self.idle.remove(conn)
        self.retries += 1
        self._add(Connection(self.path))

    def drain(self) -> None:
        while self.busy:
            self.wait(None)

    def close(self) -> None:
        for key in list(self.selector.get_map().values()):
            key.data.close()
        self.selector.close()


def open_loop(path: str, n_conn: int, schedule: Schedule, ops: list,
              verifier: Verifier, on_commit) -> tuple[Loop, float]:
    """``ops[i]`` falls due at ``schedule.due[i]``; a due request goes
    out on the first free connection. Returns the loop (its samples and
    retries) and the phase's wall time."""
    loop = Loop(path, n_conn, verifier, on_commit)
    start = clock() + 0.01
    try:
        index = 0
        while index < len(ops):
            due = start + schedule.due[index]
            while loop.idle and clock() >= due:
                loop.start(ops[index], due)
                index += 1
                if index == len(ops):
                    break
                due = start + schedule.due[index]
            if index == len(ops):
                break
            timeout = max(0.0, due - clock()) if loop.idle else None
            loop.wait(timeout)
        loop.drain()
    finally:
        loop.close()
    return loop, clock() - start


def closed_loop(path: str, n_conn: int, seconds: float, next_op,
                verifier: Verifier, on_commit) -> tuple[Loop, float]:
    """Every connection sends its next op as soon as its reply arrives,
    for ``seconds``."""
    loop = Loop(path, n_conn, verifier, on_commit)
    start = clock()
    stop_at = start + seconds
    try:
        while clock() < stop_at:
            while loop.idle:
                loop.start(next_op(), None)
            loop.wait(max(0.0, stop_at - clock()))
        loop.drain()
    finally:
        loop.close()
    return loop, clock() - start

