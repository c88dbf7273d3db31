"""Load generator: one child process driving a few loopback connections.

Reads its plan as one JSON line on stdin, connects, answers ``ready``
on stdout and reads the start and stop times from a second line. Then
it sends ``submit`` frames — closed loop: a fixed window of frames in
flight per connection; open loop: every frame at its scheduled due
time — and writes what happened to stdout: one JSON line with a record
per request, then each answered request's reply payload,
length-prefixed, in record order.

It uses the standard library only and frames the protocol itself, so a
change to the program's client or protocol helpers does not change the
load. Request ids are unique across connections, and every query of a
frame carries its request id as its timestamp, which is how the traced
run ties server-side spans to requests.
"""

from __future__ import annotations

import asyncio
import json
import struct
import sys
import time

HEADER = struct.Struct(">I")
RESULT_PREFIX = b'{"type":"result","id":'
clock = time.perf_counter  # CLOCK_MONOTONIC: shared with the server process


def encode(frame: dict) -> bytes:
    payload = json.dumps(frame, separators=(",", ":")).encode() + b"\n"
    return HEADER.pack(len(payload)) + payload


def reply_id(payload: bytes) -> tuple[int | None, str]:
    """The request id and status of one reply payload."""
    if payload.startswith(RESULT_PREFIX):
        end = payload.index(b",", len(RESULT_PREFIX))
        return int(payload[len(RESULT_PREFIX) : end]), "ok"
    frame = json.loads(payload)
    return frame.get("id"), f"{frame.get('type')}:{frame.get('code', '')}"


class Run:
    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.n_conn = int(plan["connections"])
        self.start_at = self.stop_at = self.drain_until = 0.0
        self.pool = [
            (app, json.dumps(queries, separators=(",", ":")), len(queries))
            for app, queries in plan["pool"]
        ]
        # rid -> [pool index, connection, due, sent, replied, status]
        self.records: dict[int, list] = {}
        self.replies: dict[int, bytes] = {}
        self.outstanding = 0
        self.all_sent = asyncio.Event()
        self.drained = asyncio.Event()

    def frame(self, rid: int, index: int) -> bytes:
        app, queries, n = self.pool[index]
        stamps = ",".join([str(rid)] * n)
        payload = (
            f'{{"type":"submit","id":{rid},"application":{json.dumps(app)},'
            f'"queries":{queries},"timestamps":[{stamps}]}}\n'
        ).encode()
        return HEADER.pack(len(payload)) + payload

    async def connect(self, host: str, port: int):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode({"type": "hello", "version": 1}))
        await writer.drain()
        head = await reader.readexactly(HEADER.size)
        payload = await reader.readexactly(HEADER.unpack(head)[0])
        if json.loads(payload).get("type") != "hello_ok":
            raise RuntimeError(f"handshake refused: {payload[:200]!r}")
        return reader, writer

    def send(self, writer, rid: int, index: int, conn: int, due: float) -> None:
        data = self.frame(rid, index)
        # stamped before the write: the server may answer before it returns
        self.records[rid] = [index, conn, due, clock(), None, "unanswered"]
        self.outstanding += 1
        writer.write(data)

    async def receive(self, reader, window: asyncio.Semaphore | None) -> None:
        buffer = bytearray()
        while True:
            try:
                data = await reader.read(1 << 16)
            except (ConnectionError, OSError):
                return
            if not data:
                return
            now = clock()
            buffer.extend(data)
            while len(buffer) >= HEADER.size:
                (length,) = HEADER.unpack_from(buffer)
                if len(buffer) < HEADER.size + length:
                    break
                payload = bytes(buffer[HEADER.size : HEADER.size + length])
                del buffer[: HEADER.size + length]
                rid, status = reply_id(payload)
                record = self.records.get(rid)
                if record is None or record[4] is not None:
                    continue  # an unsolicited frame; nothing to time
                record[4] = now
                record[5] = status
                self.replies[rid] = payload
                self.outstanding -= 1
                if window is not None:
                    window.release()
                if self.outstanding == 0 and self.all_sent.is_set():
                    self.drained.set()

    async def closed_sender(self, conn: int, writer, window) -> None:
        indices = list(range(conn, len(self.pool), self.n_conn))
        k = 0
        while True:
            try:
                await asyncio.wait_for(
                    window.acquire(), max(0.0, self.stop_at - clock())
                )
            except asyncio.TimeoutError:
                return  # the window never reopened before the stop time
            now = clock()
            if now >= self.stop_at:
                return
            rid = k * self.n_conn + conn
            self.send(writer, rid, indices[k % len(indices)], conn, now)
            k += 1
            await writer.drain()

    async def open_sender(self, conn: int, writer) -> None:
        schedule = self.plan["schedule"]
        for k in range(conn, len(schedule), self.n_conn):
            offset, index = schedule[k]
            due = self.start_at + offset
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self.send(writer, k, index, conn, due)
            await writer.drain()

    async def main(self) -> None:
        conns = [
            await self.connect(self.plan["host"], self.plan["port"])
            for _ in range(self.n_conn)
        ]
        # connected: tell the server process, then take the timing it
        # chose (absolute CLOCK_MONOTONIC times) on a second stdin line
        sys.stdout.buffer.write(b"ready\n")
        sys.stdout.buffer.flush()
        times = json.loads(sys.stdin.buffer.readline())
        self.start_at = float(times["start_at"])
        self.stop_at = float(times["stop_at"])
        self.drain_until = self.stop_at + float(times["drain_seconds"])
        closed = self.plan["mode"] == "closed"
        windows = [
            asyncio.Semaphore(int(self.plan["window"])) if closed else None
            for _ in conns
        ]
        receivers = [
            asyncio.create_task(self.receive(reader, windows[c]))
            for c, (reader, _) in enumerate(conns)
        ]
        await asyncio.sleep(max(0.0, self.start_at - clock()))
        senders = [
            self.closed_sender(c, writer, windows[c])
            if closed
            else self.open_sender(c, writer)
            for c, (_, writer) in enumerate(conns)
        ]
        await asyncio.gather(*senders)
        self.all_sent.set()
        if self.outstanding == 0:
            self.drained.set()
        try:
            await asyncio.wait_for(
                self.drained.wait(), max(0.0, self.drain_until - clock())
            )
        except asyncio.TimeoutError:
            pass  # whatever is still out is reported unanswered
        for _, writer in conns:
            writer.close()
        for task in receivers:
            task.cancel()
        await asyncio.gather(*receivers, return_exceptions=True)
        for _, writer in conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def main() -> int:
    plan = json.loads(sys.stdin.buffer.readline())
    run = Run(plan)
    asyncio.run(run.main())
    out = sys.stdout.buffer
    rids = sorted(run.records)
    out.write(
        json.dumps(
            {"requests": [[rid, *run.records[rid]] for rid in rids]},
            separators=(",", ":"),
        ).encode()
        + b"\n"
    )
    for rid in rids:
        payload = run.replies.get(rid)
        if payload is not None:
            out.write(HEADER.pack(len(payload)) + payload)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
