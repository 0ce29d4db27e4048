#!/usr/bin/env python3
"""Load generator for cqad, the persistent CQA query service.

Speaks the wire protocol from docs/protocol.md (4-byte big-endian length
prefix + one payload per frame, v1 JSON or v2 binary via --codec) with
nothing but the Python standard library. A single-threaded selectors
engine drives a configurable number of concurrent connections — scaling
to thousands — each keeping up to --pipeline requests in flight
(responses match requests by client-assigned id and may arrive out of
order). It reports:

  * client-side latency quantiles (p50/p95/p99) measured per request,
  * the server's own view, read back through the `stats` op: the
    serve.request_micros histogram quantiles plus synopsis-cache and
    admission counters, so client- and server-side numbers can be
    compared in one run.

Every query carries a wire trace context ("trace": {"id": "loadgen-N"}),
so server-side spans and access-log lines join back to client requests.
Observability cross-checks, all optional:

  * --metrics-port=N (with --spawn) starts cqad's Prometheus listener
    and --scrape pulls /metrics + /healthz after the run, diffing the
    client p95 against the scraped cqa_serve_request_micros histogram;
  * --access-log=FILE (with --spawn) passes --obs_access_log and then
    validates the JSONL schema and that per-phase micros sum to within
    10% of each logged total;
  * --trace-export=FILE (with --spawn) passes --obs_trace and verifies
    the exported spans carry the loadgen trace ids verbatim;
  * --pprof (needs --metrics-port) pulls /debug/pprof/profile while the
    load runs — repeating the request set until the profile arrives, so
    the whole window samples a loaded daemon — and asserts it holds at
    least PPROF_MIN_SAMPLES samples of which the serve.sample phase
    takes the required share: the sampling profiler cross-checked
    against phase timing.

Typical session against an already-running daemon:

    python3 tools/loadgen.py --port=7411 --data=/tmp/tpch \
        --requests=200 --concurrency=16

Self-contained session (spawns the daemon, generates a dataset, drives
load, then SIGTERMs the daemon and verifies the graceful drain):

    python3 tools/loadgen.py --spawn=build/serve/cqad \
        --gen=build/examples/cqa_cli --sf=0.001 \
        --requests=200 --concurrency=16

By default requests rotate through all four schemes (Natural, KL, KLM,
Cover) and a small set of seeds, so the daemon's synopsis cache is
exercised with both hits and misses; pass --scheme to pin one.

Exit status: 0 on success; 1 if any request failed with an unexpected
error or the drain check fails. Under --allow-shed, 503-shed responses
are expected and counted, not failed, but the shed contract is checked
instead: every 503 must carry retry_after_s > 0, and the server's
admission_shed counter (from the `stats` op) must grow by exactly the
number of 503s received.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import selectors
import shutil
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time

DEFAULT_QUERY = (
    "Q(NN) :- customer(CK, CN, CA, NK, CP, CB, CS, CC), "
    "nation(NK, NN, RK, NC)."
)
SCHEMES = ["Natural", "KL", "KLM", "Cover"]
MAX_FRAME = 8 * 1024 * 1024
# Fewest CPU samples a --pprof profile may hold: below it, a couple of
# samples would decide the serve.sample share rule.
PPROF_MIN_SAMPLES = 30


# ---------------------------------------------------------------------------
# Wire protocol: length-prefixed JSON frames (docs/protocol.md).
# ---------------------------------------------------------------------------

def send_frame(sock: socket.socket, payload: dict) -> None:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    sock.sendall(struct.pack(">I", len(body)) + body)


def recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict:
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    if length == 0 or length > MAX_FRAME:
        raise ConnectionError(f"bad frame length {length}")
    return json.loads(recv_exact(sock, length).decode("utf-8"))


def call(host: str, port: int, payload: dict, timeout: float = 60.0) -> dict:
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_frame(sock, payload)
        return recv_frame(sock)


# ---------------------------------------------------------------------------
# Binary (v2) codec. Field tables mirror src/serve/protocol.cc and the
# layout section of docs/protocol.md.
# ---------------------------------------------------------------------------

BINARY_MAGIC = 0x02
KIND_REQUEST = 0x01
KIND_RESPONSE = 0x02
OPS = {"query": 0, "stats": 1, "ping": 2}
SCHEMAS = {"tpch": 0, "tpcds": 1}


def _varint(v: int) -> bytes:
    out = bytearray()
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _vf(field: int, v: int) -> bytes:          # varint field
    return _varint(field << 3) + _varint(v)


def _lf(field: int, data: bytes) -> bytes:     # length-delimited field
    return _varint((field << 3) | 2) + _varint(len(data)) + data


def _ff(field: int, x: float) -> bytes:        # fixed64 (double) field
    return _varint((field << 3) | 1) + struct.pack("<d", x)


def encode_request(payload: dict, codec: str) -> bytes:
    """Serializes one request payload in the chosen codec."""
    if codec == "json":
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")
    out = bytearray((BINARY_MAGIC, KIND_REQUEST))
    out += _vf(1, OPS[payload["op"]])
    if payload.get("id"):
        out += _lf(2, payload["id"].encode("utf-8"))
    trace = payload.get("trace", {})
    if trace.get("id"):
        out += _lf(13, trace["id"].encode("utf-8"))
        if trace.get("parent"):
            out += _vf(14, trace["parent"])
    if payload["op"] == "query":
        out += _vf(3, SCHEMAS[payload.get("schema", "tpch")])
        out += _lf(4, payload.get("data", "").encode("utf-8"))
        out += _lf(5, payload.get("query", "").encode("utf-8"))
        out += _lf(6, payload.get("scheme", "KLM").encode("utf-8"))
        out += _ff(7, payload.get("epsilon", 0.1))
        out += _ff(8, payload.get("delta", 0.25))
        if payload.get("deadline_s", 0) > 0:
            out += _ff(9, payload["deadline_s"])
        out += _vf(10, payload.get("seed", 7))
        if payload.get("threads", 1) > 1:
            out += _vf(11, payload["threads"])
        if payload.get("want_record"):
            out += _vf(12, 1)
    return bytes(out)


class _BinReader:
    def __init__(self, body: bytes) -> None:
        self.body = body
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.body)

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            if self.pos >= len(self.body) or shift > 63:
                raise ValueError("truncated varint")
            b = self.body[self.pos]
            self.pos += 1
            value |= (b & 0x7F) << shift
            if not b & 0x80:
                return value
            shift += 7

    def fixed64(self) -> float:
        if self.pos + 8 > len(self.body):
            raise ValueError("truncated fixed64")
        (v,) = struct.unpack_from("<d", self.body, self.pos)
        self.pos += 8
        return v

    def bytes_field(self) -> bytes:
        n = self.varint()
        if self.pos + n > len(self.body):
            raise ValueError("truncated length-delimited field")
        out = self.body[self.pos:self.pos + n]
        self.pos += n
        return out


def decode_response(body: bytes) -> dict:
    """Decodes a response payload (either codec) into the JSON dict shape
    the rest of this tool consumes."""
    if not body:
        raise ValueError("empty response payload")
    if body[0] != BINARY_MAGIC:
        return json.loads(body.decode("utf-8"))
    if len(body) < 2 or body[1] != KIND_RESPONSE:
        raise ValueError("binary payload is not a response")
    reply: dict = {"v": 2, "status": "ok", "code": 0}
    r = _BinReader(body[2:])
    while not r.at_end():
        tag = r.varint()
        field, wire = tag >> 3, tag & 0x7
        if field == 1:
            reply["id"] = r.bytes_field().decode("utf-8")
        elif field == 2:
            reply["code"] = r.varint()
            reply["status"] = "error" if reply["code"] else "ok"
        elif field == 3:
            reply["error"] = r.bytes_field().decode("utf-8")
        elif field == 4:
            reply["retry_after_s"] = r.fixed64()
        elif field == 5:
            flags = r.varint()
            if flags & 1:
                reply["cache"] = "hit"
            if flags & 2:
                reply["timed_out"] = True
            if flags & 4:
                reply["pong"] = True
        elif field == 6:
            reply["preprocess_seconds"] = r.fixed64()
        elif field == 7:
            reply["scheme_seconds"] = r.fixed64()
        elif field == 8:
            reply["total_samples"] = r.varint()
        elif field == 9:
            t = _BinReader(r.bytes_field())
            reply["timing"] = {
                name: t.varint()
                for name in ("queue_wait_micros", "cache_micros",
                             "preprocess_micros", "sample_micros",
                             "encode_micros", "total_micros")
            }
        elif field == 10:
            a = _BinReader(r.bytes_field())
            count = a.varint()
            tuples = [a.bytes_field().decode("utf-8") for _ in range(count)]
            reply["answers"] = [
                {"tuple": t, "frequency": a.fixed64()} for t in tuples
            ]
        elif field == 11:
            reply["record"] = json.loads(r.bytes_field().decode("utf-8"))
        elif field == 12:
            reply["metrics"] = json.loads(r.bytes_field().decode("utf-8"))
        elif field == 13:
            reply["server"] = json.loads(r.bytes_field().decode("utf-8"))
        elif wire == 0:
            r.varint()
        elif wire == 1:
            r.fixed64()
        elif wire == 2:
            r.bytes_field()
        else:
            raise ValueError(f"reserved wire type {wire}")
    return reply


# ---------------------------------------------------------------------------
# Pipelined connection engine: one thread, selectors, N connections each
# keeping up to `depth` requests in flight (client-assigned ids match
# responses back to requests; the server may complete them out of order).
# ---------------------------------------------------------------------------

class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies_s: list[float] = []
        self.samples: list[float] = []
        self.by_status: dict[str, int] = {}
        self.cache_hits = 0
        self.shed = 0
        self.shed_without_retry = 0  # 503s lacking retry_after_s > 0.
        self.failures: list[str] = []

    def record(self, elapsed: float, reply: dict) -> None:
        status = reply.get("status", "?")
        code = int(reply.get("code", 0))
        with self.lock:
            self.latencies_s.append(elapsed)
            if "total_samples" in reply:
                self.samples.append(float(reply["total_samples"]))
            key = status if status == "ok" else f"error {code}"
            self.by_status[key] = self.by_status.get(key, 0) + 1
            if reply.get("cache") == "hit":
                self.cache_hits += 1
            if code == 503:
                self.shed += 1
                if not float(reply.get("retry_after_s", 0)) > 0:
                    self.shed_without_retry += 1

    def fail(self, message: str) -> None:
        with self.lock:
            self.failures.append(message)

    def merge(self, other: "Stats") -> None:
        with self.lock:
            self.latencies_s.extend(other.latencies_s)
            self.samples.extend(other.samples)
            for key, n in other.by_status.items():
                self.by_status[key] = self.by_status.get(key, 0) + n
            self.cache_hits += other.cache_hits
            self.shed += other.shed
            self.shed_without_retry += other.shed_without_retry
            self.failures.extend(other.failures)


def build_payload(args: argparse.Namespace, i: int) -> dict:
    payload = {
        "v": 1,
        "op": "query",
        "id": f"loadgen-{i}",
        "schema": args.schema,
        "data": args.data,
        "query": args.query,
        "scheme": args.scheme or SCHEMES[i % len(SCHEMES)],
        "epsilon": args.epsilon,
        "delta": args.delta,
        "seed": args.seed_base + (i // len(SCHEMES)) % args.seeds,
        "trace": {"id": f"loadgen-{i}"},
    }
    if args.deadline > 0:
        payload["deadline_s"] = args.deadline
    return payload


class Conn:
    """One pipelined connection working through its slice of requests."""

    def __init__(self, args: argparse.Namespace, indices: list[int],
                 stats: Stats, depth: int) -> None:
        self.args = args
        self.stats = stats
        self.depth = depth
        self.pending = collections.deque(indices)
        self.inflight: dict[str, tuple[int, float]] = {}
        self.outbuf = bytearray()
        self.inbuf = bytearray()
        self.done = False
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.connect_ex((args.host, args.port))
        self.fill()

    def fill(self) -> None:
        """Encodes requests into outbuf until the window is full."""
        while self.pending and len(self.inflight) < self.depth:
            i = self.pending.popleft()
            payload = build_payload(self.args, i)
            body = encode_request(payload, self.args.codec)
            self.outbuf += struct.pack(">I", len(body)) + body
            self.inflight[payload["id"]] = (i, time.monotonic())

    def events(self) -> int:
        return selectors.EVENT_READ | (
            selectors.EVENT_WRITE if self.outbuf else 0)

    def finish(self, error: str | None = None) -> None:
        if error is not None:
            self.stats.fail(error)
        self.done = True

    def on_frame(self, body: bytes) -> None:
        if self.args.codec == "binary" and body[:1] == b"{":
            # The server must answer in the codec the request arrived
            # in; a JSON reply to a binary request means it silently
            # negotiated down to v1 — a protocol bug, never tolerated.
            raise ValueError(
                "server negotiated binary request down to v1 JSON: "
                f"{body[:80]!r}")
        reply = decode_response(body)
        rid = reply.get("id", "")
        entry = self.inflight.pop(rid, None)
        if entry is None:
            raise ValueError(f"response for unknown id {rid!r}")
        i, start = entry
        self.stats.record(time.monotonic() - start, reply)
        code = int(reply.get("code", 0))
        if reply.get("status") != "ok" and not (
                code == 503 and self.args.allow_shed):
            self.finish(f"request {i}: error {code}: "
                        f"{reply.get('error', '')}")

    def on_ready(self, mask: int) -> None:
        try:
            if mask & selectors.EVENT_WRITE and self.outbuf:
                sent = self.sock.send(self.outbuf)
                del self.outbuf[:sent]
            if mask & selectors.EVENT_READ:
                chunk = self.sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("peer closed mid-stream")
                self.inbuf += chunk
                while len(self.inbuf) >= 4 and not self.done:
                    (length,) = struct.unpack_from(">I", self.inbuf)
                    if length == 0 or length > MAX_FRAME:
                        raise ConnectionError(f"bad frame length {length}")
                    if len(self.inbuf) < 4 + length:
                        break
                    body = bytes(self.inbuf[4:4 + length])
                    del self.inbuf[:4 + length]
                    self.on_frame(body)
                self.fill()
            if not self.done and not self.pending and not self.inflight:
                self.finish()
        except BlockingIOError:
            pass
        except (OSError, ConnectionError, ValueError) as err:
            self.finish(f"connection: {err}")


def run_load(args: argparse.Namespace, depth: int, stats: Stats) -> float:
    """Drives args.requests requests over args.concurrency pipelined
    connections at the given depth. Returns the wall time."""
    slices: list[list[int]] = [[] for _ in range(args.concurrency)]
    # Deal request indices round-robin so every connection sees the same
    # scheme/seed mix and cache misses are front-loaded evenly.
    for i in range(args.requests):
        slices[i % args.concurrency].append(i)
    sel = selectors.DefaultSelector()
    start = time.monotonic()
    live = 0
    for s in slices:
        if not s:
            continue
        conn = Conn(args, s, stats, depth)
        sel.register(conn.sock, conn.events(), conn)
        live += 1
    while live > 0:
        ready = sel.select(timeout=120.0)
        if not ready:
            for key in list(sel.get_map().values()):
                key.data.finish("timed out waiting for responses")
                sel.unregister(key.fileobj)
                key.data.sock.close()
            break
        for key, mask in ready:
            conn: Conn = key.data
            conn.on_ready(mask)
            if conn.done:
                sel.unregister(conn.sock)
                conn.sock.close()
                live -= 1
            else:
                sel.modify(conn.sock, conn.events(), conn)
    sel.close()
    return time.monotonic() - start


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------

def quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return math.nan
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def print_client_report(stats: Stats, wall_s: float) -> None:
    lat = sorted(stats.latencies_s)
    print(f"requests:      {len(lat)} in {wall_s:.2f}s "
          f"({len(lat) / wall_s:.1f} req/s)" if wall_s > 0 else
          f"requests:      {len(lat)}")
    for key in sorted(stats.by_status):
        print(f"  {key}: {stats.by_status[key]}")
    print(f"  cache hits: {stats.cache_hits}")
    if lat:
        print("client-side latency:")
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99),
                        ("p99.9", 0.999)):
            print(f"  {name}: {quantile(lat, q) * 1e3:9.2f} ms")
        print(f"  max: {lat[-1] * 1e3:9.2f} ms")


def print_depth_table(args: argparse.Namespace,
                      cells: list[tuple[str, int, Stats, float]]) -> None:
    """One latency column per (codec, pipeline depth), quantile rows."""
    print(f"pipeline sweep: codec={args.codec}, "
          f"connections={args.concurrency}, "
          f"{args.requests} requests per cell")
    header = f"  {'':>10}" + "".join(
        f"  {codec[:4]}:{d:<6}" for codec, d, _, _ in cells)
    print(header)
    rows: list[tuple[str, list[str]]] = []
    quantiles = (("p50 ms", 0.50), ("p95 ms", 0.95), ("p99 ms", 0.99),
                 ("p99.9 ms", 0.999))
    for name, q in quantiles:
        row = []
        for _, _, stats, _ in cells:
            lat = sorted(stats.latencies_s)
            row.append(f"{quantile(lat, q) * 1e3:11.2f}")
        rows.append((name, row))
    rows.append(("req/s", [
        f"{len(s.latencies_s) / wall:11.1f}" if wall > 0 else f"{'-':>11}"
        for _, _, s, wall in cells
    ]))
    rows.append(("shed", [f"{s.shed:11d}" for _, _, s, _ in cells]))
    for name, row in rows:
        print(f"  {name:>10}" + "  ".join([""] + row))


def write_bench_json(args: argparse.Namespace,
                     cells: list[tuple[str, int, Stats, float]]) -> None:
    """Writes the sweep as a bench_json v1 artifact so bench_compare.py
    can diff serving latency across commits."""
    import platform

    results = []
    for codec, depth, stats, wall in cells:
        lat = sorted(stats.latencies_s)
        mean = sum(lat) / len(lat) if lat else math.nan
        var = (sum((x - mean) ** 2 for x in lat) / (len(lat) - 1)
               if len(lat) > 1 else 0.0)
        smp = stats.samples
        smp_mean = sum(smp) / len(smp) if smp else 0.0
        smp_var = (sum((x - smp_mean) ** 2 for x in smp) / (len(smp) - 1)
                   if len(smp) > 1 else 0.0)
        results.append({
            "scenario": "ServeLatency",
            "x_label": "pipeline_depth",
            "x": depth,
            "series": f"{codec}-c{args.concurrency}",
            "runs": len(lat),
            "timeouts": 0,
            "wall_seconds": {"mean": mean, "stddev": math.sqrt(var)},
            "samples": {"mean": smp_mean, "stddev": math.sqrt(smp_var)},
            "p99_seconds": quantile(lat, 0.99),
            "throughput_rps": len(lat) / wall if wall > 0 else 0.0,
        })
    doc = {
        "bench_json_version": 1,
        "name": "bench_serve",
        "git_sha": os.environ.get("GIT_SHA", "unknown"),
        "build": "Release",
        "no_obs": False,
        "unix_time": int(time.time()),
        "host": {
            "os": platform.system(),
            "machine": platform.machine(),
            "hardware_concurrency": os.cpu_count() or 1,
        },
        "config": {
            "requests": args.requests,
            "concurrency": args.concurrency,
            "codec": args.codec,
            "epsilon": args.epsilon,
            "delta": args.delta,
        },
        "results": results,
    }
    with open(args.bench_out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote bench json: {args.bench_out}")


def stats_op(host: str, port: int) -> dict:
    """The `stats` op's reply, or {} when the op fails."""
    try:
        return call(host, port, {"v": 1, "op": "stats"})
    except (OSError, ConnectionError, ValueError) as err:
        print(f"stats op failed: {err}", file=sys.stderr)
        return {}


def print_server_report(reply: dict) -> None:
    if not reply:
        return
    server = reply.get("server", {})
    metrics = reply.get("metrics", {})
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    print("server-side view (stats op):")
    for key in ("requests_total", "admission_shed", "cache_hits",
                "cache_misses", "cache_evictions", "cache_entries"):
        if key in server:
            print(f"  {key}: {server[key]}")
    micros = histograms.get("serve.request_micros")
    if micros:
        print("  serve.request_micros histogram:")
        for name in ("p50", "p95", "p99", "p999"):
            if name in micros:
                print(f"    {name}: {float(micros[name]) / 1e3:9.2f} ms")
        print(f"    count: {micros['count']}, max: "
              f"{float(micros['max']) / 1e3:.2f} ms")
    builds = counters.get("preprocess.builds")
    if builds is not None:
        print(f"  preprocess.builds: {builds}")


def check_shed_contract(stats: Stats, reply: dict, shed_before: int) -> bool:
    """--allow-shed: every 503 carries retry_after_s > 0, and the server's
    admission_shed counter grew by exactly the 503s this run received."""
    ok = True
    if stats.shed_without_retry:
        print(f"FAIL: {stats.shed_without_retry} of {stats.shed} 503 "
              "responses lack retry_after_s > 0", file=sys.stderr)
        ok = False
    server = reply.get("server", {})
    if "admission_shed" not in server:
        print("FAIL: no admission_shed from the stats op", file=sys.stderr)
        return False
    server_shed = int(server["admission_shed"]) - shed_before
    if server_shed != stats.shed:
        print(f"FAIL: server admission_shed grew by {server_shed}, but "
              f"{stats.shed} 503 responses arrived", file=sys.stderr)
        ok = False
    if ok:
        print(f"shed contract: {stats.shed} x 503, each with "
              "retry_after_s > 0, equal to the server's admission_shed")
    return ok


# ---------------------------------------------------------------------------
# Prometheus scrape + offline artifact checks.
# ---------------------------------------------------------------------------

def http_get_bytes(host: str, port: int, path: str,
                   timeout: float = 10.0) -> tuple[int, bytes]:
    """Minimal HTTP GET (stdlib http.client) returning (status, body)."""
    import http.client
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def http_get(host: str, port: int, path: str,
             timeout: float = 10.0) -> tuple[int, str]:
    status, body = http_get_bytes(host, port, path, timeout)
    return status, body.decode("utf-8")


def parse_prometheus(text: str) -> dict[str, float]:
    """Exposition text -> {sample name with labels: value}. Raises on any
    line that is neither a comment nor 'name[{labels}] value'."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise ValueError(f"unparseable exposition line: {line!r}")
        samples[name] = float(value)
    return samples


def histogram_quantile(samples: dict[str, float], name: str,
                       q: float) -> float:
    """q-quantile upper bound (seconds-free, raw unit) from _bucket
    samples; nan when the histogram is absent or empty."""
    buckets = []
    prefix = f'{name}_bucket{{le="'
    for key, value in samples.items():
        if key.startswith(prefix):
            le = key[len(prefix):-2]
            buckets.append((math.inf if le == "+Inf" else float(le), value))
    buckets.sort()
    count = samples.get(f"{name}_count", 0.0)
    if not buckets or count <= 0:
        return math.nan
    target = q * count
    for le, cumulative in buckets:
        if cumulative >= target:
            return le
    return buckets[-1][0]


def scrape_and_compare(args: argparse.Namespace, stats: Stats) -> bool:
    status, health = http_get(args.host, args.metrics_port, "/healthz")
    print(f"healthz: {status} {health.strip()!r}")
    if status != 200:
        print("FAIL: /healthz not 200 while serving", file=sys.stderr)
        return False
    status, body = http_get(args.host, args.metrics_port, "/metrics")
    if status != 200:
        print(f"FAIL: /metrics returned {status}", file=sys.stderr)
        return False
    try:
        samples = parse_prometheus(body)
    except ValueError as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return False
    count = samples.get("cqa_serve_request_micros_count", 0.0)
    print(f"scraped /metrics: {len(samples)} samples, "
          f"cqa_serve_request_micros_count={count:.0f}")
    if count < len(stats.latencies_s):
        print("FAIL: scraped request histogram count below client request "
              f"count ({count:.0f} < {len(stats.latencies_s)})",
              file=sys.stderr)
        return False
    client_p95_us = quantile(sorted(stats.latencies_s), 0.95) * 1e6
    server_p95_us = histogram_quantile(samples, "cqa_serve_request_micros",
                                       0.95)
    if not math.isnan(server_p95_us):
        print(f"p95 compare: client {client_p95_us / 1e3:.2f} ms vs scraped "
              f"server histogram upper bound {server_p95_us / 1e3:.2f} ms")
        # Power-of-two buckets report an upper bound: the server value may
        # be up to 2x above the true latency, and the client adds RTT on
        # top of the server's view — so only order-of-magnitude agreement
        # is checkable. A 'bound below client/4' breach means the scrape
        # and the run measured different things.
        if server_p95_us * 4 < client_p95_us:
            print("FAIL: scraped server p95 implausibly below client p95",
                  file=sys.stderr)
            return False
    return True


def pprof_worker(args: argparse.Namespace, result: dict) -> None:
    """Fetches /debug/pprof/profile while the load runs (own thread)."""
    try:
        status, body = http_get_bytes(
            args.host, args.metrics_port,
            f"/debug/pprof/profile?seconds={args.pprof_seconds}",
            timeout=args.pprof_seconds + 30.0)
        result["status"] = status
        result["body"] = body
    except OSError as err:
        result["error"] = str(err)


def check_pprof(args: argparse.Namespace, result: dict) -> bool:
    """Decodes the profile collected under load and asserts the sampler
    phase ([serve.sample] region frames) dominates the samples — the
    profiler agreeing with what the phase timings already say the
    daemon spends its CPU on."""
    import gzip

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import profile_view

    if "error" in result:
        print(f"FAIL: pprof fetch: {result['error']}", file=sys.stderr)
        return False
    status = result.get("status")
    if status == 501:
        print("pprof check skipped: this build cannot profile "
              "(CQABENCH_NO_OBS or sanitizers; endpoint answered 501)")
        return True
    if status != 200:
        print(f"FAIL: /debug/pprof/profile returned {status}",
              file=sys.stderr)
        return False
    try:
        folded = profile_view.decode_profile(gzip.decompress(result["body"]))
    except (OSError, ValueError) as err:
        print(f"FAIL: profile did not decode: {err}", file=sys.stderr)
        return False
    total = sum(count for _, count in folded)
    if total < PPROF_MIN_SAMPLES:
        print(f"FAIL: profile holds {total} samples under load, fewer than "
              f"{PPROF_MIN_SAMPLES}", file=sys.stderr)
        return False
    share = profile_view.share_of(folded, "serve.sample")
    print(f"pprof under load: {total} samples, "
          f"serve.sample share {share:.1%} "
          f"(required ≥ {args.pprof_min_sample_share:.1%})")
    if share < args.pprof_min_sample_share:
        print(f"FAIL: serve.sample share {share:.1%} below "
              f"{args.pprof_min_sample_share:.1%} — the profiler and the "
              f"phase timings disagree about where CPU goes",
              file=sys.stderr)
        return False
    return True


def check_access_log(path: str, first_pass: float) -> bool:
    """Validates the JSONL access log: parseable lines, trace ids present,
    and ok-query phase sums within 10% of the logged total over the first
    `first_pass` query lines — the requested load. The rounds --pprof
    repeats only to keep the profile window busy are parsed but not
    phase-checked."""
    lines = 0
    queries = 0
    checked = 0
    traced = 0
    worst = 0.0
    phases = ("queue_wait_micros", "cache_micros", "preprocess_micros",
              "sample_micros", "encode_micros")
    with open(path, "r", encoding="utf-8") as f:
        for raw in f:
            if not raw.strip():
                continue
            entry = json.loads(raw)
            lines += 1
            if "op" not in entry or "code" not in entry:
                print(f"FAIL: access-log line missing op/code: {raw!r}",
                      file=sys.stderr)
                return False
            if entry.get("trace_id", "").startswith("loadgen-"):
                traced += 1
            if entry["op"] != "query":
                continue
            queries += 1
            if entry["code"] != 0 or queries > first_pass:
                continue
            total = entry["total_micros"]
            phase_sum = sum(entry[p] for p in phases)
            if total >= 1000:
                checked += 1
                gap = abs(total - phase_sum) / total
                worst = max(worst, gap)
                if gap > 0.10:
                    print(f"FAIL: phase sum {phase_sum} vs total {total} "
                          f"({gap:.1%} apart): {raw!r}", file=sys.stderr)
                    return False
    print(f"access log: {lines} lines, {traced} with loadgen trace ids, "
          f"{checked} phase-sum checks passed (worst gap {worst:.1%}), "
          f"{max(0, queries - first_pass):.0f} repeated-round queries "
          f"not phase-checked")
    if lines == 0:
        print("FAIL: access log is empty", file=sys.stderr)
        return False
    return True


def check_trace_export(path: str, requests: int) -> bool:
    """Verifies the exported span JSONL carries loadgen trace ids."""
    span_count = 0
    traced_ids = set()
    with open(path, "r", encoding="utf-8") as f:
        for raw in f:
            if not raw.strip():
                continue
            record = json.loads(raw)
            if record.get("trace_meta"):
                print(f"trace export: dropped_spans="
                      f"{record.get('dropped_spans')}, buffered_spans="
                      f"{record.get('buffered_spans')}")
                continue
            span_count += 1
            trace_id = record.get("trace_id", "")
            if trace_id.startswith("loadgen-"):
                traced_ids.add(trace_id)
    print(f"trace export: {span_count} spans, {len(traced_ids)} distinct "
          f"loadgen trace ids")
    if not traced_ids:
        print("FAIL: no loadgen trace ids in exported spans", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# Optional daemon / dataset management.
# ---------------------------------------------------------------------------

def spawn_cqad(args: argparse.Namespace) -> subprocess.Popen:
    cmd = [args.spawn, f"--host={args.host}", f"--port={args.port}",
           f"--workers={args.workers}"]
    if args.metrics_port >= 0:
        cmd.append(f"--metrics_port={args.metrics_port}")
    if args.access_log:
        cmd.append(f"--obs_access_log={args.access_log}")
    if args.trace_export:
        cmd.append(f"--obs_trace={args.trace_export}")
    if args.cqad_flag:
        cmd.extend(args.cqad_flag)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    assert proc.stdout is not None
    line = proc.stdout.readline()
    # "cqad listening on HOST:PORT" — the daemon's readiness line.
    if "cqad listening on" not in line:
        proc.kill()
        raise RuntimeError(f"unexpected cqad output: {line!r}")
    args.port = int(line.rsplit(":", 1)[1])
    if args.metrics_port >= 0:
        line = proc.stdout.readline()
        # "cqad metrics on HOST:PORT" — resolves --metrics_port=0.
        if "cqad metrics on" not in line:
            proc.kill()
            raise RuntimeError(f"expected metrics line, got: {line!r}")
        args.metrics_port = int(line.rsplit(":", 1)[1])
    print(f"spawned cqad pid {proc.pid} on {args.host}:{args.port}")
    return proc


def drain_cqad(proc: subprocess.Popen, timeout: float) -> bool:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        print("cqad did not drain before timeout", file=sys.stderr)
        return False
    assert proc.stdout is not None
    tail = proc.stdout.read()
    if "cqad drained cleanly" not in tail:
        print(f"cqad exited without drain line; tail: {tail!r}",
              file=sys.stderr)
        return False
    print("cqad drained cleanly on SIGTERM")
    return proc.returncode == 0


def generate_dataset(args: argparse.Namespace) -> str:
    out = tempfile.mkdtemp(prefix="cqa_loadgen_")
    cmd = [args.gen, "gen", f"--schema={args.schema}", f"--sf={args.sf}",
           f"--out={out}", "--seed=17"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return out


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------

def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="cqad port (required unless --spawn)")
    parser.add_argument("--data", default="",
                        help=".tbl directory (required unless --gen)")
    parser.add_argument("--query", default=DEFAULT_QUERY)
    parser.add_argument("--schema", default="tpch",
                        choices=["tpch", "tpcds"])
    parser.add_argument("--scheme", default="",
                        help="pin one scheme; default rotates all four")
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--delta", type=float, default=0.25)
    parser.add_argument("--deadline", type=float, default=0.0,
                        help="per-request deadline seconds (0 = server default)")
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--pipeline", default="1",
                        help="requests kept in flight per connection; a "
                             "comma list (e.g. 1,4,16) sweeps the depths "
                             "and prints one latency column per depth")
    parser.add_argument("--codec", default="json",
                        help="wire codec for query requests: v1 json or "
                             "v2 binary (fails loudly if the server "
                             "answers a binary request in JSON); a comma "
                             "list (json,binary) sweeps both codecs")
    parser.add_argument("--bench-out", default="",
                        help="write the run as a bench_json v1 file "
                             "(BENCH_serve.json) for bench_compare.py")
    parser.add_argument("--max-p99", type=float, default=0.0,
                        help="fail if any depth's client-side p99 "
                             "latency exceeds this many seconds "
                             "(0 = no gate)")
    parser.add_argument("--seeds", type=int, default=2,
                        help="distinct seeds to rotate through")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--allow-shed", action="store_true",
                        help="treat 503 responses as expected, not "
                             "failures, but require retry_after_s > 0 on "
                             "each and the server's admission_shed to "
                             "match their count")
    parser.add_argument("--spawn", default="",
                        help="path to cqad: spawn it, drive it, SIGTERM it")
    parser.add_argument("--workers", type=int, default=8,
                        help="worker threads for a spawned cqad")
    parser.add_argument("--cqad-flag", action="append", default=[],
                        help="extra flag passed through to a spawned cqad "
                             "(repeatable), e.g. --cqad-flag=--max_queue=4")
    parser.add_argument("--metrics-port", type=int, default=-1,
                        help="with --spawn: start cqad's /metrics listener "
                             "on this port (0 = ephemeral); without --spawn: "
                             "the running daemon's metrics port")
    parser.add_argument("--pprof", action="store_true",
                        help="pull /debug/pprof/profile while repeating the "
                             "request set until it arrives, and assert the "
                             "serve.sample phase dominates its CPU samples "
                             "(needs --metrics-port)")
    parser.add_argument("--pprof-seconds", type=float, default=3.0,
                        help="profile collection window for --pprof")
    parser.add_argument("--pprof-min-sample-share", type=float, default=0.8,
                        help="minimum fraction of samples that must carry "
                             "the serve.sample region for --pprof to pass")
    parser.add_argument("--scrape", action="store_true",
                        help="after the run, scrape /metrics + /healthz and "
                             "diff client p95 vs the server histogram "
                             "(needs --metrics-port)")
    parser.add_argument("--access-log", default="",
                        help="with --spawn: pass --obs_access_log=FILE and "
                             "validate the JSONL (phase sums, trace ids) "
                             "after the drain")
    parser.add_argument("--trace-export", default="",
                        help="with --spawn: pass --obs_trace=FILE and verify "
                             "loadgen trace ids appear in exported spans")
    parser.add_argument("--gen", default="",
                        help="path to cqa_cli: generate a throwaway dataset")
    parser.add_argument("--sf", type=float, default=0.001,
                        help="scale factor for --gen")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    generated_dir = ""
    proc = None
    ok = True
    first_pass = math.inf  # Responses to the requested load.
    try:
        if args.gen:
            generated_dir = generate_dataset(args)
            args.data = generated_dir
            print(f"generated {args.schema} sf={args.sf} at {args.data}")
        if not args.data:
            print("error: --data (or --gen) is required", file=sys.stderr)
            return 2
        if args.spawn:
            proc = spawn_cqad(args)
        elif args.port == 0:
            print("error: --port (or --spawn) is required", file=sys.stderr)
            return 2

        try:
            depths = [int(d) for d in str(args.pipeline).split(",") if d]
        except ValueError:
            print(f"error: bad --pipeline {args.pipeline!r}",
                  file=sys.stderr)
            return 2
        if not depths or min(depths) < 1:
            print("error: --pipeline depths must be >= 1", file=sys.stderr)
            return 2
        codecs = [c for c in str(args.codec).split(",") if c]
        if not codecs or any(c not in ("json", "binary") for c in codecs):
            print(f"error: bad --codec {args.codec!r} (json, binary, or "
                  "a comma list of both)", file=sys.stderr)
            return 2
        stats = Stats()
        # A daemon that was already running may have shed before.
        shed_before = 0
        if args.allow_shed:
            shed_before = int(stats_op(args.host, args.port)
                              .get("server", {}).get("admission_shed", 0))
        pprof_result: dict = {}
        pprof_thread = None
        if args.pprof:
            if args.metrics_port < 0:
                print("error: --pprof needs --metrics-port", file=sys.stderr)
                return 2
            # Collect while the engine saturates the daemon (per-thread
            # CPU-time timers mean idle time adds ~no samples).
            pprof_thread = threading.Thread(target=pprof_worker,
                                            args=(args, pprof_result))
            pprof_thread.start()
        cells: list[tuple[str, int, Stats, float]] = []
        wall = 0.0
        for codec in codecs:
            args.codec = codec
            for depth in depths:
                depth_stats = Stats()
                depth_wall = run_load(args, depth, depth_stats)
                cells.append((codec, depth, depth_stats, depth_wall))
                stats.merge(depth_stats)
                wall += depth_wall
        # --pprof: repeat the last cell's request set until the profile
        # arrives, so the load overlaps the whole window instead of ending
        # before or just after it opens.
        first_pass = len(stats.latencies_s)
        while pprof_thread is not None and pprof_thread.is_alive():
            codec, depth, depth_stats, depth_wall = cells[-1]
            repeat = Stats()
            repeat_wall = run_load(args, depth, repeat)
            depth_stats.merge(repeat)
            stats.merge(repeat)
            cells[-1] = (codec, depth, depth_stats, depth_wall + repeat_wall)
            wall += repeat_wall
        args.codec = ",".join(codecs)
        if pprof_thread is not None:
            pprof_thread.join()

        if len(cells) == 1:
            print_client_report(stats, wall)
        else:
            print_depth_table(args, cells)
        if args.bench_out:
            write_bench_json(args, cells)
        if args.max_p99 > 0:
            for codec, depth, depth_stats, _ in cells:
                lat = sorted(depth_stats.latencies_s)
                p99 = quantile(lat, 0.99) if lat else math.inf
                if p99 > args.max_p99:
                    print(f"FAIL: {codec} depth {depth} p99 "
                          f"{p99 * 1e3:.1f} ms exceeds --max-p99 "
                          f"{args.max_p99 * 1e3:.1f} ms",
                          file=sys.stderr)
                    ok = False
        server_reply = stats_op(args.host, args.port)
        print_server_report(server_reply)
        if args.allow_shed and not check_shed_contract(
                stats, server_reply, shed_before):
            ok = False
        if args.scrape:
            if args.metrics_port < 0:
                print("error: --scrape needs --metrics-port",
                      file=sys.stderr)
                ok = False
            elif not scrape_and_compare(args, stats):
                ok = False
        if args.pprof and not check_pprof(args, pprof_result):
            ok = False
        if stats.failures:
            ok = False
            for f in stats.failures[:10]:
                print(f"FAIL: {f}", file=sys.stderr)
            if len(stats.failures) > 10:
                print(f"... and {len(stats.failures) - 10} more",
                      file=sys.stderr)
    finally:
        if proc is not None:
            if not drain_cqad(proc, timeout=30.0):
                ok = False
        # The access log is written live but the trace export lands at
        # drain; check both once the daemon is down and the files are
        # final (they only exist when the run got as far as spawning).
        if args.access_log and os.path.exists(args.access_log):
            if not check_access_log(args.access_log, first_pass):
                ok = False
        if args.trace_export and os.path.exists(args.trace_export):
            if not check_trace_export(args.trace_export, args.requests):
                ok = False
        if generated_dir:
            shutil.rmtree(generated_dir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
