"""Loopback model service for the benchmark: ``POST /embed`` and ``POST /generate``.

Serves the two-route contract documented in ``raghpo.pipeline`` on
127.0.0.1. Replies are pure functions of every field a real reply depends
on, so a cache keyed on too few fields changes the results:

* ``/embed``: one vector per (model, text), a hashed bag of whitespace
  tokens salted by the model name (see :class:`Vectorizer`), so retrieval
  ranks chunks by shared vocabulary.
* ``/generate``: an answer drawn from the prompt's own tokens at a window
  chosen by a hash of (model, prompt), so scores vary with the retrieved
  text, the template and the model.

``GET /stats`` returns the counters so far. The service runs until its
standard input closes, then prints the final counters as one JSON line on
standard output and exits. Run it as ``python3 stub.py``; its first output
line is ``PORT <n>``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

DIM = 128
ROUTES = ("/embed", "/generate")


def _hash64(*parts: str) -> int:
    digest = hashlib.blake2b("\0".join(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class Vectorizer:
    """Hashed bag-of-words embeddings, salted per model.

    Each (model, token) pair maps to one of ``DIM`` columns with a signed
    weight in [0.5, 1.5); a text's vector is the sum over its whitespace
    tokens. The per-token memo only saves hashing, it never changes a value.
    """

    def __init__(self) -> None:
        self._slots: dict[tuple[str, str], tuple[int, float]] = {}

    def _slot(self, model: str, token: str) -> tuple[int, float]:
        key = (model, token)
        slot = self._slots.get(key)
        if slot is None:
            h = _hash64(model, token)
            weight = 0.5 + ((h >> 8) % 1000) / 1000.0
            slot = (h % DIM, weight if (h >> 40) & 1 else -weight)
            self._slots[key] = slot
        return slot

    def vector(self, model: str, text: str) -> np.ndarray:
        slots = [self._slot(model, t) for t in text.split()]
        if not slots:
            return np.zeros(DIM)
        cols, weights = zip(*slots)
        return np.bincount(cols, weights=weights, minlength=DIM)


def answer_for(model: str, prompt: str) -> str:
    """A contiguous window of the prompt's tokens, placed by hash(model, prompt)."""
    tokens = prompt.split()
    h = _hash64(model, prompt)
    length = 12 + h % 24
    start = (h >> 16) % max(1, len(tokens) - length)
    return " ".join(tokens[start : start + length])


class _Counters:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = {r: 0 for r in ROUTES}
        self.tokens = {r: 0 for r in ROUTES}
        self.busy_s = {r: 0.0 for r in ROUTES}

    def add(self, route: str, tokens: int, busy: float) -> None:
        with self._lock:
            self.requests[route] += 1
            self.tokens[route] += tokens
            self.busy_s[route] += busy

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": dict(self.requests),
                "tokens": dict(self.tokens),
                "busy_s": dict(self.busy_s),
            }


class _Handler(BaseHTTPRequestHandler):
    server: "StubServer"

    def _reply(self, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 (http.server API)
        if self.path != "/stats":
            self.send_error(404)
            return
        self._reply(self.server.counters.snapshot())

    def do_POST(self):  # noqa: N802 (http.server API)
        start = time.perf_counter()
        if self.path not in ROUTES:
            self.send_error(404)
            return
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        model = payload["model"]
        if self.path == "/embed":
            texts = payload["texts"]
            vectorizer = self.server.vectorizer
            counts = [len(t.split()) for t in texts]
            reply = {
                "vectors": [vectorizer.vector(model, t).tolist() for t in texts],
                "token_counts": counts,
            }
            tokens = sum(counts)
        else:
            prompt = payload["prompt"]
            text = answer_for(model, prompt)
            reply = {
                "text": text,
                "input_tokens": len(prompt.split()),
                "output_tokens": len(text.split()),
            }
            tokens = reply["input_tokens"] + reply["output_tokens"]
        # Count before replying, so a /stats call made after the reply has
        # arrived always includes this request.
        self.server.counters.add(self.path, tokens, time.perf_counter() - start)
        self._reply(reply)

    def log_message(self, *args):  # silence per-request noise
        pass


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        # The vectorizer memo is shared by handler threads; dict get/set of
        # immutable values is safe under the interpreter lock.
        self.vectorizer = Vectorizer()
        self.counters = _Counters()


def main() -> int:
    server = StubServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        print(json.dumps(server.counters.snapshot()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
