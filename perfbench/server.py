"""Model server for the benchmark's remote workloads.

Answers ``POST /v1/mask-probs`` and ``POST /v1/generate`` from a scripted
backend script (first rule whose ``contains`` needles all occur, else the
section default), after a fixed per-call delay.  It speaks HTTP/1.1 with
keep-alive, sets ``TCP_NODELAY`` and writes each reply in one send: the stock
``http.server`` writes headers and body separately, and on a keep-alive
connection the second write waits for the client's delayed ACK (about 20 ms
a call), which would distort the delay being modelled.

``GET /stats`` returns the model request and connection counters; it is not
counted itself.  The listening port is printed on the first line of stdout.

    python3 perfbench/server.py --script script.json
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time

# Fixed delay per model call: the round trip the remote workloads model,
# of the order of a small hosted model's.  Each call also costs the client
# and this server about 3.5 ms of CPU; with the delay several times that,
# the wall-time figures follow the program's calls and barriers rather than
# the speed of a shared host (at 5 ms, half of an issue's time was CPU and
# the figures drifted with it by a third between runs).
DELAY_S = 0.025


def _lookup(section: dict, prompt: str, key: str):
    for rule in section["rules"]:
        needles = rule["contains"]
        if isinstance(needles, str):
            needles = [needles]
        if all(needle in prompt for needle in needles):
            return rule[key]
    return section["default"][key]


class ModelServer:
    def __init__(self, script: dict):
        self.script = script
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0

    def answer(self, path: str, payload: dict) -> tuple[int, dict]:
        if path == "/v1/mask-probs":
            probs = _lookup(self.script["mask_probs"], payload["prompt"], "probs")
            if len(probs) != len(payload["candidates"]):
                return 400, {"error": "candidate count does not match the script"}
            return 200, {"probs": probs}
        if path == "/v1/generate":
            return 200, {"text": _lookup(self.script["generate"], payload["prompt"], "text")}
        return 404, {"error": "no such endpoint"}

    def serve_connection(self, conn: socket.socket) -> None:
        try:
            self._serve(conn)
        except OSError:
            pass  # the client went away mid-request

    def _serve(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buffer = b""
        counted = False
        with conn:
            while True:
                while b"\r\n\r\n" not in buffer:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
                head, buffer = buffer.split(b"\r\n\r\n", 1)
                lines = head.decode("latin-1").split("\r\n")
                method, path, _ = lines[0].split(" ", 2)
                headers = {}
                for line in lines[1:]:
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0"))
                while len(buffer) < length:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
                body, buffer = buffer[:length], buffer[length:]
                if method == "GET" and path == "/stats":
                    with self.lock:
                        status, reply = 200, {"requests": self.requests,
                                              "connections": self.connections}
                else:
                    with self.lock:
                        self.requests += 1
                        if not counted:
                            self.connections += 1
                            counted = True
                    try:
                        status, reply = self.answer(path, json.loads(body))
                    except (ValueError, KeyError, TypeError):
                        status, reply = 400, {"error": "bad request"}
                    time.sleep(DELAY_S)
                data = json.dumps(reply).encode()
                close = headers.get("connection", "").lower() == "close"
                conn.sendall(
                    f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                    f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
                    f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n".encode()
                    + data)
                if close:
                    return


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", required=True, help="scripted backend JSON file")
    args = parser.parse_args()
    with open(args.script, encoding="utf-8") as handle:
        server = ModelServer(json.load(handle))
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(64)
    print(listener.getsockname()[1], flush=True)
    while True:
        conn, _ = listener.accept()
        threading.Thread(target=server.serve_connection, args=(conn,), daemon=True).start()


if __name__ == "__main__":
    try:
        main()
    except KeyboardInterrupt:
        sys.exit(0)
