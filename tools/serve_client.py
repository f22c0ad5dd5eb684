#!/usr/bin/env python3
"""Drive ``e3_cli serve`` end to end with pipelined requests.

Starts ``e3_cli serve`` with the given serve arguments plus
``--port 0 --port-file``, reads the port file and the champion
fingerprint the server prints, then sends 100 framed infer requests in
one write (pipelined) and reads every answer. It checks that each
answer is ``Ok``, carries its own request id and one action per
network output, that the server exits on its own (``--serve-seconds``
bounds it), and that its summary reads ``served 100 requests (100 ok,
...)``. Exit status 0 on success, 1 on any failed check.

    serve_client.py --cli build/tools/e3_cli -- \\
        --env cartpole --checkpoint-dir ckpt --serve-seconds 3

With ``--sigterm`` it sends no request: it polls for the port file
without sleeping, signals SIGTERM the moment the file appears, and
checks for a clean shutdown instead, that is exit 0, the ``served 0
requests`` summary and a ``--metrics`` file.

Wire format (src/serve/protocol.hh): each frame is a u32 payload length
and the payload, all little-endian. A request payload is four fields,
u32 kind | u64 request id | u64 fingerprint | u32 observation count,
then the observation as IEEE-754 doubles. A response is u32 status |
u64 request id | u32 action count | doubles | u32 message length |
message bytes.
"""

import argparse
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import time

INFER_KIND = 1
STATUS_OK = 0
REQUESTS = 100
TIMEOUT_S = 120.0  # for the server to start, answer and exit


def env_shapes(cli):
    """{env name: (inputs, outputs)} from ``e3_cli list-envs``."""
    out = subprocess.run([cli, "list-envs"], check=True,
                         capture_output=True, text=True).stdout
    shapes = {}
    for line in out.splitlines()[1:]:
        fields = line.split()
        if len(fields) >= 3:
            shapes[fields[0]] = (int(fields[1]), int(fields[2]))
    return shapes


def request_frame(request_id, fingerprint, observation):
    payload = struct.pack("<IQQI", INFER_KIND, request_id, fingerprint,
                          len(observation))
    payload += struct.pack("<%dd" % len(observation), *observation)
    return struct.pack("<I", len(payload)) + payload


def read_exact(sock, size):
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    return data


def read_response(sock):
    """(status, request id, action list) of the next response frame."""
    (length,) = struct.unpack("<I", read_exact(sock, 4))
    payload = read_exact(sock, length)
    status, request_id, count = struct.unpack_from("<IQI", payload)
    action = struct.unpack_from("<%dd" % count, payload, 16)
    return status, request_id, list(action)


def wait_for_file(path, proc, timeout, poll_s=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path) and os.path.getsize(path) > 0:
            return True
        if proc.poll() is not None:
            return False
        time.sleep(poll_s)
    return False


def pipeline(port, banner, shapes):
    """Send the pipelined burst; (bad answers, ids answered) or None."""
    champion = re.search(r"champion ([0-9a-f]{16})\s+(\S+)", banner)
    if champion is None:
        print("serve_client: no champion line in:\n" + banner,
              file=sys.stderr)
        return None
    fingerprint = int(champion.group(1), 16)
    inputs, outputs = shapes[champion.group(2)]

    ids = list(range(1, REQUESTS + 1))
    burst = b"".join(
        request_frame(i, fingerprint,
                      [0.01 * i + 0.1 * k for k in range(inputs)])
        for i in ids)
    answered = set()
    failures = 0
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=TIMEOUT_S) as sock:
        sock.sendall(burst)
        for _ in ids:
            status, request_id, action = read_response(sock)
            if (status != STATUS_OK or request_id not in ids or
                    request_id in answered or len(action) != outputs):
                failures += 1
                print("serve_client: bad answer: status %d id %d "
                      "actions %d" % (status, request_id, len(action)),
                      file=sys.stderr)
            answered.add(request_id)
    return failures, answered


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cli", required=True, help="e3_cli binary")
    parser.add_argument("--sigterm", action="store_true",
                        help="signal SIGTERM as soon as the port file "
                             "appears and expect a clean shutdown")
    parser.add_argument("serve_args", nargs="+",
                        help="e3_cli serve arguments (after --)")
    args = parser.parse_args()
    shapes = env_shapes(args.cli)

    with tempfile.TemporaryDirectory() as scratch:
        port_file = os.path.join(scratch, "serve.port")
        stdout_path = os.path.join(scratch, "serve.out")
        metrics_path = os.path.join(scratch, "serve_metrics.csv")
        command = [args.cli, "serve", *args.serve_args, "--port", "0",
                   "--port-file", port_file]
        if args.sigterm:
            command += ["--metrics", metrics_path]
        with open(stdout_path, "w") as stdout:
            proc = subprocess.Popen(command, stdout=stdout)
        try:
            if not wait_for_file(port_file, proc, TIMEOUT_S,
                                 0 if args.sigterm else 0.05):
                print("serve_client: no port file; server exited %s"
                      % proc.poll(), file=sys.stderr)
                return 1
            if args.sigterm:
                proc.send_signal(signal.SIGTERM)
                result = (0, set())
            else:
                with open(port_file) as f:
                    port = int(f.read().strip())
                with open(stdout_path) as f:
                    result = pipeline(port, f.read(), shapes)
                if result is None:
                    return 1
            proc.wait(timeout=TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        with open(stdout_path) as f:
            transcript = f.read()
        metrics_written = (os.path.exists(metrics_path) and
                           os.path.getsize(metrics_path) > 0)

    sys.stdout.write(transcript)
    expected = 0 if args.sigterm else REQUESTS
    summary = "served %d requests (%d ok," % (expected, expected)
    if proc.returncode != 0 or summary not in transcript:
        print("serve_client: server exit %d, expected '%s'"
              % (proc.returncode, summary), file=sys.stderr)
        return 1
    if args.sigterm:
        if not metrics_written:
            print("serve_client: no --metrics file after SIGTERM",
                  file=sys.stderr)
            return 1
        print("serve_client: SIGTERM at the port file shut down cleanly")
        return 0
    failures, answered = result
    if failures or len(answered) != REQUESTS:
        print("serve_client: %d bad answers, %d of %d ids answered"
              % (failures, len(answered), REQUESTS), file=sys.stderr)
        return 1
    print("serve_client: %d pipelined requests answered Ok"
          % REQUESTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
