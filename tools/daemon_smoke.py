#!/usr/bin/env python3
"""Smoke test for viewcapd: drive a scripted session and check shutdown.

Runs the daemon twice:

  1. stdio mode: load a program, ask a membership question, read the live
     stats, load more programs (a view of the first program's views and
     its flattened export, a load that fails on a taken view name and
     its corrected retry, a load that reads a view relation two views
     define differently), then request shutdown — and assert the process
     exits cleanly.
  2. TCP mode (--listen=0): connect to the announced port, drive the same
     requests over the socket, request shutdown, and assert the server
     process exits cleanly. Skipped (without failing) if the loopback
     bind is unavailable in the sandbox.

Usage: daemon_smoke.py <path-to-viewcapd> <program.vcp>
"""

import json
import socket
import subprocess
import sys

PROGRAM_QUERIES = [
    {"id": 2, "method": "answerable",
     "params": {"view": "W", "query": "pi{A,B}(r)"}},
    {"id": 3, "method": "answerable",
     "params": {"view": "W", "query": "pi{A,B}(r)", "threads": 2}},
    {"id": 4, "method": "stats"},
]


# Loads into the workspace that example315.vcp (views V and W over
# r(A, B, C)) started. A failed load registers nothing, so its retry
# loads, and the session goes on after every error.
LOAD_SESSION = [
    {"id": 6, "method": "load",
     "params": {"program": "view O { o := w1 * w2; }"}},
    {"id": 7, "method": "export", "params": {"view": "O"}},
    {"id": 8, "method": "load",
     "params": {"program": "schema { t(A, B); } view X { x := t; } "
                           "view V { vv := t; }"}},
    {"id": 9, "method": "load",
     "params": {"program": "schema { t(A, B); } view X { x := t; } "
                           "view V2 { vv := t; }"}},
    {"id": 10, "method": "load",
     "params": {"program": "schema { p(A, B); q(A, B); } "
                           "view B1 { u := p; } view A1 { u := q; } "
                           "view C { c := u; }"}},
    {"id": 11, "method": "list"},
]


def check_loads(by_id):
    """Asserts LOAD_SESSION's replies."""
    assert by_id[6]["result"]["ok"], by_id[6]
    # O reads W's relations; the load flattens it to a base-level query.
    exported = by_id[7]["result"]["output"]
    assert "o := pi{A, B}(r) * pi{B, C}(r);" in exported, exported
    error = by_id[8].get("error")
    assert error and error["code"] == "IllFormed", by_id[8]
    assert "view 'V' already defined" in error["message"], error
    assert by_id[9]["result"]["ok"], by_id[9]
    error = by_id[10].get("error")
    assert error and error["code"] == "IllFormed", by_id[10]
    assert "'u' is defined differently by views 'B1' and 'A1'" in (
        error["message"]), error
    listed = by_id[11]["result"]["output"]
    for name in ("O", "X", "V2"):
        assert f"view {name} {{" in listed, listed
    for name in ("B1", "A1", "C"):
        assert f"view {name} {{" not in listed, listed


def check_replies(replies):
    """Asserts the scripted session's replies; returns None on success."""
    by_id = {r.get("id"): r for r in replies}
    for rid in (2, 3):
        result = by_id[rid].get("result")
        assert result, f"request {rid} failed: {by_id[rid]}"
        assert result["verdict"] is True, f"request {rid}: {result}"
        assert result["exit_code"] == 0
    # Identical question at different thread counts: identical answers.
    assert by_id[2]["result"]["output"] == by_id[3]["result"]["output"]
    stats = by_id[4]["result"]
    assert stats["ok"] and "engine_stats" in stats, stats
    assert stats["engine_stats"]["verdict"]["requests"] > 0, (
        "stats should show warm verdict-cache traffic")


def run_stdio(daemon, program_path):
    with open(program_path) as f:
        program = f.read()
    requests = [{"id": 1, "method": "load", "params": {"program": program}}]
    requests += PROGRAM_QUERIES + LOAD_SESSION
    requests.append({"id": 5, "method": "shutdown"})
    payload = "".join(json.dumps(r) + "\n" for r in requests)
    proc = subprocess.run([daemon], input=payload, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    replies = [json.loads(line) for line in proc.stdout.splitlines() if line]
    assert len(replies) == len(requests), proc.stdout
    assert replies[0]["result"]["ok"], replies[0]
    check_replies(replies)
    check_loads({r.get("id"): r for r in replies})
    assert replies[-1]["result"]["shutting_down"] is True
    print("daemon_smoke: stdio session ok")


def run_tcp(daemon, program_path):
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.bind(("127.0.0.1", 0))
    except OSError as err:
        print(f"daemon_smoke: TCP skipped (loopback bind failed: {err})")
        return
    finally:
        probe.close()

    proc = subprocess.Popen(
        [daemon, f"--program={program_path}", "--listen=0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        announce = proc.stderr.readline()
        assert "listening on port" in announce, announce
        port = int(announce.strip().rsplit(" ", 1)[-1])

        with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
            stream = conn.makefile("rw")
            requests = PROGRAM_QUERIES + [{"id": 5, "method": "shutdown"}]
            replies = []
            for request in requests:
                stream.write(json.dumps(request) + "\n")
                stream.flush()
                replies.append(json.loads(stream.readline()))
        check_replies(replies)
        assert replies[-1]["result"]["shutting_down"] is True
        proc.wait(timeout=60)
        assert proc.returncode == 0, proc.stderr.read()
        print("daemon_smoke: TCP session ok")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    daemon, program_path = sys.argv[1], sys.argv[2]
    run_stdio(daemon, program_path)
    run_tcp(daemon, program_path)
    print("daemon_smoke: all sessions ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
