#!/usr/bin/env python3
"""End-to-end: the daemon survives kill -9 of itself and of a client.

    server_restart_test.py RUNNER SERVER CLIENT WORK_DIR

RUNNER, SERVER and CLIENT are the built ddl_scenario_runner,
ddl_scenario_server and ddl_scenario_client.  The smoke suite run once by
the runner is the reference stream.

(a) Three clients submit the smoke suite.  Once a journal row exists the
    daemon is killed with SIGKILL and restarted on the same port and state
    dir.  Every client's result and health streams must be byte-identical
    to the runner's, and no job's journal may hold a duplicate line (a
    scenario that ran twice across the kill).
(b) A client is killed with SIGKILL mid-submit.  The orphan job must fill
    its journal, a client with the same identity must replay the result
    and health streams byte for byte, twice, from the closed job's
    directory, and the daemon's shutdown line must show one job accepted,
    one completed and every scenario executed exactly once.

Registered with ctest under the `e2e` label.
"""
import glob
import os
import re
import shutil
import signal
import subprocess
import sys
import time


def wait_for(predicate, seconds):
    """Polls `predicate` every 0.1 s for up to `seconds`; its last value."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.1)
    return predicate()


def read(path):
    with open(path, "rb") as stream:
        return stream.read()


def journal_lines(state):
    lines = []
    for path in glob.glob(os.path.join(state, "jobs", "*", "journal.jsonl")):
        lines += read(path).splitlines()
    return lines


class Server:
    """One ddl_scenario_server process with its output in `log`."""

    def __init__(self, binary, state, log, port=0):
        self.log = log
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                [binary, "--port", str(port), "--workers", "2",
                 "--state-dir", state],
                stdout=out, stderr=subprocess.STDOUT)
        assert wait_for(lambda: b"listening" in read(log), 10), read(log)
        self.port = int(re.search(rb"tcp=(\d+)", read(log)).group(1))

    def kill(self):
        self.proc.kill()
        self.proc.wait()

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        assert self.proc.wait(timeout=60) == 0, read(self.log)


def client(binary, port, name, job, out, log, extra=()):
    with open(log, "wb") as err:
        return subprocess.Popen(
            [binary, "--port", str(port), "--name", name, "--job", job,
             "--suite", "smoke", "--out", out] + list(extra),
            stderr=err)


def kill_restart(server_bin, client_bin, work, golden, golden_health):
    state = os.path.join(work, "state")
    server = Server(server_bin, state, os.path.join(work, "server1.log"))
    clients = {}
    for name in ("c1", "c2", "c3"):
        clients[name] = client(
            client_bin, server.port, name, "smoke",
            os.path.join(work, name + ".jsonl"),
            os.path.join(work, name + ".log"),
            ["--attempts", "600", "--retry-ms", "100",
             "--health-out", os.path.join(work, name + "-health.jsonl")])
    # Pull the plug, with no chance to flush or clean up, once at least
    # one scenario has committed to a journal.
    wait_for(lambda: journal_lines(state) or server.proc.poll() is not None,
             60)
    server.kill()
    print("journaled before kill: %d lines" % len(journal_lines(state)))
    # Restart on the same port and state dir: orphans resume, and the
    # retrying clients reattach and replay what already committed.
    server = Server(server_bin, state, os.path.join(work, "server2.log"),
                    server.port)
    for name, proc in clients.items():
        assert proc.wait(timeout=300) == 0, (
            name, read(os.path.join(work, name + ".log")))
    server.stop()

    for name in clients:
        assert read(os.path.join(work, name + ".jsonl")) == golden, name
        assert read(os.path.join(work, name + "-health.jsonl")) == (
            golden_health), name
    # Across jobs identical lines are fine: three clients running the same
    # suite commit the same rows.
    for path in glob.glob(os.path.join(state, "jobs", "*", "journal.jsonl")):
        lines = read(path).splitlines()
        assert len(lines) == len(set(lines)), "duplicate lines in " + path
    print("3 clients byte-identical to the one-shot runner, no reruns")


def orphan_replay(server_bin, client_bin, work, golden, golden_health):
    state = os.path.join(work, "orphan-state")
    server = Server(server_bin, state, os.path.join(work, "server3.log"))
    ghost = client(client_bin, server.port, "ghost", "doomed", os.devnull,
                   os.path.join(work, "ghost1.log"))
    # SIGKILL the client with frames still streaming back at it, once the
    # submit has landed (the job directory exists).
    wait_for(lambda: glob.glob(os.path.join(state, "jobs", "*")), 30)
    ghost.kill()
    ghost.wait()
    # The orphan keeps executing with nobody attached: its journal fills
    # to one row per scenario of the suite.
    rows = len(golden.splitlines())
    assert wait_for(lambda: len(journal_lines(state)) >= rows, 60)
    # A reconnecting client with the same identity reopens the finished
    # orphan's directory and replays both streams byte-exactly, and so
    # does the next one.
    for attempt in (2, 3):
        replay = os.path.join(work, "ghost%d.jsonl" % attempt)
        health = os.path.join(work, "ghost%d-health.jsonl" % attempt)
        log = os.path.join(work, "ghost%d.log" % attempt)
        again = client(client_bin, server.port, "ghost", "doomed", replay,
                       log, ["--health-out", health])
        assert again.wait(timeout=120) == 0, read(log)
        assert read(replay) == golden, attempt
        assert read(health) == golden_health, attempt
    server.stop()
    # Orphan accounting: one job accepted, one completed, every scenario
    # executed exactly once (the replays reran nothing).
    shutdown = read(server.log).decode()
    for key, want in (("jobs_accepted", 1), ("jobs_completed", 1),
                      ("executed", rows)):
        found = re.search(r"\b%s=(\d+)" % key, shutdown)
        assert found and int(found.group(1)) == want, (key, shutdown)
    print("orphaned job finished and replayed byte-identically")


def main(runner, server_bin, client_bin, work):
    os.makedirs(work, exist_ok=True)
    for stale in ("state", "orphan-state"):
        shutil.rmtree(os.path.join(work, stale), ignore_errors=True)
    os.environ["DDL_BENCH_DIR"] = work
    golden_path = os.path.join(work, "golden.jsonl")
    golden_health_path = os.path.join(work, "golden-health.jsonl")
    subprocess.run([runner, "--suite", "smoke", "--out", golden_path,
                    "--health-out", golden_health_path],
                   check=True, stdout=subprocess.DEVNULL)
    golden = read(golden_path)
    kill_restart(server_bin, client_bin, work, golden,
                 read(golden_health_path))
    orphan_replay(server_bin, client_bin, work, golden,
                  read(golden_health_path))


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    main(*sys.argv[1:])
