#!/usr/bin/env python3
"""End-to-end: sandbox crashes and OOMs become rows; the daemon survives.

    crash_containment_test.py RUNNER SERVER CLIENT WORK_DIR

RUNNER, SERVER and CLIENT are the built ddl_scenario_runner,
ddl_scenario_server and ddl_scenario_client.  The smoke suite run once by
the runner is the clean reference stream.

(a) The runner at --jobs 1 with a SIGSEGV injected into the first
    scenario: exactly one `crash` error row naming the signal and the spec
    fingerprint, every other row passes, and the aggregate counts one
    sandbox crash and at least one respawned worker.  One executor pulls
    every unit, so the worker that died with the crashed scenario is
    respawned for the next unit.
(b) The runner at --jobs 2 with an allocation loop under a 512 MiB
    RLIMIT_AS: exactly one `resource_limit` row, the rest pass, one
    resource kill.
(c) One daemon with a 512 MiB cap serves a SIGSEGV job, an OOM job and a
    clean job; each error job returns its error row, the clean job's
    stream equals the runner's, and the shutdown line counts one crash,
    one resource kill and three completed jobs.
(d) A daemon is killed with SIGKILL once the crash row of a job is in its
    journal, then restarted on the same port and state dir: the retrying
    client's stream equals the runner's SIGSEGV stream from (a), and the
    journal holds no duplicate line.

Registered with ctest under the `e2e` label when no sanitizer is on: an
RLIMIT_AS cap does not fit ASan's shadow memory.
"""
import glob
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

SEGV_DETAIL = r"sandbox worker killed by SIGSEGV \(spec [0-9a-f]{16}\)"
OOM_DETAIL = ("sandbox worker exceeded RLIMIT_AS (512 MiB): allocation "
              "failed")


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


def rows(path):
    with open(path) as stream:
        return [json.loads(line) for line in stream]


def journal_lines(state):
    lines = []
    for path in glob.glob(os.path.join(state, "jobs", "*", "journal.jsonl")):
        lines += read(path).splitlines()
    return lines


class Server:
    """One ddl_scenario_server process with its output in `log`."""

    def __init__(self, binary, state, log, port=0, extra=()):
        self.log = log
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                [binary, "--port", str(port), "--workers", "2",
                 "--state-dir", state] + list(extra),
                stdout=out, stderr=subprocess.STDOUT)
        assert wait_for(lambda: b"listening" in read(log), 10), read(log)
        self.port = int(re.search(rb"tcp=(\d+)", read(log)).group(1))

    def kill(self):
        self.proc.kill()
        self.proc.wait()

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        assert self.proc.wait(timeout=60) == 0, read(self.log)


def client(binary, port, job, out, log, extra=()):
    with open(log, "wb") as err:
        return subprocess.Popen(
            [binary, "--port", str(port), "--name", "chaos", "--job", job,
             "--suite", "smoke", "--out", out] + list(extra),
            stderr=err)


def aggregate(work):
    with open(os.path.join(work, "BENCH_scenario_suite_smoke.json")) as f:
        return json.load(f)


def runner_segv(runner, work):
    out = os.path.join(work, "segv.jsonl")
    # The exit status counts the one failed scenario; the campaign itself
    # must not die with the worker.
    subprocess.run([runner, "--suite", "smoke", "--jobs", "1",
                    "--inject-crash", "segv", "--out", out],
                   stderr=subprocess.DEVNULL)
    stream = rows(out)
    crashed = [r for r in stream if r["error_kind"] == "crash"]
    assert len(crashed) == 1, [r["error_kind"] for r in stream]
    assert re.fullmatch(SEGV_DETAIL, crashed[0]["error_detail"]), crashed[0]
    assert crashed[0]["verdict"] == "error", crashed[0]
    assert all(r["pass"] for r in stream if r["error_kind"] == "none"), stream
    report = aggregate(work)
    assert report["isolation"] == "process", report
    assert report["sandbox_crashes"] == 1, report
    assert report["workers_respawned"] >= 1, report
    print("runner: crash row OK; %d other scenarios unharmed, %d respawn(s)"
          % (len(stream) - 1, report["workers_respawned"]))
    return read(out)


def runner_oom(runner, work):
    out = os.path.join(work, "oom.jsonl")
    subprocess.run([runner, "--suite", "smoke", "--jobs", "2",
                    "--inject-crash", "oom", "--mem-limit-mb", "512",
                    "--out", out], stderr=subprocess.DEVNULL)
    stream = rows(out)
    limited = [r for r in stream if r["error_kind"] == "resource_limit"]
    assert len(limited) == 1, [r["error_kind"] for r in stream]
    assert limited[0]["error_detail"] == OOM_DETAIL, limited[0]
    assert all(r["pass"] for r in stream if r["error_kind"] == "none"), stream
    assert aggregate(work)["resource_kills"] == 1, aggregate(work)
    print("runner: RLIMIT_AS kill classified; the rest of the suite passed")


def daemon_survives(server_bin, client_bin, work, golden):
    server = Server(server_bin, os.path.join(work, "state"),
                    os.path.join(work, "server1.log"),
                    extra=["--mem-limit-mb", "512"])
    try:
        for job, crash, kind, detail in (
                ("crashy", "segv", "crash", SEGV_DETAIL),
                ("oomy", "oom", "resource_limit", re.escape(OOM_DETAIL))):
            out = os.path.join(work, "daemon-%s.jsonl" % crash)
            client(client_bin, server.port, job, out,
                   os.path.join(work, job + "-client.log"),
                   ["--inject-crash", crash]).wait(timeout=300)
            errors = [r for r in rows(out) if r["error_kind"] == kind]
            assert len(errors) == 1, (job, [r["error_kind"]
                                            for r in rows(out)])
            assert re.fullmatch(detail, errors[0]["error_detail"]), errors
        # The same daemon, after both worker deaths, still turns a clean
        # job around byte-identically to the one-shot runner.
        clean = os.path.join(work, "daemon-clean.jsonl")
        job = client(client_bin, server.port, "clean", clean,
                     os.path.join(work, "clean-client.log"))
        assert job.wait(timeout=300) == 0, read(
            os.path.join(work, "clean-client.log"))
        assert read(clean) == golden, "clean daemon job differs"
    except BaseException:
        server.kill()
        raise
    server.stop()
    # The shutdown accounting owns up to both contained deaths.
    shutdown = read(server.log).decode()
    for key, want in (("sandbox_crashes", 1), ("resource_kills", 1),
                      ("jobs_completed", 3)):
        found = re.search(r"\b%s=(\d+)" % key, shutdown)
        assert found and int(found.group(1)) == want, (key, shutdown)
    print("daemon survived a SIGSEGV and an OOM, then served a clean job")


def kill_restart(server_bin, client_bin, work, segv_stream):
    state = os.path.join(work, "state2")
    server = Server(server_bin, state, os.path.join(work, "server2.log"))
    resumed = os.path.join(work, "resumed.jsonl")
    doomed = client(client_bin, server.port, "doomed", resumed,
                    os.path.join(work, "doomed-client.log"),
                    ["--inject-crash", "segv", "--attempts", "600",
                     "--retry-ms", "100"])
    try:
        # Wait until the crash row itself has committed to the journal,
        # then SIGKILL the daemon with no chance to flush or clean up.
        wait_for(lambda: any(b'"error_kind": "crash"' in line
                             for line in journal_lines(state)) or
                 server.proc.poll() is not None, 60)
        server.kill()
        # Restart on the same port and state dir: the orphan resumes, the
        # retrying client reattaches, and the journaled crash row replays
        # instead of re-executing.
        server = Server(server_bin, state, os.path.join(work, "server3.log"),
                        server.port)
        doomed.wait(timeout=300)
    except BaseException:
        doomed.kill()
        server.kill()
        raise
    server.stop()
    assert read(resumed) == segv_stream, "restarted stream differs"
    lines = journal_lines(state)
    assert len(lines) == len(set(lines)), "duplicate journal rows"
    print("restart replayed the crash row byte-identically, no reruns")


def main(runner, server_bin, client_bin, work):
    os.makedirs(work, exist_ok=True)
    for stale in ("state", "state2"):
        shutil.rmtree(os.path.join(work, stale), ignore_errors=True)
    os.environ["DDL_BENCH_DIR"] = work
    golden = os.path.join(work, "golden.jsonl")
    subprocess.run([runner, "--suite", "smoke", "--out", golden],
                   check=True, stderr=subprocess.DEVNULL)
    segv_stream = runner_segv(runner, work)
    runner_oom(runner, work)
    daemon_survives(server_bin, client_bin, work, read(golden))
    kill_restart(server_bin, client_bin, work, segv_stream)


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    main(*sys.argv[1:])
