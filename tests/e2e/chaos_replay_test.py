#!/usr/bin/env python3
"""End-to-end: failing chaos storms shrink to bundles that replay.

    chaos_replay_test.py RUNNER SERVER CLIENT WORK_DIR

RUNNER, SERVER and CLIENT are the built ddl_scenario_runner,
ddl_scenario_server and ddl_scenario_client.  The runner runs the chaos
suite with shrinking on: the exit status must count the failing rows, and
every failing row must leave one replay bundle (at least one in all) that
replays its failure with exit 0, through the runner and through the client
against one daemon; the runner must print the same row under process and
thread isolation.  A copy of a bundle whose spec hangs in its sandbox
worker and that expects `error:timeout` must reproduce through the runner
under `--timeout-ms 300 --retries 0`, since the runner replays under its
sandbox.  A copy of a bundle with one extra `spec.` key must be
refused with the usage exit code and an error naming that key, since
bundles are read strictly.  A copy of a bundle that expects a failure
reason its spec does not produce must exit 1 through both tools, though
the client, under its default name and tag, resubmits the job the
original bundle ran: the verdict follows the bundle, not the job.
Registered with ctest under the `e2e` label.
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

USAGE_EXIT = 64
NOT_REPRODUCED_EXIT = 1


def bundle_name(scenario):
    return "replay_" + scenario.replace("/", "_") + ".json"


class Server:
    """One ddl_scenario_server process with its output in `log`."""

    def __init__(self, binary, state, log):
        self.log = log
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                [binary, "--port", "0", "--workers", "2", "--state-dir",
                 state], stdout=out, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 10
        while b"listening" not in self.output():
            assert time.monotonic() < deadline, self.output()
            time.sleep(0.1)
        self.port = int(re.search(rb"tcp=(\d+)", self.output()).group(1))

    def output(self):
        with open(self.log, "rb") as stream:
            return stream.read()

    def replay(self, client, bundle):
        """The client's --replay of `bundle` under its default name and job
        tag, with its stderr."""
        return subprocess.run(
            [client, "--port", str(self.port), "--replay", bundle],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        assert self.proc.wait(timeout=60) == 0, self.output()


def main(runner, server_bin, client, work):
    os.makedirs(work, exist_ok=True)
    journal = os.path.join(work, "campaign")
    shutil.rmtree(journal, ignore_errors=True)
    out = os.path.join(work, "chaos.jsonl")
    env = dict(os.environ, DDL_BENCH_DIR=work)
    run = subprocess.run(
        [runner, "--suite", "chaos", "--jobs", "2", "--journal", journal,
         "--shrink", "--out", out],
        env=env, stderr=subprocess.DEVNULL)
    with open(out) as stream:
        rows = [json.loads(line) for line in stream]
    failing = [row["name"] for row in rows if not row["pass"]]
    # The exit status counts failed scenarios.
    assert run.returncode == len(failing), (run.returncode, failing)

    bundles = sorted(glob.glob(os.path.join(journal, "replay_*.json")))
    assert bundles, "no failing storm shrank to a bundle"
    assert [os.path.basename(path) for path in bundles] == sorted(
        bundle_name(name) for name in failing), (bundles, failing)
    for bundle in bundles:
        replay = subprocess.run([runner, "--replay", bundle], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        assert replay.returncode == 0, (bundle, replay.stderr)
        # The bundle's row is the campaign's row: a sandbox worker and the
        # in-process executor print the same bytes.
        in_process = subprocess.run(
            [runner, "--replay", bundle, "--isolation", "thread"], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert in_process.returncode == 0, (bundle, in_process.stderr)
        assert replay.stdout and replay.stdout == in_process.stdout, (
            bundle, replay.stdout, in_process.stdout)

    state = os.path.join(work, "state")
    shutil.rmtree(state, ignore_errors=True)
    server = Server(server_bin, state, os.path.join(work, "server.log"))
    try:
        for bundle in bundles:
            replay = server.replay(client, bundle)
            assert replay.returncode == 0, (bundle, replay.stderr)
            assert "reproduced: the expected verdict" in replay.stderr, (
                bundle, replay.stderr)

        # The same spec expecting another failure reason: the runner and the
        # client both say it did not reproduce, although the client's
        # submission is the job the original bundle ran.
        with open(bundles[0]) as stream:
            bundle = json.load(stream)
        reason = bundle["expected_failure_reason"]
        bundle["expected_failure_reason"] = (
            "no_lock" if reason != "no_lock" else "regulation_error")
        wrong_reason = os.path.join(work, "wrong_reason.json")
        with open(wrong_reason, "w") as stream:
            json.dump(bundle, stream)
        replay = subprocess.run([runner, "--replay", wrong_reason], env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        assert replay.returncode == NOT_REPRODUCED_EXIT, (replay.returncode,
                                                          replay.stderr)
        replay = server.replay(client, wrong_reason)
        assert replay.returncode == NOT_REPRODUCED_EXIT, (replay.returncode,
                                                          replay.stderr)
    finally:
        server.stop()
    # One job directory per bundle: the last replay made no new job.
    jobs = os.listdir(os.path.join(state, "jobs"))
    assert len(jobs) == len(bundles), (jobs, bundles)

    # A bundle whose spec hangs in its sandbox worker and which expects the
    # deadline's verdict: the runner's replay runs under the sandbox, so
    # --timeout-ms and --retries apply and the timeout row reproduces.
    with open(bundles[0]) as stream:
        bundle = json.load(stream)
    bundle["spec.debug_hang_ms"] = 60000
    bundle["spec.debug_hang_attempts"] = 1000
    bundle["expected_failure_reason"] = "error:timeout"
    bundle["expected_error"] = "timeout"
    hang = os.path.join(work, "hang.json")
    with open(hang, "w") as stream:
        json.dump(bundle, stream)
    replay = subprocess.run(
        [runner, "--replay", hang, "--timeout-ms", "300", "--retries", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert replay.returncode == 0, (replay.returncode, replay.stderr)
    assert json.loads(replay.stdout)["failure_reason"] == "error:timeout", (
        replay.stdout)

    with open(bundles[0]) as stream:
        document = stream.read()
    tampered = os.path.join(work, "tampered.json")
    with open(tampered, "w") as stream:
        stream.write(document[:document.rindex("}")] +
                     ', "spec.periosd": 2500}\n')
    refused = subprocess.run([runner, "--replay", tampered], env=env,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
    assert refused.returncode == USAGE_EXIT, (refused.returncode,
                                              refused.stderr)
    assert "spec.periosd: unknown key" in refused.stderr, refused.stderr
    print("%d failing storms, %d bundles replayed through the runner (the "
          "same row in process and thread isolation) and the daemon; a "
          "bundle expecting another reason did not reproduce; a hanging "
          "bundle reproduced its timeout under the sandbox's deadline; a "
          "bundle with an unknown spec key was refused"
          % (len(failing), len(bundles)))


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    main(*sys.argv[1:])
