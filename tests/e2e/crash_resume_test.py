#!/usr/bin/env python3
"""End-to-end: a campaign killed by SIGKILL, or stopped by SIGTERM,
resumes byte-identically.

    crash_resume_test.py RUNNER WORK_DIR

RUNNER is the built ddl_scenario_runner.  An uninterrupted regression run
at --jobs 2 is the reference.  A journaled run at --jobs 2 is killed with
SIGKILL as soon as its journal holds 5 result lines (polled every 10 ms),
with no chance to flush or clean up; a --resume at --jobs 4 re-cuts the
remaining work into its own dispatch units and must reproduce the
reference result and health streams byte for byte, restoring at least 5
scenarios and executing at least one, and its aggregate must count every
line of the resumed health stream.  A closed-loop lane unit commits
many rows at once, so the executed floor is what proves the kill landed
mid-suite.

A second journaled run at --jobs 2 gets SIGTERM at the same point: it
finishes its in-flight units, starts no other, and exits 130 with
`interrupted: true` and a non-zero `skipped` count in its aggregate.  That
aggregate counts only the rows the run delivered: `scenarios` is
`resumed + executed`, `scenarios + skipped` is the suite size, `failed` is
the failing rows of its result stream, and no never-started scenario shows
up as an empty failure reason or family.  A --resume at --jobs 4 must again
reproduce the reference streams byte for byte.  Registered with ctest under
the `e2e` label.
"""
import json
import os
import shutil
import signal
import subprocess
import sys
import time

KILL_AT_LINES = 5
POLL_S = 0.01


def journal_lines(path):
    try:
        with open(path, "rb") as stream:
            return stream.read().count(b"\n")
    except FileNotFoundError:
        return 0


def read(path):
    with open(path, "rb") as stream:
        return stream.read()


def aggregate(work):
    with open(os.path.join(work, "BENCH_scenario_suite_regression.json")) as f:
        return json.load(f)


def interrupt(suite, env, journal, sig, out=os.devnull):
    """Sends `sig` to a journaled --jobs 2 run, writing its result stream to
    `out`, once its journal holds KILL_AT_LINES rows; returns the exit status
    and the rows journaled."""
    shutil.rmtree(journal, ignore_errors=True)
    victim = subprocess.Popen(
        suite + ["--jobs", "2", "--journal", journal, "--out", out],
        env=env, stderr=subprocess.DEVNULL)
    journal_file = os.path.join(journal, "journal.jsonl")
    deadline = time.monotonic() + 120
    while (journal_lines(journal_file) < KILL_AT_LINES and
           victim.poll() is None and time.monotonic() < deadline):
        time.sleep(POLL_S)
    victim.send_signal(sig)
    status = victim.wait()
    killed_at = journal_lines(journal_file)
    assert killed_at >= KILL_AT_LINES, killed_at
    return status, killed_at


def resume_matches(suite, env, work, journal, reference, reference_health):
    """Resumes `journal` at --jobs 4 and checks both streams against the
    reference; returns the resumed run's aggregate report."""
    resumed = os.path.join(work, "resumed.jsonl")
    resumed_health = os.path.join(work, "resumed-health.jsonl")
    subprocess.run(suite + ["--jobs", "4", "--resume", journal,
                            "--out", resumed, "--health-out", resumed_health],
                   env=env, stderr=subprocess.DEVNULL)
    assert read(resumed) == read(reference), "result streams differ"
    assert read(resumed_health) == read(reference_health), \
        "health streams differ"
    report = aggregate(work)
    # Resumed rows are rebuilt from their journal lines, so the aggregate
    # must count the health stream itself.
    health_lines = read(resumed_health).count(b"\n")
    assert health_lines > 0, "the regression suite emits health events"
    assert report["health_events"] == health_lines, \
        (report["health_events"], health_lines)
    return report


def main(runner, work):
    os.makedirs(work, exist_ok=True)
    journal = os.path.join(work, "journal")
    env = dict(os.environ, DDL_BENCH_DIR=work)
    suite = [runner, "--suite", "regression"]

    reference = os.path.join(work, "reference.jsonl")
    reference_health = os.path.join(work, "reference-health.jsonl")
    subprocess.run(suite + ["--jobs", "2", "--out", reference,
                            "--health-out", reference_health],
                   env=env, stderr=subprocess.DEVNULL)

    _, killed_at = interrupt(suite, env, journal, signal.SIGKILL)
    report = resume_matches(suite, env, work, journal, reference,
                            reference_health)
    assert report["resumed"] >= KILL_AT_LINES, report["resumed"]
    assert report["executed"] >= 1, report["executed"]
    assert report["resumed"] + report["executed"] == report["scenarios"], \
        report
    print("killed with %d journaled rows; resumed %d, executed %d: "
          "byte-identical" % (killed_at, report["resumed"],
                              report["executed"]))

    delivered = os.path.join(work, "stopped.jsonl")
    status, stopped_at = interrupt(suite, env, journal, signal.SIGTERM,
                                   delivered)
    assert status == 130, status
    stopped = aggregate(work)
    assert stopped["interrupted"] is True, stopped
    assert stopped["skipped"] > 0, stopped
    # The aggregate counts the delivered rows, never the unstarted ones.
    rows = [json.loads(line) for line in read(delivered).splitlines()]
    suite_size = read(reference).count(b"\n")
    assert stopped["scenarios"] == len(rows), (stopped, len(rows))
    assert stopped["scenarios"] == stopped["resumed"] + stopped["executed"], \
        stopped
    assert stopped["scenarios"] + stopped["skipped"] == suite_size, \
        (stopped, suite_size)
    assert stopped["failed"] == sum(not row["pass"] for row in rows), stopped
    assert "failures." not in stopped, stopped
    assert not any(key.startswith("family..") for key in stopped), stopped
    report = resume_matches(suite, env, work, journal, reference,
                            reference_health)
    assert report["resumed"] == stopped_at, (report["resumed"], stopped_at)
    print("stopped with %d journaled rows and %d never started; resumed "
          "%d, executed %d: byte-identical"
          % (stopped_at, stopped["skipped"], report["resumed"],
             report["executed"]))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
