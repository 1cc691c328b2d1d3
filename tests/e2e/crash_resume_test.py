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

The kill is then repeated on a resume: a journaled run killed at 5 rows is
resumed at --jobs 2 and that run is SIGKILLed too, once its journal has
grown past the first kill's rows.  The next --resume at --jobs 4 repairs
what the second kill left, appends, and must again reproduce the reference
streams byte for byte, with `resumed + executed == scenarios`, every row
the second kill left restored, at least one scenario executed, and no
result row journaled twice.

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


def fresh_run(suite, journal, out=os.devnull):
    """A journaled --jobs 2 run into an emptied `journal`, writing its result
    stream to `out`."""
    shutil.rmtree(journal, ignore_errors=True)
    return suite + ["--jobs", "2", "--journal", journal, "--out", out]


def interrupt(command, env, journal, sig, at_lines=KILL_AT_LINES):
    """Sends `sig` to `command` once the journal in `journal` holds `at_lines`
    rows; returns the exit status and the rows journaled."""
    victim = subprocess.Popen(command, env=env, stderr=subprocess.DEVNULL)
    journal_file = os.path.join(journal, "journal.jsonl")
    deadline = time.monotonic() + 120
    while (journal_lines(journal_file) < at_lines and
           victim.poll() is None and time.monotonic() < deadline):
        time.sleep(POLL_S)
    victim.send_signal(sig)
    status = victim.wait()
    killed_at = journal_lines(journal_file)
    assert killed_at >= at_lines, killed_at
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

    _, killed_at = interrupt(fresh_run(suite, journal), env, journal,
                             signal.SIGKILL)
    report = resume_matches(suite, env, work, journal, reference,
                            reference_health)
    assert report["resumed"] >= KILL_AT_LINES, report["resumed"]
    assert report["executed"] >= 1, report["executed"]
    assert report["resumed"] + report["executed"] == report["scenarios"], \
        report
    print("killed with %d journaled rows; resumed %d, executed %d: "
          "byte-identical" % (killed_at, report["resumed"],
                              report["executed"]))

    # Kill the resume too: the next resume repairs the journal the second
    # kill left (a torn tail, orphaned health lines), then appends to it.
    _, killed_at = interrupt(fresh_run(suite, journal), env, journal,
                             signal.SIGKILL)
    _, rekilled_at = interrupt(
        suite + ["--jobs", "2", "--resume", journal, "--out", os.devnull],
        env, journal, signal.SIGKILL, killed_at + 1)
    report = resume_matches(suite, env, work, journal, reference,
                            reference_health)
    assert report["resumed"] == rekilled_at, (report["resumed"], rekilled_at)
    assert report["executed"] >= 1, report["executed"]
    assert report["resumed"] + report["executed"] == report["scenarios"], \
        report
    names = [json.loads(line)["name"] for line in
             read(os.path.join(journal, "journal.jsonl")).splitlines()]
    assert len(names) == report["scenarios"], (len(names), report)
    assert len(set(names)) == len(names), "a row was journaled twice"
    print("killed with %d journaled rows, its resume with %d; resumed %d, "
          "executed %d: byte-identical" % (killed_at, rekilled_at,
                                           report["resumed"],
                                           report["executed"]))

    delivered = os.path.join(work, "stopped.jsonl")
    status, stopped_at = interrupt(fresh_run(suite, journal, delivered), env,
                                   journal, signal.SIGTERM)
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
