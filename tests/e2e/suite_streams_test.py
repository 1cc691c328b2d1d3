#!/usr/bin/env python3
"""End-to-end: the smoke and recovery suites' result, health and aggregate
streams keep their schema and are byte-identical across --jobs.

    suite_streams_test.py RUNNER WORK_DIR

RUNNER is the built ddl_scenario_runner.

Smoke: every row of `--suite smoke` carries schema_version 2, `name`,
`pass` and `failure_reason`, and no `threads` or `wall_ms` key (rows stay
independent of the thread count).  The aggregate report counts every row
as a scenario and every failing row as failed.

Recovery: `--suite recovery` at --jobs 1 and at --jobs 4, in process and
in thread isolation, writes byte-identical result and health streams, and
aggregates that agree on every verdict key (scenarios, passed, failed,
locked, health_events, failures.* and family.*).  Every health line has
schema_version 2, a known event kind, an integer period and degradation,
a scenario and a tap position, and each `relocked` event a latency of at
least one period.  The stream shows a lock loss, a successful re-lock and
a graceful degradation.  Registered with ctest under the `e2e` label.
"""
import json
import os
import subprocess
import sys

HEALTH_KINDS = {"lock_lost", "relock_attempt", "relocked", "relock_failed",
                "degraded"}


def read(path):
    with open(path, "rb") as stream:
        return stream.read()


def json_lines(path):
    with open(path) as stream:
        return [json.loads(line) for line in stream]


def run(runner, work, args):
    env = dict(os.environ, DDL_BENCH_DIR=work)
    result = subprocess.run([runner] + args, env=env,
                            stderr=subprocess.DEVNULL)
    assert result.returncode == 0, (args, result.returncode)


def check_smoke(runner, work):
    out = os.path.join(work, "smoke.jsonl")
    run(runner, work, ["--suite", "smoke", "--out", out])
    records = json_lines(out)
    assert records, "empty smoke stream"
    for record in records:
        assert record["schema_version"] == 2, record
        for key in ("name", "pass", "failure_reason"):
            assert key in record, (key, record)
        assert "threads" not in record and "wall_ms" not in record, record
    with open(os.path.join(work, "BENCH_scenario_suite_smoke.json")) as f:
        report = json.load(f)
    assert report["scenarios"] == len(records), report
    assert report["failed"] == sum(not r["pass"] for r in records), report
    print("smoke: %d rows, %d/%d passed" % (len(records), report["passed"],
                                            report["scenarios"]))


VERDICT_KEYS = ("scenarios", "passed", "failed", "locked", "health_events")


def verdicts(report):
    """The aggregate's verdict keys: what the rows say, not how they ran."""
    return {key: value for key, value in report.items()
            if key in VERDICT_KEYS or key.startswith(("failures.", "family."))}


def check_recovery(runner, work):
    runs = {}
    for isolation in ("process", "thread"):
        for jobs in (1, 4):
            tag = "%s-j%d" % (isolation, jobs)
            out = os.path.join(work, "recovery-%s.jsonl" % tag)
            health = os.path.join(work, "health-%s.jsonl" % tag)
            run(runner, work, ["--suite", "recovery", "--jobs", str(jobs),
                               "--isolation", isolation, "--out", out,
                               "--health-out", health])
            with open(os.path.join(work,
                                   "BENCH_scenario_suite_recovery.json")) as f:
                report = verdicts(json.load(f))
            runs[tag] = (read(out), read(health), report)
    reference = runs["process-j1"]
    assert reference[2]["scenarios"] > 0, reference[2]
    for tag, (out, health, report) in runs.items():
        assert out == reference[0], "result stream of %s differs" % tag
        assert health == reference[1], "health stream of %s differs" % tag
        assert report == reference[2], (tag, report, reference[2])

    events = json_lines(os.path.join(work, "health-process-j1.jsonl"))
    assert events, "empty health stream"
    for event in events:
        assert event["schema_version"] == 2, event
        assert event["event"] in HEALTH_KINDS, event
        assert isinstance(event["period"], int) and event["period"] >= 0, \
            event
        assert isinstance(event["degradation"], int), event
        assert "scenario" in event and "tap_position" in event, event
        if event["event"] == "relocked":
            assert event["relock_latency_periods"] >= 1, event
    seen = {event["event"] for event in events}
    assert {"lock_lost", "relocked", "degraded"} <= seen, seen
    print("recovery: %d health events, byte-identical at --jobs 1 and 4 "
          "in both isolation modes; kinds %s" % (len(events), sorted(seen)))


def main(runner, work):
    os.makedirs(work, exist_ok=True)
    check_smoke(runner, work)
    check_recovery(runner, work)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
