#!/usr/bin/env python3
"""End-to-end: a hung scenario is timed out, retried and reported, not fatal.

    hung_scenario_test.py RUNNER SERVER WORK_DIR

RUNNER and SERVER are the built ddl_scenario_runner and ddl_scenario_server.
The runner drives the smoke suite with its first scenario hung past the
sandbox deadline: that row must come back as a structured timeout error
after both attempts while every other scenario passes.  Both tools must
also refuse sandbox-only flags under --isolation thread with the usage
exit code.  Registered with ctest under the `e2e` label.
"""
import json
import os
import subprocess
import sys

USAGE_EXIT = 64


def main(runner, server, work):
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "hang.jsonl")
    env = dict(os.environ, DDL_BENCH_DIR=work)
    run = subprocess.run(
        [runner, "--suite", "smoke", "--inject-hang", "5000",
         "--timeout-ms", "300", "--retries", "1", "--backoff-ms", "10",
         "--out", out],
        env=env, stderr=subprocess.DEVNULL)
    # The exit status counts failed scenarios: only the hung one.
    assert run.returncode == 1, run.returncode
    with open(out) as stream:
        rows = [json.loads(line) for line in stream]
    hung, rest = rows[0], rows[1:]
    assert hung["verdict"] == "error", hung
    assert hung["error_kind"] == "timeout", hung
    assert hung["failure_reason"] == "error:timeout", hung
    assert hung["attempts"] == 2, hung
    assert rest and all(row["pass"] for row in rest), "batch was aborted"

    for tool, flag in ((runner, "--timeout-ms"), (runner, "--retries"),
                       (runner, "--backoff-ms"), (runner, "--inject-hang"),
                       (server, "--timeout-ms"), (server, "--retries")):
        refused = subprocess.run(
            [tool, "--isolation", "thread", flag, "100"], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        assert refused.returncode == USAGE_EXIT, (tool, flag, refused)
        assert flag + " requires --isolation process" in refused.stderr, (
            refused.stderr)
    print("hung scenario reported after %d attempts; %d other scenarios "
          "unharmed" % (hung["attempts"], len(rest)))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(*sys.argv[1:])
