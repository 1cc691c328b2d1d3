#!/usr/bin/env python3
"""End-to-end: failing chaos storms shrink to bundles that replay.

    chaos_replay_test.py RUNNER WORK_DIR

RUNNER is the built ddl_scenario_runner.  It runs the chaos suite with
shrinking on: the exit status must count the failing rows, and every
failing row must leave one replay bundle (at least one in all) that
replays its failure with exit 0.  A copy of a bundle with one extra
`spec.` key must be refused with the usage exit code and an error naming
that key, since bundles are read strictly.  Registered with ctest under
the `e2e` label.
"""
import glob
import json
import os
import shutil
import subprocess
import sys

USAGE_EXIT = 64


def bundle_name(scenario):
    return "replay_" + scenario.replace("/", "_") + ".json"


def main(runner, work):
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
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        assert replay.returncode == 0, (bundle, replay.stderr)

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
    print("%d failing storms, %d bundles replayed; a bundle with an unknown "
          "spec key was refused" % (len(failing), len(bundles)))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
