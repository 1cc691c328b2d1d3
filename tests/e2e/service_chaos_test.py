#!/usr/bin/env python3
"""End-to-end: smoke campaigns through seeded network-chaos storms converge
byte-identically.

    service_chaos_test.py RUNNER SERVER CLIENT PROXY WORK_DIR STORMS [SEED]

RUNNER, SERVER, CLIENT and PROXY are the built ddl_scenario_runner,
ddl_scenario_server, ddl_scenario_client and ddl_chaos_proxy.  The smoke
suite run once by the runner is the reference stream.  Then STORMS storms
run, seeds SEED, SEED + 1, ... (SEED defaults to 1): each starts a fresh
daemon and a ddl_chaos_proxy in front of it with that seed and 512-byte
chunks (more fault decision points per frame), the default fault profile
on odd seeds and the heavy one on even seeds.  A retrying client submits
the smoke suite through the proxy; it must exit 0, and its result and
health streams must equal the runner's byte for byte.  Each storm leaves
its logs and streams under WORK_DIR/storm-<seed>/.  Registered with ctest
under the `e2e` label with a few storms; CI runs the 20-storm sweep.
"""
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
    try:
        with open(path, "rb") as stream:
            return stream.read()
    except FileNotFoundError:
        return b""


def start(command, log, err=subprocess.STDOUT):
    """Starts `command` with stdout in `log`; returns it and its TCP port
    from the `listening ... tcp=<port>` line it prints once ready."""
    with open(log, "wb") as out:
        proc = subprocess.Popen(command, stdout=out, stderr=err)
    assert wait_for(lambda: b"listening" in read(log), 10), read(log)
    return proc, int(re.search(rb"tcp=(\d+)", read(log)).group(1))


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=60)


def storm(server_bin, client_bin, proxy_bin, work, seed, golden,
          golden_health):
    storm_dir = os.path.join(work, "storm-%d" % seed)
    shutil.rmtree(storm_dir, ignore_errors=True)
    os.makedirs(storm_dir)

    def path(name):
        return os.path.join(storm_dir, name)

    profile = "default" if seed % 2 else "heavy"
    started = time.monotonic()
    server, server_port = start(
        [server_bin, "--port", "0", "--workers", "2",
         "--state-dir", path("state"), "--dead-peer-timeout-ms", "5000",
         "--partial-frame-timeout-ms", "2000"], path("server.log"))
    proxy = None
    try:
        with open(path("proxy-stats.log"), "wb") as stats:
            proxy, proxy_port = start(
                [proxy_bin, "--upstream-port", str(server_port),
                 "--seed", str(seed), "--profile", profile,
                 "--chunk-bytes", "512"], path("proxy.log"), stats)
        with open(path("client.log"), "wb") as err:
            status = subprocess.run(
                [client_bin, "--port", str(proxy_port), "--name", "storm",
                 "--job", "storm-%d" % seed, "--suite", "smoke",
                 "--attempts", "600", "--retry-ms", "25",
                 "--heartbeat-ms", "200", "--recv-timeout-ms", "3000",
                 "--out", path("result.jsonl"),
                 "--health-out", path("health.jsonl")],
                stderr=err, timeout=600).returncode
        assert status == 0, (seed, status, read(path("client.log")))
        assert read(path("result.jsonl")) == golden, \
            "seed %d: result streams differ" % seed
        assert read(path("health.jsonl")) == golden_health, \
            "seed %d: health streams differ" % seed
    finally:
        for proc in (proxy, server):
            if proc is not None:
                stop(proc)
    chaos = read(path("proxy-stats.log")).decode().strip()
    print("seed %d (%s): byte-identical in %.1f s; %s"
          % (seed, profile, time.monotonic() - started,
             chaos.replace("chaos: ", "")))


def main(runner, server_bin, client_bin, proxy_bin, work, storms, seed="1"):
    os.makedirs(work, exist_ok=True)
    os.environ["DDL_BENCH_DIR"] = work
    golden_path = os.path.join(work, "golden.jsonl")
    golden_health_path = os.path.join(work, "golden-health.jsonl")
    subprocess.run([runner, "--suite", "smoke", "--out", golden_path,
                    "--health-out", golden_health_path],
                   check=True, stdout=subprocess.DEVNULL)
    golden = read(golden_path)
    assert golden, "the smoke suite emits result rows"
    golden_health = read(golden_health_path)
    for offset in range(int(storms)):
        storm(server_bin, client_bin, proxy_bin, work, int(seed) + offset,
              golden, golden_health)


if __name__ == "__main__":
    if len(sys.argv) not in (7, 8):
        sys.exit(__doc__)
    main(*sys.argv[1:])
