#!/usr/bin/env python3
"""End-to-end: the four tools' command-line grammars.

    tool_flags_test.py RUNNER SERVER CLIENT PROXY WORK_DIR

RUNNER, SERVER, CLIENT and PROXY are the built ddl_scenario_runner,
ddl_scenario_server, ddl_scenario_client and ddl_chaos_proxy.  For each
tool, with its own list of flags below:

- `--help` and `-h` exit 0, and the help names every flag;
- an unknown flag exits 64;
- every flag that takes a value, given last with no value, exits 64 and
  names the flag;
- every numeric flag given a malformed number exits 64 and names the flag.

The server refuses each of its four sandbox-only flags under
`--isolation thread`, and out-of-range ports, retry counts and outbox caps
exit 64 instead of wrapping to another value.  Both the runner and the
server read 0 for the sandbox's deadline and caps (derive per spec, no
cap): `FLAG 0 --help` exits 0.  No case may start a
listener or a sandbox worker: each runs under a timeout, and a tool still
running when it expires is terminated and the case fails.  Every failing
case is listed before the test exits 1.  Registered with ctest under the
`e2e` label.
"""
import os
import re
import subprocess
import sys

USAGE_EXIT = 64
CASE_TIMEOUT_S = 10

# Every flag of each tool: None for a switch, "text" for a value, "number"
# for an unsigned decimal.
RUNNER_FLAGS = {
    "--help": None, "--suite": "text", "--filter": "text", "--jobs": "number",
    "--out": "text", "--health-out": "text", "--journal": "text",
    "--resume": "text", "--timeout-ms": "number", "--retries": "number",
    "--backoff-ms": "number", "--chaos": "number", "--chaos-seed": "number",
    "--chaos-max-faults": "number", "--shrink": None, "--replay": "text",
    "--inject-hang": "number", "--isolation": "text",
    "--mem-limit-mb": "number", "--cpu-limit-s": "number",
    "--inject-crash": "text", "--list": None,
}
SERVER_FLAGS = {
    "--help": None, "--port": "number", "--no-tcp": None, "--unix": "text",
    "--state-dir": "text", "--workers": "number", "--max-inflight": "number",
    "--max-jobs": "number", "--heartbeat-ms": "number",
    "--dead-peer-timeout-ms": "number",
    "--partial-frame-timeout-ms": "number", "--max-outbox-mb": "number",
    "--timeout-ms": "number", "--retries": "number", "--isolation": "text",
    "--mem-limit-mb": "number", "--cpu-limit-s": "number",
}
CLIENT_FLAGS = {
    "--help": None, "--port": "number", "--host": "text", "--unix": "text",
    "--name": "text", "--job": "text", "--suite": "text", "--filter": "text",
    "--replay": "text", "--cancel": None, "--out": "text",
    "--health-out": "text", "--heartbeat-ms": "number",
    "--recv-timeout-ms": "number", "--retry-ms": "number",
    "--attempts": "number", "--inject-crash": "text",
}
PROXY_FLAGS = {
    "--help": None, "--listen-port": "number", "--upstream-port": "number",
    "--upstream-host": "text", "--seed": "number", "--profile": "text",
    "--reset": "number", "--truncate": "number", "--fuzz": "number",
    "--duplicate": "number", "--trickle": "number", "--stall": "number",
    "--stall-ms": "number", "--chunk-bytes": "number",
}

SERVER_SANDBOX_ONLY = ("--timeout-ms", "--retries", "--mem-limit-mb",
                       "--cpu-limit-s")
# Sandbox numbers whose 0 means "derive per spec" or "no cap".
SANDBOX_ZERO = ("--timeout-ms", "--mem-limit-mb", "--cpu-limit-s")

# Values that wrap when stored unchecked: a port above 65535, a retry count
# past INT_MAX (2^32 + 1 wraps to 1 retry, 2^31 to INT_MIN), and an outbox
# cap whose size in bytes overflows size_t (2^44 MiB wraps to 0, read as
# the 32 MiB default; 2^44 + 1 to 1 MiB).
WRAP_CASES = (
    ("proxy", ["--listen-port", "70000", "--upstream-port", "1"],
     "--listen-port"),
    ("proxy", ["--listen-port", "0", "--upstream-port", "65537"],
     "--upstream-port"),
    ("server", ["--port", "0", "--retries", "4294967297"], "--retries"),
    ("server", ["--port", "0", "--retries", "2147483648"], "--retries"),
    ("server", ["--port", "0", "--max-outbox-mb", "17592186044416"],
     "--max-outbox-mb"),
    ("server", ["--port", "0", "--max-outbox-mb", "17592186044417"],
     "--max-outbox-mb"),
)


class Cases:
    """Runs the cases, collecting failures rather than stopping at one."""

    def __init__(self, tools, work):
        self.tools = tools
        self.work = work
        self.env = dict(os.environ, DDL_BENCH_DIR=work)
        self.failures = []
        self.ran = 0

    def run(self, tool, args):
        """(exit code, stdout, stderr), or None when the tool outlived the
        timeout -- it started instead of answering -- and was terminated."""
        proc = subprocess.Popen([self.tools[tool]] + args, cwd=self.work,
                                env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=CASE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            return None
        return proc.returncode, out, err

    def check(self, name, tool, args, want_exit, needle=None):
        self.ran += 1
        got = self.run(tool, args)
        if got is None:
            self.failures.append("%s: %s %s started instead of answering" %
                                 (name, tool, " ".join(args)))
            return None
        code, out, err = got
        if code != want_exit:
            self.failures.append("%s: %s %s exited %d, want %d (%s)" %
                                 (name, tool, " ".join(args), code,
                                  want_exit, err.strip().splitlines()[:1]))
            return None
        if needle is not None and needle not in err:
            self.failures.append("%s: %s %s did not say %r (%s)" %
                                 (name, tool, " ".join(args), needle,
                                  err.strip().splitlines()[:1]))
            return None
        return out


def check_grammar(cases, tool, flags):
    help_text = cases.check("help", tool, ["--help"], 0)
    for flag in flags if help_text is not None else ():
        # Each flag opens an entry of its own: indented, then its value
        # name, its alias or the end of the line.
        if not re.search(r"^\s+%s(\s|,|$)" % re.escape(flag), help_text,
                         re.MULTILINE):
            cases.failures.append("help: %s --help does not list %s" %
                                  (tool, flag))
    cases.check("help alias", tool, ["-h"], 0)
    cases.check("unknown flag", tool, ["--frobnicate"], USAGE_EXIT)
    for flag, kind in flags.items():
        if kind is None:
            continue
        cases.check("missing value", tool, [flag], USAGE_EXIT, flag)
        if kind == "number":
            cases.check("malformed number", tool, [flag, "12x"], USAGE_EXIT,
                        flag)


def main(runner, server, client, proxy, work):
    os.makedirs(work, exist_ok=True)
    tools = {"runner": runner, "server": server, "client": client,
             "proxy": proxy}
    cases = Cases({tool: os.path.abspath(path)
                   for tool, path in tools.items()}, work)
    for tool, flags in (("runner", RUNNER_FLAGS), ("server", SERVER_FLAGS),
                        ("client", CLIENT_FLAGS), ("proxy", PROXY_FLAGS)):
        check_grammar(cases, tool, flags)
    for flag in SERVER_SANDBOX_ONLY:
        cases.check("thread isolation", "server",
                    ["--port", "0", "--isolation", "thread", flag, "1"],
                    USAGE_EXIT, flag + " requires --isolation process")
    for tool, args, flag in WRAP_CASES:
        cases.check("wrap", tool, args, USAGE_EXIT, flag)
    for tool in ("runner", "server"):
        for flag in SANDBOX_ZERO:
            cases.check("zero", tool, [flag, "0", "--help"], 0)

    flag_count = sum(len(flags) for flags in (RUNNER_FLAGS, SERVER_FLAGS,
                                              CLIENT_FLAGS, PROXY_FLAGS))
    for failure in cases.failures:
        print("FAIL " + failure)
    if cases.failures:
        sys.exit("%d of %d cases failed" % (len(cases.failures), cases.ran))
    print("%d flags across 4 tools: %d cases passed" % (flag_count,
                                                         cases.ran))


if __name__ == "__main__":
    if len(sys.argv) != 6:
        sys.exit(__doc__)
    main(*sys.argv[1:])
