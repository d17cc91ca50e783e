#!/usr/bin/env python3
"""Build and run the browsing benchmark.

    python3 perfbench/run.py --workload maintain --seed 1 --seconds 5 --trace 0

Run from the repository root. It builds perfbench/main.exe with dune (the
first build compiles the lsdb libraries), runs it with the given arguments
and passes its output through. The last line of output is the result: one
JSON object with the keys correct, attempted, failed and metrics. Before
passing that line on, this script checks that it names exactly the metrics
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with --trace 1),
each with the unit listed there.
It exits non-zero, printing no result, when the build fails or the result
line is malformed, and with the program's own code when a check fails.

main.exe runs with address-space layout randomisation off, as under
`setarch -R`. With it on, where the kernel places the heap and stack moves a
run's speed from one process to the next: on the 2-core reference host, six
interleaved runs of one seed of an in-memory browse session varied in
commands per second with a coefficient of variation of 0.098 with
randomisation and 0.021 without, and no amount of measuring within a run
averages that out.
"""

import ctypes
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """In the child, before exec: turn address-space randomisation off.
    Where the kernel refuses, the run goes ahead with it on."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def main():
    args = sys.argv[1:]
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
            # The shared build cache lives outside the checkout.
            env=dict(os.environ, DUNE_CACHE="disabled"),
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not complete: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    try:
        run = subprocess.run(
            ["./_build/default/perfbench/main.exe"] + args,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            preexec_fn=fixed_layout,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run did not complete: %s" % e)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        traced = "--trace" in args and args[args.index("--trace") + 1] == "1"
        expected = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, IndexError, TypeError, OSError) as e:
        sys.stderr.write(run.stdout)
        fail("no well-formed result line: %s" % e)
    if got != expected:
        sys.stderr.write(run.stdout)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, other unit %s"
             % (sorted(expected.keys() - got.keys()), sorted(got.keys() - expected.keys()),
                sorted(n for n in expected.keys() & got.keys() if expected[n] != got[n])))
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
