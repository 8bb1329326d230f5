"""Build the benchmark from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload airline64 --seed 1 --seconds 20 --trace 0

Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. Everything the build writes stays inside
the checkout: dune's shared cache is disabled and temporary files go to
.perfbench_tmp/. Exits non-zero, without a result, if the build fails.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if shutil.which("dune") is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 1
    tmp = os.path.abspath(".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
