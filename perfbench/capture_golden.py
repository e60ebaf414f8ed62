"""Record the golden stdout and exit code of every cli workload command.

    python3 perfbench/capture_golden.py

Run it only on a commit whose CLI output is the reference (the goldens in
golden/cli.json were taken at the seed commit); the cli workload then
requires every later commit to reproduce them byte for byte.
"""
from __future__ import annotations

import json
import subprocess
import sys

import run
import tasks as taskgen


def main() -> int:
    cwd = run.WORK / "cli"
    cwd.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    pool = taskgen.cli_pool()
    keys = [taskgen.CLI_WARMUP_KEY] + sorted(k for k in pool if k != taskgen.CLI_WARMUP_KEY)
    golden = {}
    for key in keys:
        proc = subprocess.run([sys.executable, "-m", "padicvdp", *pool[key]], cwd=cwd,
                              env=env, capture_output=True, timeout=120)
        golden[key] = {"argv": pool[key], "exit": proc.returncode,
                       "stdout": proc.stdout.decode()}
        print(f"{key}: exit {proc.returncode}, {len(proc.stdout)} bytes")
    taskgen.GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    taskgen.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
