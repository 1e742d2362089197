"""Record the SHA-256 of each paper-tables-cli op's stdout into cli_sha256.json.

    python3 bench/record_hashes.py

Run it on the commit whose CLI output is the reference; the benchmark
then counts any op whose stdout differs from it as failed.
"""

import json
import subprocess
import sys

import gen
import oracles
from run import HERE, ROOT, child_env


def main() -> int:
    hashes = {}
    for argv in gen.CLI_OPS:
        proc = subprocess.run([sys.executable, "-m", "quotcoh.cli", *argv], env=child_env(),
                              cwd=ROOT, capture_output=True, check=True)
        hashes[gen.op_key(argv)] = oracles.sha256(proc.stdout)
        print(gen.op_key(argv), hashes[gen.op_key(argv)])
    (HERE / "cli_sha256.json").write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
