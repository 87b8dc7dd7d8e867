"""Record the expected stdout of every command in the ``cli`` workload.

    python3 bench/make_golden.py

Run from the root of a source checkout.  The file it writes is the
reference the ``cli`` workload compares against byte for byte, so it is
regenerated only when a change to the command output is intended.  Each
command runs under several seeds, and the script stops if the output
depends on the seed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from workloads import CLI_COLD, CLI_SCRIPT, GOLDEN_CLI, Cli, command_key


def main() -> int:
    root = os.getcwd()
    outputs: dict[str, str] = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for seed in (0, 1, 2):
            workload = Cli(seed, tmp, root, golden={})
            for command in CLI_COLD + CLI_SCRIPT:
                code, out = workload.run_command(command)
                if code != 0:
                    print(f"error: {command!r} exited {code}", file=sys.stderr)
                    return 1
                if outputs.setdefault(command_key(command), out) != out:
                    print(f"error: output of {command!r} depends on the seed", file=sys.stderr)
                    return 1
    with open(GOLDEN_CLI, "w", encoding="utf-8") as fh:
        json.dump(outputs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(outputs)} commands to {os.path.relpath(GOLDEN_CLI, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
