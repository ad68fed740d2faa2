"""Regenerate digests.json: the sha256 of every benchmark command's stdout.

    python3 perfbench/pin.py

Run from the repository root at a commit whose reports are known good.
Every command must exit 0; the script stops at the first that does not.
"""

from __future__ import annotations

import json
import sys

from run import HERE, RIGIDITY_SEEDS, SRC, WORKLOADS, digest, run_command


def all_commands() -> list[list[str]]:
    cmds = [argv for name, make in WORKLOADS.items() if name != "rigidity-sweep"
            for argv in make(0)]
    cmds += [["rigidity", "--colors", "2", "--radius", "3", "--seed", str(k)]
             for k in range(RIGIDITY_SEEDS)]
    return cmds


def main() -> int:
    sys.path.insert(0, str(SRC))
    pinned = {}
    for argv in all_commands():
        rc, out, secs = run_command(argv)
        key = " ".join(argv)
        if rc != 0:
            print(f"{key}: exit {rc}", file=sys.stderr)
            return 1
        pinned[key] = digest(out)
        print(f"{secs:7.2f} s  {key}", file=sys.stderr)
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
