"""Run ``lemon`` commands in a fresh process, as a user would.

    python3 perfbench/child.py '[["verify", "--small", "a.lmn", "--big", "b.lmn"]]'

Each argument list is one ``lemon`` command.  The exit code is that of
the first command that does not exit 0, or 0.  The benchmark runs its
peak-memory measurement this way: one fresh process with the default
allocator, whose peak does not depend on what earlier operations in the
benchmark's own process left in its heap.  The last line on standard
error is ``peak_rss_kb=<n>``: the process's ``VmHWM``.  ``ru_maxrss`` would
not do, because Linux carries the parent's high-water mark across the
fork and exec that start this process.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import lemon.cli  # noqa: E402  (the path above must be set first)


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main() -> int:
    code = 0
    for argv in json.loads(sys.argv[1]):
        code = lemon.cli.main([str(a) for a in argv])
        if code != 0:
            break
    print(f"peak_rss_kb={peak_rss_kb()}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
