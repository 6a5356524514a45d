"""Run a command as a child and report its exit code, wall time and peak
resident set size, read from ``getrusage(RUSAGE_CHILDREN)`` once it exits.

    python tests/peak_rss.py [--max-mb MB] -- command [args ...]

Prints one JSON line ``{"exit": ..., "seconds": ..., "peak_mb": ...}``.
Exits with the command's code if it failed, else 1 if the peak passed
``--max-mb``, else 0.  The command is this process's only child, so the
peak is the command's own (that of its largest descendant).
"""

import argparse
import json
import resource
import subprocess
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float)
    parser.add_argument("command", nargs="+")
    args = parser.parse_args(argv)
    start = time.monotonic()
    code = subprocess.run(args.command, stdout=subprocess.DEVNULL).returncode
    seconds = time.monotonic() - start
    # ru_maxrss is in kilobytes on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps({"exit": code, "seconds": round(seconds, 2),
                      "peak_mb": round(peak_mb, 1)}))
    if code:
        return code
    return int(args.max_mb is not None and peak_mb >= args.max_mb)


if __name__ == "__main__":
    sys.exit(main())
