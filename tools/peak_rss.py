"""Run a command and check that its peak resident set stays below a bound.

    python3 tools/peak_rss.py BOUND_MB [--timeout S] -- ARGV...

The command's stdout is discarded.  The tool prints the command's peak
RSS (``ru_maxrss`` of its waited-for children, which is only the
command) and exits 1 when the command fails, runs past S seconds, or
peaks at BOUND_MB or more.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        usage="peak_rss.py BOUND_MB [--timeout S] -- ARGV...")
    parser.add_argument("bound_mb", type=float)
    parser.add_argument("--timeout", type=float)
    if "--" not in argv or argv.index("--") == len(argv) - 1:
        parser.error("give the command to run after --")
    cut = argv.index("--")
    args, command = parser.parse_args(argv[:cut]), argv[cut + 1:]
    shown = " ".join(command)
    try:
        status = subprocess.run(command, stdout=subprocess.DEVNULL,
                                timeout=args.timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"{shown}: no exit within {args.timeout:g} s")
        return 1
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{shown}: peak RSS {peak_mb:.1f} MB")
    if status:
        print(f"exit status {status}")
        return 1
    if peak_mb >= args.bound_mb:
        print(f"peak RSS {peak_mb:.1f} MB is not below {args.bound_mb:g} MB")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
