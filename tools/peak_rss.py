#!/usr/bin/env python3
"""Run a command and gate its peak resident set size.

    python tools/peak_rss.py [--max-mb N] -- <command> [args...]

Runs ``<command>`` with the caller's standard streams, then prints its peak
RSS (the ``ru_maxrss`` of the largest process in its tree, in MB) to
standard error, so the command's own output can be redirected untouched.
The exit status is the command's own; a command that succeeds but peaks
above ``--max-mb`` exits 1.

Stdlib only.  Example (the CI ``figures`` job)::

    PYTHONPATH=src python tools/peak_rss.py --max-mb 200 -- \\
        python -m repro.experiments.cli all --no-cache > figures.txt
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys


def peak_rss_mb() -> float:
    """Peak RSS of the largest waited-for child process, in MB."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, default=None,
                        help="fail when the command's peak RSS exceeds this")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    status = subprocess.run(command).returncode
    if status < 0:  # killed by a signal: report it the way a shell does
        status = 128 - status
    peak = peak_rss_mb()
    print(f"peak_rss: {peak:.1f} MB", file=sys.stderr)
    if status == 0 and args.max_mb is not None and peak > args.max_mb:
        print(f"peak_rss: {peak:.1f} MB exceeds the {args.max_mb:g} MB bound",
              file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
