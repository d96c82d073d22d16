"""Resident-set sampler for another process, run as a child of bench/run.py.

Usage: python bench/rss_sampler.py <pid> <period-seconds>

Reads /proc/<pid>/statm every period.  Each line on stdin asks for the
peak resident set, in bytes, since the previous request; the answer is
one line on stdout.  Exits when stdin closes or the process is gone.
Sampling from a separate process keeps the measured process free of a
second thread competing for its interpreter lock.
"""

import os
import select
import sys


def main(argv) -> int:
    pid, period = int(argv[0]), float(argv[1])
    page = os.sysconf("SC_PAGE_SIZE")
    with open(f"/proc/{pid}/statm") as statm:
        def rss() -> int:
            statm.seek(0)
            return int(statm.read().split()[1]) * page

        peak = rss()
        while True:
            ready, _, _ = select.select([sys.stdin], [], [], period)
            try:
                now = rss()
            except (OSError, ValueError, IndexError):
                return 0
            peak = max(peak, now)
            if ready:
                if not sys.stdin.readline():
                    return 0
                print(peak, flush=True)
                peak = now


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
