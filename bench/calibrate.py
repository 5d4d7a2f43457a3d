"""The weather helper: time a short fixed spin, over and over.

Run by ``child.Calibrator`` on the server's core, beside the server.
Every ``PERIOD_S`` it times ``ITERATIONS`` turns of a pure-Python loop
with its own CPU clock, so what it reports is how fast that core runs
Python *while the load is on it* — not how much of the core it got.  It
costs the server about 3 % of its core.  Closing its standard input
stops it; it then prints one ``<perf_counter> <spin ms>`` line per
sample.
"""

import select
import sys
import time

ITERATIONS = 20_000
PERIOD_S = 0.02


def main() -> None:
    samples = []
    cpu, wall = time.process_time, time.perf_counter
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        at, started, total = wall(), cpu(), 0
        for i in range(ITERATIONS):
            total += i & 7
        samples.append((at, (cpu() - started) * 1000.0))
    sys.stdout.write("".join(f"{at:.6f} {ms:.6f}\n" for at, ms in samples))


if __name__ == "__main__":
    main()
