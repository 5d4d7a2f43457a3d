"""The program under test as a child process: spawn, observe, reap.

The server is started exactly as a user starts it — ``python -m repro
serve --port P --shards 2 --members 3 --seed S`` — and observed only
from outside: its TCP port and ``/proc/<pid>``.  Every child is killed
and waited for on the way out (``close`` in a ``finally``, plus an
``atexit`` sweep for the paths a ``finally`` cannot cover): a leaked
idle server holds hundreds of MB and skews every later segment.
"""

from __future__ import annotations

import atexit
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

SHARDS = 2
MEMBERS = 3

#: A server whose resident set passes this is killed and its segment
#: fails: 12 000 ops with 10 % barrier reads reached 14.5 GB in sizing.
RSS_LIMIT_KB = 3 * 1024 * 1024


class SegmentFailed(RuntimeError):
    """The segment cannot be measured (server died, grew too large, ...)."""


_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: Every child not yet reaped: servers and calibrators.
_LIVE: Set[object] = set()


def _reap_all() -> None:
    for child in list(_LIVE):
        child.close()


atexit.register(_reap_all)


def free_port() -> int:
    """An ephemeral port that was free a moment ago (checked by binding)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServerProcess:
    """One ``repro serve`` child on its own core."""

    def __init__(self, seed: int, core: Optional[int] = None) -> None:
        self.port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(self.port),
                "--shards", str(SHARDS),
                "--members", str(MEMBERS),
                "--seed", str(seed),
            ],
            env=env, cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        _LIVE.add(self)
        if core is not None:
            os.sched_setaffinity(self.proc.pid, {core})

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def cpu_seconds(self) -> float:
        """``utime + stime`` of the server so far, from ``/proc/<pid>/stat``."""
        with open(f"/proc/{self.pid}/stat", "rb") as handle:
            # Fields after the parenthesised command name; utime and
            # stime are fields 14 and 15 of the whole line.
            fields = handle.read().rsplit(b") ", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def _status_kb(self, field: str) -> int:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise RuntimeError(f"{field} missing from /proc/{self.pid}/status")

    def rss_kb(self) -> int:
        return self._status_kb("VmRSS")

    def peak_rss_kb(self) -> int:
        return self._status_kb("VmHWM")

    def check_memory(self) -> None:
        """The watchdog: kill a runaway server and fail its segment."""
        rss = self.rss_kb()
        if rss > RSS_LIMIT_KB:
            self.close()
            raise SegmentFailed(
                f"server RSS {rss // 1024} MB passed the "
                f"{RSS_LIMIT_KB // 1024} MB limit; killed"
            )

    def interrupt(self, timeout: float) -> Tuple[int, str]:
        """SIGINT, then wait for the drain audit: (exit code, output)."""
        self.proc.send_signal(signal.SIGINT)
        try:
            output, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.close()
            return -signal.SIGKILL, f"no exit within {timeout:.0f} s of SIGINT"
        self.close()
        return self.proc.returncode, output.decode("utf-8", "replace")

    def close(self) -> None:
        """SIGKILL and wait; safe to call twice."""
        _LIVE.discard(self)
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Calibrator:
    """``calibrate.py`` on the server's core: the segment's weather report.

    It times a short fixed spin every few milliseconds for as long as
    the segment runs, and hands the samples over when stopped.
    """

    def __init__(self, core: Optional[int] = None) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("calibrate.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        _LIVE.add(self)
        if core is not None:
            os.sched_setaffinity(self.proc.pid, {core})
        if self.proc.stdout.readline() != b"ready\n":
            self.close()
            raise SegmentFailed("the calibrator did not start")

    def stop(self) -> List[Tuple[float, float]]:
        """End the helper: its (``perf_counter``, spin ms) samples."""
        output, _ = self.proc.communicate(b"")
        self.close()
        return [
            (float(at), float(ms))
            for at, ms in (line.split() for line in output.decode().splitlines())
        ]

    def close(self) -> None:
        """SIGKILL and wait; safe to call twice."""
        _LIVE.discard(self)
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


def live_children() -> List[int]:
    return [child.proc.pid for child in _LIVE]
