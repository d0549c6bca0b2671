"""Host speed, sampled while the benchmark runs, to rescale its times.

The benchmark's host is shared, and its speed drifts by 20-40% over tens of
seconds with the load of other tenants; a command that takes 3.5 s in a quiet
minute takes 5 s in a busy one. A time divided by the host speed measured over
the same interval does not drift.

`Sampler` starts this file as one child process. The child times the CPU
time of a fixed interpreter-bound loop (about 2 ms) twenty times a second and
appends `<monotonic start> <loop CPU seconds>` lines to a file. The caller
pins itself, and so the commands it starts, to the sampler's CPU (`pin`), so
the loop and the command share one CPU by turns and see the same host: a
sampler on the other CPU would run beside the command, and on a host whose
two CPUs are hyperthreads of one core it would time the command's
interference, not the host. `scale` then rescales a time measured between two
monotonic instants by REF_NOMINAL_S over the mean loop time in that interval,
widened to at least WINDOW_S: the result is the time the interval would have
taken on a host where the loop takes REF_NOMINAL_S. The loop does not touch
the package, so a change to the code under test moves the scaled time as much
as the raw one.

    python3 perfbench/hostspeed.py OUT    # sample until stopped
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

LOOP_ITERS = 10_000
PERIOD_S = 0.05  # one loop started every PERIOD_S
REF_NOMINAL_S = 0.0022  # the loop's CPU time on the host the scaled figures refer to
WINDOW_S = 1.0  # shortest interval whose samples rescale a time
START_TIMEOUT_S = 10


def cpu() -> int:
    """The CPU the sampler and the measured commands share."""
    return min(os.sched_getaffinity(0))


def loop_seconds(iters: int = LOOP_ITERS) -> float:
    t0 = time.thread_time()
    table: dict[int, int] = {}
    for i in range(iters):
        k = i & 1023
        table[k] = table.get(k, 0) + i * i % 7
    return time.thread_time() - t0


def sample_forever(out: Path) -> None:
    parent = os.getppid()
    with open(out, "a", encoding="ascii") as fh:
        while os.getppid() == parent:  # a killed benchmark leaves no sampler behind
            start = time.monotonic()
            fh.write(f"{start!r} {loop_seconds()!r}\n")
            fh.flush()
            time.sleep(max(0.0, start + PERIOD_S - time.monotonic()))


class Sampler:
    """The sampling child, and this process pinned to its CPU, while in the `with` block."""

    def __init__(self, out: Path):
        self.out = out

    def __enter__(self) -> "Sampler":
        self.out.unlink(missing_ok=True)
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu()})
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.out)],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.samples():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise OSError("host speed sampler did not start")
            time.sleep(0.02)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait()
        os.sched_setaffinity(0, self.affinity)

    def samples(self) -> list[tuple[float, float]]:
        try:
            lines = self.out.read_text(encoding="ascii").splitlines()
        except FileNotFoundError:
            return []
        rows = [line.split() for line in lines]
        return [(float(r[0]), float(r[1])) for r in rows if len(r) == 2]  # skip a torn last line

    def settle(self, until: float) -> None:
        """Wait until the samples cover the monotonic instant `until`."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            rows = self.samples()
            if rows and rows[-1][0] >= until:
                return
            time.sleep(0.02)


def loop_mean(samples: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Mean loop time over [t0, t1] widened to WINDOW_S, or over the nearest samples."""
    pad = max(0.0, (WINDOW_S - (t1 - t0)) / 2)
    inside = [dt for t, dt in samples if t0 - pad <= t <= t1 + pad]
    if not inside:
        mid = (t0 + t1) / 2
        inside = [dt for _, dt in sorted(samples, key=lambda row: abs(row[0] - mid))[:3]]
    return statistics.fmean(inside)


def scale(seconds: float, samples: list[tuple[float, float]], t0: float, t1: float) -> float:
    return seconds * REF_NOMINAL_S / loop_mean(samples, t0, t1)


if __name__ == "__main__":
    sample_forever(Path(sys.argv[1]))
