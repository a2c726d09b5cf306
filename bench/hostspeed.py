"""How fast the host runs Python right now, so timings can be taken out of it.

On a shared host the same interpreted work runs up to twice as slowly
for spells of a fraction of a second to minutes, whatever this process
does; the minimum over a whole run moves with it. So the benchmark runs
on one CPU, cuts every timed section into slices of about `SLICE_S`, and
runs a fixed probe between slices. Each slice is reported in *reference
seconds*: its time multiplied by `NOMINAL_S` over the mean of the probes
either side of it. A reference second is a second on a host where the
probe takes `NOMINAL_S`; the sections' sums repeat where their raw times
do not (README.md gives the figures).

The probe is written for the benchmark and shares no code with spamrank,
so a change to the program moves the sections and leaves the probe as it
was. It does what the engine does most, in plain Python: it grows sparse
integer vectors in dicts, keeps an inverted index of sets, sums dot
products over posting lists and takes square roots of norms.

Three ways to slice a section:

* `HostSpeed.scale` after a slice the caller has cut itself (the
  in-process replay times each record and probes every CHUNK records);
* `Sliced`, a context manager that cuts any in-process block with a
  one-shot interval timer and probes in the signal handler;
* `run_sliced`, which stops a child process with SIGSTOP after each
  slice, reads the CPU time it used from /proc, probes, and resumes it.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import time
from math import sqrt
from time import perf_counter

NOMINAL_S = 0.02  # about the probe's time on a shared 2-CPU VM when it runs fast
SLICE_S = 0.05


def _corpus() -> list[tuple[int, tuple[int, ...]]]:
    rng = random.Random(20050412)
    return [(rng.randrange(300), tuple(rng.randrange(2000) for _ in range(1 + rng.randrange(3))))
            for _ in range(2000)]


_CORPUS = _corpus()


def _probe_work() -> float:
    vectors: dict[int, dict[int, int]] = {}
    postings: dict[int, set[int]] = {}
    total = 0.0
    for user, dims in _CORPUS:
        vec = vectors.setdefault(user, {})
        for d in dims:
            vec[d] = vec.get(d, 0) + 1
            postings.setdefault(d, set()).add(user)
        dots: dict[int, int] = {}
        for d, c in vec.items():
            for other in postings[d]:
                if other != user:
                    dots[other] = dots.get(other, 0) + c * vectors[other].get(d, 0)
        norm = sqrt(sum(c * c for c in vec.values()))
        best = max(dots.values(), default=0)
        total += best / norm
    return total


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU: the
    probes must run where the sliced work runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """Probes the host between slices of timed work.

    Call `probe()` right before a slice and `scale(seconds)` right after:
    it probes again and returns the slice's seconds in reference seconds.
    The probes are kept in `times`.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probe()

    def probe(self) -> float:
        start = perf_counter()
        _probe_work()
        elapsed = perf_counter() - start
        self.times.append(elapsed)
        self._last = elapsed
        return elapsed

    def factor(self) -> float:
        """Probe now; reference seconds per host second since the last probe."""
        before = self._last
        return NOMINAL_S * 2.0 / (before + self.probe())

    def scale(self, seconds: float) -> float:
        return seconds * self.factor()


class Sliced:
    """Times an in-process block in reference seconds.

        with Sliced(host) as clock:
            work()
        clock.seconds, clock.raw_seconds

    A one-shot ITIMER_REAL signal ends a slice every SLICE_S; its handler
    stops the clock, probes and starts the clock again, so the probes are
    not counted. The handler runs between bytecodes, so a slice that ends
    inside a long C call ends when the call returns.
    """

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.seconds = 0.0
        self.raw_seconds = 0.0

    def _lap(self) -> None:
        elapsed = perf_counter() - self._t0
        self.raw_seconds += elapsed
        self.seconds += self.host.scale(elapsed)

    def _tick(self, signum, frame) -> None:
        self._lap()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S)
        self._t0 = perf_counter()

    def __enter__(self) -> Sliced:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self.host.probe()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._lap()
        signal.signal(signal.SIGALRM, self._old)


def _proc_state(pid: int) -> str:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        stat = fh.read()
    return stat[stat.rindex(")") + 2]


def _cpu_ns(pid: int) -> int:
    """Nanoseconds the process has run on a CPU (first field of schedstat)."""
    with open(f"/proc/{pid}/schedstat", encoding="ascii") as fh:
        return int(fh.read().split()[0])


def _peak_rss_mb(pid: int) -> float:
    """The process's own resident high-water mark, 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _reap(pid: int, flags: int):
    """(exit code, rusage) once the child has ended, else None."""
    got, status, usage = os.wait4(pid, flags)
    return (os.waitstatus_to_exitcode(status), usage) if got else None


def run_sliced(host: HostSpeed, argv: list[str], **popen) -> tuple[float, float, float, int]:
    """Run `argv` to its end in slices; returns its CPU time in reference
    and in host seconds, its peak RSS in MB and its exit code.

    After each SLICE_S of wall time the child is stopped, the CPU time it
    used in the slice is read and the host is probed; then it goes on.
    The last slice's CPU time comes from the child's rusage. The peak is
    the child's VmHWM, read every few ms while it runs: its ru_maxrss would
    not do, as the kernel starts a child's figure at the pages its parent
    has resident.
    """
    host.probe()
    proc = subprocess.Popen(argv, **popen)
    pid = proc.pid
    used_ns = 0
    ref = raw = peak = 0.0
    ended = None
    try:
        while ended is None:
            until = perf_counter() + SLICE_S
            while ended is None and perf_counter() < until:
                peak = max(peak, _peak_rss_mb(pid))
                time.sleep(0.002)
                ended = _reap(pid, os.WNOHANG)
            if ended is not None:
                break
            os.kill(pid, signal.SIGSTOP)
            while _proc_state(pid) not in "TtZ":
                pass
            peak = max(peak, _peak_rss_mb(pid))
            now_ns = _cpu_ns(pid)
            raw += (now_ns - used_ns) / 1e9
            ref += host.scale((now_ns - used_ns) / 1e9)
            used_ns = now_ns
            os.kill(pid, signal.SIGCONT)
    finally:
        if ended is None:  # only on an error in this loop
            proc.kill()
            os.kill(pid, signal.SIGCONT)
            ended = _reap(pid, 0)
        proc.returncode = ended[0]  # reaped here, not by Popen
    code, usage = ended
    last = max(0.0, usage.ru_utime + usage.ru_stime - used_ns / 1e9)
    return ref + host.scale(last), raw + last, peak, code
