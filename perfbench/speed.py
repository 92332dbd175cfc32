"""Host-speed probe: how fast each CPU runs while the program runs.

On a shared 2-vCPU host each CPU switches between a fast and a slow
state, independently and within a second, and the slow state takes
about twice as long for the same work (CPU time grows with wall time,
so the time is not stolen but run slower).  Slow spells also cluster
over minutes, so the same pass, run a minute apart, takes 1.2 to 1.7
times as long.  No run length averages that out.

:class:`SpeedProbe` measures it instead.  A thread pinned to each CPU
runs :func:`probe_work`, a fixed piece of plain Python and small-array
NumPy work that nothing in ``src/`` touches, every ``INTERVAL_S``
seconds, and records its thread CPU time, which waiting for the CPU or
the interpreter lock does not inflate.  A program pass timed over
``[t0, t1]`` is reported at the reference speed: its wall time times
``REFERENCE_S`` over the probe's mean CPU time in that window.  Over
30 cold explanations (4.7 to 8.3 s of wall time) and 30 set-up launches
on a 2-vCPU host, the log of a pass's wall time followed the log of the
probe's time with slope 0.93 and 0.82 and correlation 0.97 and 0.96.
"""

from __future__ import annotations

import os
import threading
import time

INTERVAL_S = 0.05
REFERENCE_S = 0.15e-3
"""CPU time of one warm :func:`probe_work` call on the reference host (a
2-vCPU Xeon VM) in its fast state; reported times are scaled to it, so
they read about as the same pass would on that host when it is quiet."""
WINDOW_PAD_S = 0.1
"""Probe samples this far outside a timed window still count for it, so
that a window shorter than ``INTERVAL_S`` has samples."""


def probe_work(state) -> float:
    """A fixed amount of interpreter, allocation and NumPy work."""
    numpy, buf, idx = state
    recs = [{"t": i * 0.1, "v": float(i % 13)} for i in range(200)]
    recs.sort(key=lambda r: r["v"])
    a = numpy.asarray([r["v"] for r in recs])
    s = float(numpy.cumsum(a)[-1]) + float(buf[idx].sum())
    for _ in range(20):
        s += float(numpy.hypot(a[:64], a[64:128]).max())
    return s


def _state():
    import numpy

    rng = numpy.random.default_rng(0)
    return numpy, rng.random(1 << 17), rng.integers(0, 1 << 17, 2048)


class SpeedProbe:
    """Probe threads pinned to ``cpus`` while the ``with`` block runs."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(cpu,),
                                          daemon=True) for cpu in self.cpus]

    def __enter__(self) -> SpeedProbe:
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        state = _state()
        while not self._stop.is_set():
            # The first call after the sleep runs on cold caches, and
            # takes longer the more the CPU idled: time the second.
            probe_work(state)
            t0 = time.thread_time()
            probe_work(state)
            self.samples.append((time.perf_counter(), time.thread_time() - t0))
            self._stop.wait(INTERVAL_S)

    def at_ref(self, t0: float, t1: float) -> float:
        """The time from ``t0`` to ``t1`` (``perf_counter`` readings) at
        the reference speed: scaled by ``REFERENCE_S`` over the probe's
        mean time in that window."""
        lo, hi = t0 - WINDOW_PAD_S, t1 + WINDOW_PAD_S
        window = [cpu_s for t, cpu_s in self.samples if lo <= t <= hi]
        if not window:
            raise RuntimeError(f"no speed probe sample in [{t0}, {t1}]")
        return (t1 - t0) * REFERENCE_S * len(window) / sum(window)
