"""Host-speed probe: a fixed piece of work whose time tracks how fast the host runs now.

The benchmark runs on a shared host whose speed drifts by up to 2-3x over
seconds to minutes, for reasons outside the program.  Every workload process
times this probe just before and just after its timed run; run.py multiplies
that repeat's times by REFERENCE_S over the probe's mean time, which gives
each time in seconds of a host running at reference speed.  The probe
mixes the two kinds of work fsimcal does (interpreted Python and small
numpy kernels) and does not touch fsimcal, so a change to the program
cannot move it.
"""

from __future__ import annotations

import os
import statistics
import struct
import time

import numpy as np

# Close to the probe's median time on the baseline machine (README.md); a
# constant, so that scaled times stay comparable across commits.
REFERENCE_S = 0.018


def _round(x: np.ndarray, w: np.ndarray) -> float:
    acc = 0.0
    for k in range(100):  # keyed generators and small draws, as in shot sampling
        rng = np.random.default_rng(np.random.SeedSequence([k, 7, 11]))
        acc += float(rng.binomial(1000, 0.3, size=8).sum())
    for _ in range(6):  # whole-grid trigonometry and transforms, as in the signal model
        x = np.fft.ifft(np.fft.fft(x) * 0.5)
        acc += float(np.sum(np.exp(1j * w) * np.sin(w) * np.cos(0.5 * w)).real)
    return acc + float(x.real[0])


def _probe(rounds: int) -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    w = rng.uniform(0.0, np.pi, 16384)
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        _round(x, w)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe(processes: int = 1, rounds: int = 7) -> float:
    """Median seconds of one round of the fixed work, averaged over `processes`
    processes that probe at the same time (a workload that keeps two cores
    busy runs at the speed of two cores)."""
    children = []
    for _ in range(processes - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child probes, reports its time and exits at once
            status = 1
            try:
                os.close(read_fd)
                os.write(write_fd, struct.pack("d", _probe(rounds)))
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = [_probe(rounds)]
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or len(data) != 8:
            raise RuntimeError("host-speed probe process failed")
        times.append(struct.unpack("d", data)[0])
    return statistics.mean(times)
