"""A reference workload that runs beside the program, for the host's speed.

On a shared host the processor's speed for this process drifts by a third or
more, for seconds to minutes at a time, with other tenants' load. No
statistic over the program's own samples removes a slowdown that lasts the
whole run. So the workloads interleave fixed chunks of reference work with
the program's work, at a fixed share of its time, and express the program's
time in units of a chunk: a time at the reference speed is the measured time
times REFERENCE_CHUNK_S over the mean chunk time measured beside it.

A chunk mixes what the program does: small dense numpy kernels with a
Python-level loop around them, as the tape autodiff runs them, and dict,
list and string work, as the PENMAN and evaluation code does. It never
calls amrgen, so no change to the program changes it.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_CHUNK_S = 0.001  # a chunk's time on a quiet 2-core host of the kind measured on
PROBE_EVERY_S = 0.01  # one chunk per this much program time: a tenth of it

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((64, 64)) / 8.0
_U = _rng.standard_normal((64, 64)) / 8.0
_B = _rng.standard_normal(64) / 8.0
_TEXT = " ".join(f"w{k * 7919 % 211} :arg{k % 3} ( c{k % 37} / n{k % 53} )" for k in range(600))


def chunk() -> float:
    """One chunk of reference work; returns a checksum of it."""
    h = np.zeros(64)
    x = _B.copy()
    for _ in range(50):
        h = np.tanh(_W @ h + _U @ x + _B)
        x = 1.0 / (1.0 + np.exp(-h))
    counts = {}
    for token in _TEXT.split():
        counts[token] = counts.get(token, 0) + 1
    pairs = sorted((v, k) for k, v in counts.items())
    words = [k.upper().lower() for _, k in pairs if k[0] not in ":()/"]
    return float(h.sum()) + len(words) + sum(v for v, _ in pairs)


CHECKSUM = chunk()


class Pacer:
    """Runs a chunk after every PROBE_EVERY_S of program time it is told of,
    and keeps the chunk times."""

    def __init__(self, on: bool = True):
        self.on = on
        self.owed = 0.0
        self.times = []
        self.spent = 0.0  # seconds of all chunks so far

    def after(self, program_seconds: float) -> None:
        """Pay for program_seconds of program work. Callers that time around
        this call take off what it adds to `spent`."""
        if not self.on:
            return
        self.owed += program_seconds / PROBE_EVERY_S
        while self.owed >= 1.0:
            self.owed -= 1.0
            started = time.perf_counter()
            value = chunk()
            elapsed = time.perf_counter() - started
            if value != CHECKSUM:
                raise RuntimeError(f"reference chunk gave {value!r}, not {CHECKSUM!r}")
            self.times.append(elapsed)
            self.spent += elapsed

    def scale(self, since: int = 0) -> float:
        """REFERENCE_CHUNK_S over the mean time of the chunks from index
        `since` of `times` on: the factor that takes a time measured
        meanwhile to the reference speed; 1 when the pacer is off."""
        if not self.on:
            return 1.0
        window = self.times[since:]
        if not window:
            raise RuntimeError("no reference chunk ran in the window")
        return REFERENCE_CHUNK_S * len(window) / sum(window)
