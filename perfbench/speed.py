"""Fixed reference probes that track how fast the host runs right now.

On a shared host the speed of one vCPU moves by up to 1.7x.  It
switches between a fast and a slow state within seconds, and compute of
every kind timed here slows down with it: a pure-Python loop and a numpy
kernel timed side by side keep their ratio within about 6 % while each
moves by 50 %.  The benchmark therefore times a probe between tasks and
reports each latency scaled to the host speed at which the probe takes
its reference time.

Each workload has its own probe, made of the same kinds of work as the
layers that dominate it, so that it slows down the way the tasks do:

- dyn-bulk: a mode x time phase array and its reduction, out of cache;
- experiment-mix: interpreter overhead, elementwise complex numpy and a
  small complex matrix product;
- dense-oracle: a complex expm and chains of sparse Kronecker products.

The probes use only Python, numpy and scipy, never ixysense, so a
change to the program cannot change them.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp

_VECTOR = np.linspace(0.0, 50.0, 1 << 17)      # 1 MiB in, 2 MiB complex out
_MATRIX = np.exp(1j * np.linspace(0.0, 7.0, 240 * 240)).reshape(240, 240)
_MODES = np.linspace(0.1, 3.0, 4096)
_TIMES = np.geomspace(0.1, 100.0, 300)          # 4096 x 300 cells, 19 MiB complex
_GENERATOR = 0.05 * np.exp(1j * np.linspace(0.0, 7.0, 160 * 160)).reshape(160, 160)
_SIGMA_X = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
_ID2 = sp.identity(2, dtype=complex, format="csr")


def _python_loop() -> None:
    total = 0
    for i in range(60_000):
        total += i * i % 7


def _vector() -> None:
    np.abs(np.exp(1j * _VECTOR)).sum()


def _matmul() -> None:
    (_MATRIX @ _MATRIX).trace()


def _phase_array() -> None:
    phases = np.exp(-1j * np.multiply.outer(_MODES, _TIMES))
    (phases.real ** 2).sum(axis=0)


def _dense() -> None:
    scipy.linalg.expm(_GENERATOR)
    for _ in range(6):
        out = _ID2
        for site in range(7):
            out = sp.kron(out, _SIGMA_X if site == 3 else _ID2, format="csr")


# Per workload: the probe's parts and its reference time, about its
# median on the 2-vCPU host the benchmark was set on.  Scaled latencies
# read as seconds on a host where the probe takes that long.
PROBES = {
    "dyn-bulk": ((_phase_array, _phase_array, _vector), 0.14),
    "experiment-mix": ((_python_loop, _vector, _matmul), 0.017),
    "dense-oracle": ((_dense, _python_loop), 0.040),
}


class Probe:
    """The probe of one workload."""

    def __init__(self, workload: str):
        self.parts, self.ref_s = PROBES[workload]

    def __call__(self) -> tuple[float, float]:
        """Time one fixed unit of reference work: (midpoint, wall time)."""
        start = time.perf_counter()
        for part in self.parts:
            part()
        end = time.perf_counter()
        return (start + end) / 2, end - start

    def scaled(self, spans: list[tuple[float, float]],
               probes: list[tuple[float, float]]) -> list[float]:
        """The lengths of (start, end) spans at the reference host speed.

        `probes` are (midpoint, wall time) pairs in time order, with one
        timed before and one after every span.  A span is scaled by the
        mean probe time within one span length of it, and at least the
        probes just before and just after it.  The host switches between
        a fast and a slow state within seconds: a short span then takes
        the state of the probes beside it, and a long one, which lives
        through many switches, the mean of the many probes around it.
        """
        ats = [at for at, _ in probes]
        out = []
        for start, end in spans:
            length = end - start
            before = bisect.bisect_left(ats, start)
            after = bisect.bisect_right(ats, end)
            if before == 0 or after == len(ats):
                raise ValueError("need a probe before and after every span")
            lo = min(bisect.bisect_left(ats, start - length), before - 1)
            hi = max(bisect.bisect_right(ats, end + length), after + 1)
            near = [seconds for _, seconds in probes[lo:hi]]
            out.append(length * self.ref_s * len(near) / sum(near))
        return out
