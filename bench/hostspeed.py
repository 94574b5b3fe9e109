"""Host speed, sampled while an operation runs.

On a shared virtual machine the same instructions take a varying amount of
time: the benchmark was sized on a 2-vCPU host where the CPU time of one
fixed emotions_cv operation moved between 6 and 9.3 s within two minutes,
with the hypervisor's steal share below 1%.  ``Sampler`` runs a fixed kernel
in a thread of the benchmark driver, a few milliseconds every tenth of a
second, while a child runs an operation, and records the CPU time of each
pass.  CPU time, not wall time, so that a program that keeps the cores busier
does not slow the kernel's clock and hide its own slowdown.  The kernel is
the shape of one SVRG inner step on emotions-sized data (a row product, a
logistic derivative, an outer product and an update), so it slows down the
way the program's inner loop does.  The kernel is part of the benchmark and
does not change when the program does.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# steps per pass: a pass takes about 2 ms on the sizing host
STEPS = 128
INTERVAL_S = 0.1


class Kernel:
    """A fixed SVRG-shaped loop on 256 x 72 features and 6 labels."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.X = rng.standard_normal((256, 72))
        self.Y = np.where(rng.random((256, 6)) < 0.3, 1.0, -1.0)
        self.G0 = 0.1 * rng.standard_normal((256, 6))
        self.mu = 0.01 * rng.standard_normal((72, 6))
        self.rows = rng.integers(256, size=STEPS)

    def __call__(self) -> np.ndarray:
        W = np.zeros((72, 6))
        for i in self.rows:
            x, y = self.X[i], self.Y[i]
            g = -y / (1.0 + np.exp(y * (x @ W)))
            step = np.outer(x, g - self.G0[i])
            step += self.mu
            W -= 1e-3 * step
        return W


class Sampler:
    """Times ``Kernel`` passes in a background thread between ``start`` and
    ``stop``."""

    def __init__(self):
        self.kernel = Kernel()
        self.kernel()  # warm up
        self.cpu: list[float] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _loop(self) -> None:
        while not self._stop.is_set():
            t0 = time.thread_time()
            self.kernel()
            self.cpu.append(time.thread_time() - t0)
            self._stop.wait(INTERVAL_S)

    def start(self) -> None:
        self.cpu.clear()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> dict:
        """Stop sampling; the median pass time and the sample count."""
        self._stop.set()
        self._thread.join()
        return {"pass_cpu_s": statistics.median(self.cpu), "passes": len(self.cpu)}
