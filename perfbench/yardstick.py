"""A fixed reference computation, timed beside the ops to read the speed
of the machine at that moment.

On a virtual machine that shares its cores, the same op runs up to 1.9x
slower while a neighbour is busy, and busy spells last from seconds to
minutes, so a run's median op time says as much about the neighbours as
about the program.  The yardstick is timed before and after each group
of ops; an op's time divided by the mean of the two is its cost in
yardsticks, which moves with the program much more than with the host.

The yardstick is the benchmark's own code and never calls the package,
so a change to the package moves the ratio and not the yardstick.  Its
parts stand for the kinds of work the ops do; each workload names the
parts that match its own mix.
"""

from __future__ import annotations

import time

import numpy as np

SEED = 20190905


class Yardstick:
    """Times a fixed set of parts; ``time()`` returns their wall time."""

    PARTS = ("python", "linalg", "memory", "gram")

    def __init__(self, parts: tuple[str, ...]):
        unknown = set(parts) - set(self.PARTS)
        if not parts or unknown:
            raise ValueError(f"yardstick parts must be among {self.PARTS}, got {parts}")
        self.parts = [getattr(self, part) for part in parts]
        rng = np.random.default_rng(SEED)
        self.a = 0.3 * rng.standard_normal((6, 6))
        self.b = rng.standard_normal((6, 3))
        self.u = rng.standard_normal((6000, 3))
        self.m = rng.standard_normal((60, 60))
        # Made only for the parts that use them, so that the peak resident
        # set of the workloads without those parts does not carry them.
        self.x = rng.standard_normal((20000, 48)) if "memory" in parts else None
        self.g = rng.standard_normal((16384, 80)) if "gram" in parts else None

    def python(self) -> None:
        """A state recursion one sample at a time: interpreter-bound, like
        ``simulate`` and ``run_predictor``."""
        x = np.zeros(6)
        for u in self.u:
            x = self.a @ x + self.b @ u

    def linalg(self) -> None:
        """Small dense decompositions, like the H-infinity bisection, the
        envelope scan and balanced truncation."""
        for _ in range(10):
            np.linalg.svd(self.m)
            np.linalg.eigvals(self.m)

    def memory(self) -> None:
        """A Gram matrix and elementwise passes over 7.7 MB, like the
        ridge fit's regressor matrix."""
        for _ in range(4):
            self.x.T @ self.x
            self.x * 1.5 + self.x

    def gram(self) -> None:
        """Gram products of a tall 10 MB matrix, like the ridge fit's
        normal equations at a long lag order."""
        for _ in range(3):
            self.g.T @ self.g

    def time(self) -> float:
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start
