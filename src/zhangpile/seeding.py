"""Seedable, splittable random streams.

Everything stochastic in this package derives from numpy's PCG64 via
``SeedSequence``.  Substream layout, so that runs are reproducible from a
single integer seed:

- lattice studies: replica ``i`` of grid point ``g`` uses the spawn key
  ``(g, i)``, i.e. ``SeedSequence(seed).spawn(points)[g].spawn(replicas)[i]``;
- a coupling run spawns five children of its seed, in order:
  init-A, init-B, chain-A additions, chain-B additions, shared coupled stream.

Addition-stream layout: a chain's (site, amount) additions come from one
``AdditionStream`` per generator, which draws them in chunks: first
``integers(0, n, chunk)`` sites, then ``uniform(a, b, chunk)`` amounts, and
so on chunk after chunk.  ``ChainProcess`` uses a chunk of 4096 on its own
generator; ``Coupling`` uses 8192 on each of its streams A, B and C.
"""

from __future__ import annotations

import numpy as np


def substreams(seed: int | None, k: int) -> list[np.random.Generator]:
    """k independent generators derived from one seed."""
    children = np.random.SeedSequence(seed).spawn(k)
    return [np.random.default_rng(c) for c in children]


class AdditionStream:
    """Prefetched (0-based site, amount) additions of an (n,[a,b]) chain.

    ``site_array``/``amt_array`` hold the chunk as int64/float64 arrays,
    which the compiled kernel reads in place.  Python loops read the stream
    through ``draw()``, which indexes the same chunk as lists, built on its
    first draw; only the kernel glue reads ``pos`` and calls ``refill()``.
    """

    __slots__ = ("rng", "n", "a", "b", "chunk", "pos", "site_array", "amt_array",
                 "_sites", "_amts")

    def __init__(self, rng: np.random.Generator, n: int, a: float, b: float,
                 chunk: int):
        self.rng = rng
        self.n = n
        self.a = a
        self.b = b
        self.chunk = chunk
        self.pos = 0
        self.site_array = np.empty(0, dtype=np.int64)
        self.amt_array = np.empty(0)
        self._sites = self._amts = None

    def refill(self) -> None:
        self.site_array = self.rng.integers(0, self.n, self.chunk, dtype=np.int64)
        self.amt_array = self.rng.uniform(self.a, self.b, self.chunk)
        self._sites = self._amts = None
        self.pos = 0

    def draw(self) -> tuple[int, float]:
        i = self.pos
        if i >= self.site_array.size:
            self.refill()
            i = 0
        if self._sites is None:
            self._sites, self._amts = self.site_array.tolist(), self.amt_array.tolist()
        self.pos = i + 1
        return self._sites[i], self._amts[i]
