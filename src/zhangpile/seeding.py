"""Seedable, splittable random streams.

Everything stochastic in this package derives from numpy's PCG64 via
``SeedSequence``.  Each engine takes one ``seed`` argument.
``ChainProcess``, ``stabilize_chain``, ``verify_contraction``, ``generate``,
``MarkovToppling`` and ``markov_run`` pass it once to
``np.random.default_rng``, so it may be an int, a ``SeedSequence`` or a
``Generator``; a ``Generator`` is used as it is, so that two calls given the
same one draw from one stream.  ``Coupling``, ``coupling_sweep`` and
``stabilizability_sweep`` take an int seed and spawn substreams from it, so
that runs are reproducible from a single integer:

- lattice studies: replica ``i`` of grid point ``g`` uses the spawn key
  ``(g, i)``, i.e. ``SeedSequence(seed).spawn(points)[g].spawn(replicas)[i]``;
  its start and its run draw from that one generator, in that order;
- a coupling run spawns five children of its seed, in order:
  init-A, init-B, chain-A additions, chain-B additions, shared coupled stream.

Addition-stream layout: a chain's (site, amount) additions come from one
``AdditionStream`` per generator, which draws them in chunks: first
``integers(0, n, chunk)`` sites, then ``uniform(a, b, chunk)`` amounts, and
so on chunk after chunk.  ``ChainProcess`` uses a chunk of 4096 on its own
generator; ``Coupling`` uses 8192 on each of its streams A, B and C.  Where
the compiled kernel loads and the generator is a PCG64, ``zp_fill`` in
``_drive.c`` draws each chunk instead of numpy's two calls, bit for bit: the
same sites, amounts and final generator state, so the layout is unchanged.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import chain_kernel

_LOW64 = 2**64 - 1


def substreams(seed: int | None, k: int) -> list[np.random.Generator]:
    """k independent generators derived from one seed."""
    children = np.random.SeedSequence(seed).spawn(k)
    return [np.random.default_rng(c) for c in children]


class AdditionStream:
    """Prefetched (0-based site, amount) additions of an (n,[a,b]) chain,
    whose window 0 <= a < b <= 1 the caller has checked.

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
        lib = chain_kernel()
        bits = self.rng.bit_generator
        # zp_fill takes numpy's branch for 0 < n - 1 < 2^32 - 1, and n = 1
        if lib is not None and type(bits) is np.random.PCG64 and 0 < self.n < 2**32:
            self.site_array, self.amt_array = _fill(lib, bits, self.n, self.a, self.b,
                                                    self.chunk)
        else:
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


def _fill(lib, bits: np.random.PCG64, n: int, a: float, b: float,
          m: int) -> tuple[np.ndarray, np.ndarray]:
    """``integers(0, n, m, dtype=np.int64)`` then ``uniform(a, b, m)`` of the
    generator whose PCG64 is ``bits``, drawn by ``zp_fill``; the generator's
    state moves on as numpy's calls would move it."""
    state = bits.state
    x, inc = state["state"]["state"], state["state"]["inc"]
    words = (ctypes.c_uint64 * 6)(x >> 64, x & _LOW64, inc >> 64, inc & _LOW64,
                                  state["has_uint32"], state["uinteger"])
    sites = np.empty(m, dtype=np.int64)
    amts = np.empty(m)
    lib.zp_fill(words, n, a, b, m, sites.ctypes.data, amts.ctypes.data)
    bits.state = {"bit_generator": "PCG64",
                  "state": {"state": words[0] << 64 | words[1],
                            "inc": words[2] << 64 | words[3]},
                  "has_uint32": words[4], "uinteger": words[5]}
    return sites, amts
