"""The Gaussian noise source of the perturbation strategies, with prefetch.

Eq. (9) adds ``σ·C`` Gaussian noise to every touched gradient row: about
400k float64 draws per step at 20k nodes, the largest single cost of a
private step.  ``Generator.standard_normal(out=...)`` releases the GIL, so
those draws can run on another core while the step samples and computes
its gradients.

:class:`NoiseRing` owns the perturbation's SFC64 generator
(:func:`noise_generator`) and a ring of float64 blocks.  Consumers read
standard normals from the blocks strictly in stream order and scale them
by their std (:meth:`NoiseRing.fill`).  While
:meth:`NoiseRing.prefetching` is active, a filler thread refills every
block the consumer has finished with; otherwise the consumer fills the
next block itself when it runs dry.  Who fills changes nothing else: the
values are the generator's ``standard_normal`` stream in order, byte for
byte what inline draws from the same generator would give (chunked fills
concatenate bit-identically to one fill).  Blocks filled but not yet read
stay queued, so a later consumer continues the exact stream.

Lifecycle: the filler is started and joined by its owner (the engine's
``PerturbedUpdate`` does it around each run, in a ``finally``), so no
thread outlives a run — in particular none is alive when hogwild or the
experiment orchestrator forks.  An exception in the filler is re-raised
in the consuming thread the next time it needs a block, and on every
later read or prefetch: the block it was filling is lost, so the stream
cannot continue.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from ..analysis.markers import zero_alloc
from ..exceptions import ConfigurationError
from ..utils.rng import ensure_rng

__all__ = ["NoiseRing", "noise_generator", "BLOCK_SIZE", "RING_DEPTH"]

#: standard normals per ring block (2 MiB of float64)
BLOCK_SIZE = 1 << 18
#: blocks in the ring, the one being read included (8 MiB in total)
RING_DEPTH = 4


def noise_generator(
    seed: int | np.random.Generator | np.random.SeedSequence | None = None,
) -> np.random.Generator:
    """The SFC64 generator a :class:`NoiseRing` reads, seeded by one draw.

    SFC64 draws a float64 standard normal faster than the PCG64 of
    ``default_rng`` (9.8 against 12.1 ns, medians of 2 MiB blocks on one
    x86-64 core), and the ring draws ~400k per private step.  Its seed is
    one 63-bit draw from ``ensure_rng(seed)``: the same seed gives the same
    bytes, distinct spawned children (``rng.spawn(1)[0]``) give distinct
    streams, and a generator handed in moves on by that draw, so two rings
    handed one generator read different noise, and a generator restored
    to an earlier state gives that state's noise again.
    """
    draw = int(ensure_rng(seed).integers(0, 2**63 - 1))
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(draw)))


class NoiseRing:
    """Standard normals from one generator, read in order from a block ring.

    Parameters
    ----------
    seed:
        Seed or generator of the noise stream: one draw from it seeds the
        SFC64 generator the ring owns (:func:`noise_generator`).

    The ring holds :data:`RING_DEPTH` blocks of :data:`BLOCK_SIZE` draws.
    """

    def __init__(
        self, seed: int | np.random.Generator | np.random.SeedSequence | None = None
    ) -> None:
        self._rng = noise_generator(seed)
        self._block_size = BLOCK_SIZE
        self._blocks = [np.empty(self._block_size) for _ in range(RING_DEPTH)]
        self._free: deque[int] = deque(range(RING_DEPTH))
        self._full: deque[int] = deque()
        self._current = -1  # block being read; -1 before the first read
        self._pos = self._block_size
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._error: BaseException | None = None

    # ------------------------------------------------------------------ #
    @zero_alloc
    def fill(self, out: np.ndarray, std: float) -> np.ndarray:
        """Overwrite ``out`` with ``std`` × the next ``out.size`` standard normals.

        ``out`` must be a C-contiguous float64 array; it is returned.
        """
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ConfigurationError("noise must land in a C-contiguous float64 array")
        flat = out.reshape(-1)
        need = flat.shape[0]
        done = 0
        while done < need:
            if self._pos == self._block_size:
                self._advance()
            take = min(need - done, self._block_size - self._pos)
            block = self._blocks[self._current]
            np.multiply(
                block[self._pos : self._pos + take], std, out=flat[done : done + take]
            )
            self._pos += take
            done += take
        return out

    def draw(self, shape: int | tuple[int, ...], std: float) -> np.ndarray:
        """A fresh float64 array of ``std`` × the next standard normals."""
        return self.fill(np.empty(shape), std)

    def _advance(self) -> None:
        """Hand the exhausted block back and make the next filled one current."""
        with self._cond:
            if self._current >= 0:
                self._free.append(self._current)
                self._current = -1  # handed back: never queue it twice
                self._cond.notify_all()
            while not self._full:
                if self._error is not None:
                    raise self._error
                if self._thread is None:
                    # no filler running: fill the next block in this thread
                    index = self._free.popleft()
                    self._rng.standard_normal(out=self._blocks[index])
                    self._full.append(index)
                else:
                    self._cond.wait()
            self._current = self._full.popleft()
            self._pos = 0

    # ------------------------------------------------------------------ #
    @contextmanager
    def prefetching(self) -> Iterator[NoiseRing]:
        """Fill blocks on a background thread for the duration of the block.

        The thread is stopped and joined on exit, however the block exits;
        blocks it filled but nobody read stay queued for the next reader.
        """
        if self._thread is not None:
            raise ConfigurationError("the noise filler is already running")
        if self._error is not None:
            raise self._error  # a lost block: the stream cannot continue
        self._stopping = False
        thread = threading.Thread(
            target=self._fill_loop, name="repro-noise-filler", daemon=True
        )
        thread.start()  # a failed start leaves the ring filling synchronously
        self._thread = thread
        try:
            yield self
        finally:
            with self._cond:
                self._stopping = True
                self._cond.notify_all()
            thread.join()
            self._thread = None

    def _fill_loop(self) -> None:
        cond = self._cond
        while True:
            with cond:
                while not self._free and not self._stopping:
                    cond.wait()
                if self._stopping:
                    return
                index = self._free.popleft()
            try:
                self._rng.standard_normal(out=self._blocks[index])
            except BaseException as exc:  # re-raised in the consuming thread
                with cond:
                    self._error = exc
                    cond.notify_all()
                return
            with cond:
                self._full.append(index)
                cond.notify_all()
