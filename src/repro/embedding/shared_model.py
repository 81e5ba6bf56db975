"""Shared-memory backed skip-gram model for hogwild training.

:class:`SharedSkipGramModel` is a :class:`~repro.embedding.skipgram.SkipGramModel`
whose two matrices live in ``multiprocessing.shared_memory`` blocks instead
of private heap pages.  Forked hogwild workers therefore see — and update,
through the in-place ``descend*`` scatter writes of
:class:`~repro.embedding.optimizer.SGDOptimizer` — the *same* physical
parameters, with no per-worker copy and no gradient shipping.

Lifecycle contract (the part shared memory makes easy to get wrong):

* exactly one process — the creator — owns the blocks and ``unlink``\\ s
  them; every process (owner included) ``close``\\ s its own mapping;
* :meth:`release` is the deterministic cleanup: it copies the current
  values into ordinary private arrays (so the model object stays usable
  after training) and then closes + unlinks the blocks;
* a ``weakref.finalize`` backstop runs the same cleanup at garbage
  collection if :meth:`release` was never reached (e.g. the training loop
  raised before its ``finally``), so segments cannot leak into
  ``/dev/shm`` past the owner's lifetime;
* forked children inherit the finalizer registry, so cleanup is guarded by
  the creating PID — a worker exiting must never unlink blocks the parent
  is still training on.

The constructor draws its initial weights through the *parent class*
first and then copies them into the blocks, so the RNG stream is
bit-identical to a plain :class:`SkipGramModel` with the same seed — the
property the workers=1 shared-memory parity test pins.
"""

from __future__ import annotations

import os
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..exceptions import TrainingError
from .skipgram import SkipGramModel

__all__ = ["SharedModelHandle", "SharedSkipGramModel", "SHARED_SEGMENT_PREFIX"]

#: name prefix of every segment this module creates — the CI leak check
#: greps ``/dev/shm`` for it after a training run
SHARED_SEGMENT_PREFIX = "repro_hw_"


def _allocate_block(nbytes: int) -> shared_memory.SharedMemory:
    """Create a fresh named shared-memory block (collision-retried)."""
    for _ in range(16):
        name = SHARED_SEGMENT_PREFIX + secrets.token_hex(8)
        try:
            return shared_memory.SharedMemory(create=True, size=int(nbytes), name=name)
        except FileExistsError:  # pragma: no cover - 64-bit token collision
            continue
    raise TrainingError("could not allocate a shared-memory block (name collisions)")


def _cleanup_blocks(
    blocks: tuple[shared_memory.SharedMemory, ...], owner_pid: int | None
) -> None:
    """Close (and, in the owning process, unlink) the given blocks.

    Unlink happens first and unconditionally succeeds-or-is-gone: even if a
    lingering ndarray view keeps the mapping pinned (``close`` then raises
    ``BufferError``), the *name* is removed so nothing leaks in
    ``/dev/shm`` — the memory itself is freed when the last view dies.
    """
    unlink = owner_pid is not None and os.getpid() == owner_pid
    for block in blocks:
        if unlink:
            try:
                block.unlink()
            except FileNotFoundError:
                pass
        try:
            block.close()
        except BufferError:  # pragma: no cover - views still exported
            pass


@dataclass(frozen=True)
class SharedModelHandle:
    """Picklable descriptor of a shared model's two memory blocks.

    Enough to :meth:`SharedSkipGramModel.attach` from *any* process that
    can see the segments — fork workers normally just inherit the model
    object, but the handle keeps the subsystem usable from spawned
    processes and makes the wiring testable without a pool.
    """

    w_in_name: str
    w_out_name: str
    num_nodes: int
    embedding_dim: int
    dtype: str


class SharedSkipGramModel(SkipGramModel):
    """A skip-gram model whose matrices live in shared memory.

    Construction is exactly :class:`SkipGramModel` (same arguments, same
    RNG draws) followed by moving both matrices into freshly created
    shared blocks.  The creating process owns the blocks; see the module
    docstring for the cleanup contract.
    """

    def __init__(
        self,
        num_nodes: int,
        embedding_dim: int,
        init_scale: float | None = None,
        seed: int | np.random.Generator | None = None,
        dtype=np.float64,
    ) -> None:
        super().__init__(
            num_nodes, embedding_dim, init_scale=init_scale, seed=seed, dtype=dtype
        )
        self._shm_in = _allocate_block(self.w_in.nbytes)
        self._shm_out = _allocate_block(self.w_out.nbytes)
        shape = (self.num_nodes, self.embedding_dim)
        shared_in = np.ndarray(shape, dtype=self.dtype, buffer=self._shm_in.buf)
        shared_out = np.ndarray(shape, dtype=self.dtype, buffer=self._shm_out.buf)
        shared_in[:] = self.w_in
        shared_out[:] = self.w_out
        self.w_in = shared_in
        self.w_out = shared_out
        self._install_lifecycle(owner=True)

    # ------------------------------------------------------------------ #
    def _install_lifecycle(self, owner: bool) -> None:
        self._released = False
        self._owner = bool(owner)
        self._owner_pid = os.getpid() if owner else None
        self._finalizer = weakref.finalize(
            self, _cleanup_blocks, (self._shm_in, self._shm_out), self._owner_pid
        )

    @classmethod
    def attach(cls, handle: SharedModelHandle) -> "SharedSkipGramModel":
        """Map an existing shared model's blocks (zero-copy, non-owning)."""
        from ..engine.workspace import resolve_compute_dtype

        model = object.__new__(cls)
        model.num_nodes = int(handle.num_nodes)
        model.embedding_dim = int(handle.embedding_dim)
        model.dtype = resolve_compute_dtype(handle.dtype)
        model._shm_in = shared_memory.SharedMemory(name=handle.w_in_name)
        model._shm_out = shared_memory.SharedMemory(name=handle.w_out_name)
        shape = (model.num_nodes, model.embedding_dim)
        model.w_in = np.ndarray(shape, dtype=model.dtype, buffer=model._shm_in.buf)
        model.w_out = np.ndarray(shape, dtype=model.dtype, buffer=model._shm_out.buf)
        model._install_lifecycle(owner=False)
        return model

    # ------------------------------------------------------------------ #
    @property
    def handle(self) -> SharedModelHandle:
        """Picklable descriptor for :meth:`attach` in another process."""
        if self._released:
            raise TrainingError("shared model already released; its blocks are gone")
        return SharedModelHandle(
            w_in_name=self._shm_in.name,
            w_out_name=self._shm_out.name,
            num_nodes=self.num_nodes,
            embedding_dim=self.embedding_dim,
            dtype=self.dtype.name,
        )

    @property
    def released(self) -> bool:
        """``True`` once :meth:`release` ran (matrices are private again)."""
        return self._released

    def release(self) -> None:
        """Copy the matrices to private memory, close and (owner) unlink.

        Idempotent.  After release the model behaves like a plain
        :class:`SkipGramModel` holding the final trained values — callers
        keep reading ``model.w_in`` / ``embeddings()`` as usual.
        """
        if self._released:
            return
        self._released = True
        self._finalizer.detach()
        # rebinding drops the last ndarray views of the buffers, so close()
        # below can release the mappings
        self.w_in = np.array(self.w_in, dtype=self.dtype, copy=True)
        self.w_out = np.array(self.w_out, dtype=self.dtype, copy=True)
        _cleanup_blocks((self._shm_in, self._shm_out), self._owner_pid)

    def __repr__(self) -> str:
        state = "released" if self._released else (
            "owner" if self._owner else "attached"
        )
        return (
            f"SharedSkipGramModel(num_nodes={self.num_nodes}, "
            f"embedding_dim={self.embedding_dim}, {state})"
        )
