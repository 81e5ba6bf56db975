"""Memory-mapped servable model store: metadata JSON + raw ``.npy`` sidecars.

A training artifact (:mod:`repro.models.artifacts`) is one ``.npz`` file —
ideal for archival, wrong for serving: ``np.load`` on an npz *decompresses
a private copy* of every array into each reader's heap.  A *servable* is
the same model laid out for N concurrent readers::

    model.servable/
        servable.json            # envelope + per-array descriptors + the
                                 # full source-artifact metadata ("model")
        embeddings.npy           # raw np.save payloads, mmap-able
        context_embeddings.npy   # (when the method trains a W_out)

:func:`export_servable` converts a saved artifact (or a fitted estimator)
once; :meth:`ServableModel.open` then maps the sidecars with
``np.load(..., mmap_mode="r")`` — opening allocates O(metadata) regardless
of ``|V| × r``, every reader process shares one page-cache copy of the
payload, and the arrays are read-only views (a stray write raises).
Directory publication mirrors :func:`repro.utils.fileio.atomic_write_path`:
sidecars are written into a dot-prefixed temp directory that is renamed
into place, so readers never observe a half-written servable.

Trust travels with the model: the source artifact's method name, method
spec payload, dataset/proximity fingerprints and privacy spent ride along
in ``servable.json``, and ``open`` refuses (like ``Embedder.load``) to
serve a model whose method registration has since drifted.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from pathlib import Path
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any
from uuid import uuid4

import numpy as np

from ..exceptions import ArtifactError, ConfigurationError
from .engine import QueryEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..models.base import Embedder

__all__ = [
    "SERVABLE_FORMAT",
    "SERVABLE_VERSION",
    "ServableModel",
    "export_servable",
    "write_servable",
]

#: identifies our directories among arbitrary folders of .npy files
SERVABLE_FORMAT = "repro.models.servable"
#: bumped on breaking layout changes; old readers reject newer servables
SERVABLE_VERSION = 1

#: the metadata document inside a servable directory
METADATA_FILE = "servable.json"

_ARRAY_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def write_servable(
    path: str | Path,
    arrays: Mapping[str, np.ndarray],
    metadata: Mapping[str, Any],
    *,
    overwrite: bool = False,
) -> Path:
    """Lay ``arrays`` + ``metadata`` out as a servable directory at ``path``.

    ``arrays`` must contain an ``"embeddings"`` matrix; ``metadata`` is the
    source model's artifact metadata (stored verbatim under ``"model"``).
    The directory is built in a temp sibling and renamed into place, so a
    concurrent reader either sees the previous servable or the complete
    new one, never a torn mix.
    """
    path = Path(path)
    if "embeddings" not in arrays:
        raise ArtifactError("a servable needs an 'embeddings' array")
    for name, array in arrays.items():
        if not _ARRAY_NAME.match(name):
            raise ArtifactError(f"array name {name!r} is not a valid sidecar name")
        if not isinstance(array, np.ndarray):
            raise ArtifactError(
                f"servable array {name!r} must be a numpy array, got {type(array).__name__}"
            )
    if path.exists() and not overwrite:
        raise ArtifactError(f"{path} already exists; pass overwrite=True to replace it")
    tmp_dir = path.with_name(f".{path.name}.{os.getpid()}-{uuid4().hex[:8]}")
    try:
        tmp_dir.mkdir(parents=True)
        entries: dict[str, dict[str, Any]] = {}
        payload_nbytes = 0
        for name, array in arrays.items():
            filename = f"{name}.npy"
            np.save(tmp_dir / filename, np.asarray(array), allow_pickle=False)
            entries[name] = {
                "file": filename,
                "shape": [int(dim) for dim in array.shape],
                "dtype": str(array.dtype),
            }
            payload_nbytes += int(array.nbytes)
        document = {
            "format": SERVABLE_FORMAT,
            "format_version": SERVABLE_VERSION,
            "payload_nbytes": payload_nbytes,
            "arrays": entries,
            "model": dict(metadata),
        }
        (tmp_dir / METADATA_FILE).write_text(
            json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        if path.exists():
            shutil.rmtree(path)
        os.rename(tmp_dir, path)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return path


def export_servable(
    source: "str | Path | Embedder", path: str | Path, *, overwrite: bool = False
) -> Path:
    """One-shot convert ``source`` into a servable directory at ``path``.

    ``source`` is either the path of a saved ``.npz`` model artifact or a
    fitted :class:`~repro.models.Embedder`.  The conversion reads the
    payload once (export is archival → serving, not a hot path); every
    subsequent :meth:`ServableModel.open` is zero-copy.
    """
    from ..models.base import Embedder

    if isinstance(source, Embedder):
        arrays = {"embeddings": np.asarray(source.embeddings_)}
        if source.context_embeddings_ is not None:
            arrays["context_embeddings"] = np.asarray(source.context_embeddings_)
        metadata = source._artifact_metadata()
    else:
        from ..models.artifacts import load_artifact

        arrays, metadata = load_artifact(source)
    return write_servable(path, arrays, metadata, overwrite=overwrite)


class ServableModel:
    """A read-only, zero-copy view of an exported model.

    Construct via :meth:`open`; the embedding blocks are ``np.memmap``
    views backed by the sidecar files.  The views stay valid until
    :meth:`close` (or garbage collection of the model) — query engines
    built from them must not outlive the servable that produced them.
    """

    def __init__(self, path: Path, document: dict[str, Any],
                 arrays: dict[str, np.ndarray]) -> None:
        self._path = path
        self._document = document
        self._arrays = arrays

    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, path: str | Path, *, check_registry: bool = True) -> "ServableModel":
        """Map a servable directory without copying its payload.

        Raises :class:`~repro.exceptions.ArtifactError` for missing or
        foreign directories, corrupt metadata, sidecars that disagree with
        their descriptors, servables written by a newer format version,
        and (unless ``check_registry=False``) models whose method is no
        longer registered or has drifted since export.
        """
        path = Path(path)
        metadata_path = path / METADATA_FILE
        if not metadata_path.is_file():
            raise ArtifactError(f"no servable model at {path}")
        try:
            document = json.loads(metadata_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:  # repro-lint: disable=RETRY001 -- load-time translation to a typed ArtifactError; a serving process that cannot read its servable must fail loudly at startup, not retry into serving stale state
            raise ArtifactError(f"corrupt servable metadata in {path}: {exc}") from exc
        if not isinstance(document, dict) or document.get("format") != SERVABLE_FORMAT:
            raise ArtifactError(f"{path} does not contain a {SERVABLE_FORMAT} model")
        version = document.get("format_version")
        if not isinstance(version, int) or version > SERVABLE_VERSION:
            raise ArtifactError(
                f"{path} has servable version {version!r}; this build reads <= "
                f"{SERVABLE_VERSION}"
            )
        entries = document.get("arrays")
        if not isinstance(entries, dict) or "embeddings" not in entries:
            raise ArtifactError(f"{path} lists no embeddings sidecar")
        arrays: dict[str, np.ndarray] = {}
        for name, entry in entries.items():
            filename = entry.get("file", "")
            if Path(filename).name != filename:
                raise ArtifactError(f"{path} sidecar {filename!r} escapes the servable")
            sidecar = path / filename
            try:
                array = np.load(sidecar, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError) as exc:  # repro-lint: disable=RETRY001 -- mmap either succeeds or the servable is unusable; translating to a typed ArtifactError at startup beats retrying a mapping the kernel just refused
                raise ArtifactError(f"cannot map sidecar {sidecar}: {exc}") from exc
            if list(array.shape) != list(entry.get("shape", [])) or str(
                array.dtype
            ) != entry.get("dtype"):
                raise ArtifactError(
                    f"sidecar {sidecar} is {array.dtype}{array.shape}, but the "
                    f"servable metadata promises {entry.get('dtype')}"
                    f"{tuple(entry.get('shape', []))}"
                )
            arrays[name] = array
        model = cls(path, document, arrays)
        if check_registry:
            model._check_registry()
        return model

    def _check_registry(self) -> None:
        """Refuse to serve a model whose method registration has drifted."""
        method = self.metadata.get("method")
        if not method:
            return  # spec-less models (directly-constructed estimators)
        from ..models.registry import get_method

        try:
            spec = get_method(method)
        except ConfigurationError as exc:
            raise ArtifactError(
                f"{self._path} was exported from method {method!r}, which is not "
                f"registered in this process: {exc}"
            ) from exc
        stored = self.metadata.get("method_spec")
        if stored is not None and stored != spec.fingerprint_payload():
            raise ArtifactError(
                f"{self._path} was exported under a different registration of "
                f"method {method!r}; refusing to serve a drifted model "
                "(pass check_registry=False to override)"
            )

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        return self._path

    @property
    def document(self) -> dict[str, Any]:
        """The full ``servable.json`` document (envelope + model metadata)."""
        return self._document

    @property
    def metadata(self) -> dict[str, Any]:
        """The source model's artifact metadata (method, fingerprints, ...)."""
        return self._document.get("model") or {}

    @property
    def method(self) -> str | None:
        return self.metadata.get("method")

    @property
    def payload_nbytes(self) -> int:
        """Total sidecar payload size the mmap view shares (not copies)."""
        return int(self._document.get("payload_nbytes", 0))

    @property
    def embeddings(self) -> np.ndarray:
        """The ``|V| × r`` matrix as a read-only memory map."""
        try:
            return self._arrays["embeddings"]
        except KeyError:
            raise ArtifactError(f"servable {self._path} is closed") from None

    @property
    def context_embeddings(self) -> np.ndarray | None:
        return self._arrays.get("context_embeddings")

    @property
    def num_nodes(self) -> int:
        return int(self.embeddings.shape[0])

    @property
    def embedding_dim(self) -> int:
        return int(self.embeddings.shape[1])

    # ------------------------------------------------------------------ #
    def query_engine(self, **engine_kwargs: Any) -> QueryEngine:
        """Build a :class:`QueryEngine` over the mapped embeddings."""
        return QueryEngine(self.embeddings, **engine_kwargs)

    def close(self) -> None:
        """Release the memory maps (views handed out become invalid)."""
        arrays, self._arrays = self._arrays, {}
        for array in arrays.values():
            mmap_obj = getattr(array, "_mmap", None)
            if mmap_obj is not None:
                mmap_obj.close()

    def __enter__(self) -> "ServableModel":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        closed = "" if self._arrays else ", closed"
        shape = (
            f"{self._arrays['embeddings'].shape}" if "embeddings" in self._arrays else "?"
        )
        return f"ServableModel(path={str(self._path)!r}, embeddings={shape}{closed})"
