"""Persistent privacy ledger: durable (ε, δ) accounting across a lineage.

The in-process :class:`RdpAccountant` dies with the process, which makes
"retrain nightly on the updated graph" silently reset ε to zero.  The
ledger is the durable record: a per-dataset append-only JSONL file — a
canonical-JSON header line followed by one canonical-JSON record per line
— holding two kinds of entries:

* ``delta`` — the dataset lineage: *old graph fingerprint → new graph
  fingerprint* through an :class:`~repro.streaming.EdgeDelta` fingerprint.
  The chain pins exactly which sequence of graphs the spent budget refers
  to; a fit against a graph that is not the current lineage head is
  refused (it would be accounting against the wrong neighbouring-database
  relation).
* ``fit`` — one private training run: mechanism parameters
  ``(noise_multiplier, sampling_rate)``, the step count, and the (ε, δ)
  reported at completion.

Entries are hash-chained (each carries the hash of its predecessor), so a
truncated, reordered, or edited ledger fails verification at load time.

Durability (PR 10).  Appends are O(1): one line is appended and fsync'd by
the OS rather than rewriting the whole document, so the ledger scales to
long lineages.  The failure modes are typed: a process killed mid-append
leaves a *torn tail* — a final line that is not valid JSON while the chain
before it verifies — which loading reports as
:class:`~repro.exceptions.LedgerTornError`; re-opening with
``PrivacyLedger(path, repair=True)`` truncates the torn tail (atomic full
rewrite) under a :class:`LedgerRepairWarning`.  Corruption anywhere *else*
stays a hard :class:`~repro.exceptions.PrivacyError` — only the
last-line-torn signature is recoverable, because only there can "killed
mid-append" be distinguished from tampering.  Version-1 whole-document
ledgers load transparently and are migrated to the JSONL form on their
next append.

Composition is exact, not additive-in-ε: the cumulative guarantee is
recomputed from the raw entries by summing RDP curves on a shared α grid
— ``total_steps(σ, γ) × per_step_curve(σ, γ)`` per parameter group,
composed with :func:`~repro.privacy.rdp.compose_rdp` — which makes the
ledger total over K refits of T steps *bit-identical* to one
:class:`RdpAccountant` stepped K·T times.  ``would_exceed`` /
``remaining_steps`` answer the admission question **before** a refit
spends anything, and :meth:`attach` marks a live accountant as
ledger-bound so its ``reset()`` (which would fork the record) is refused.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from ..exceptions import LedgerTornError, PrivacyBudgetExhausted, PrivacyError
from ..robustness.faults import get_active_plan
from ..utils.fileio import atomic_write_path
from .accountant import PrivacySpent, RdpAccountant, max_steps_within
from .rdp import DEFAULT_ALPHA_GRID, _validate_alphas, compose_rdp, rdp_to_dp
from .subsampling import subsampled_gaussian_rdp_curve

__all__ = [
    "LEDGER_FORMAT",
    "LEDGER_VERSION",
    "LedgerRepairWarning",
    "PrivacyLedger",
]

LEDGER_FORMAT = "repro.privacy.ledger"
LEDGER_VERSION = 2

#: parent pointer of the first entry in a chain
_GENESIS = "genesis"


class LedgerRepairWarning(UserWarning):
    """A torn ledger tail was truncated under explicit ``repair=True``."""


def _canonical(payload: dict[str, Any]) -> str:
    """One canonical-JSON line (sorted keys, no whitespace, no newline)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fingerprint_of(dataset: object) -> str:
    """Resolve a dataset argument to a content fingerprint string.

    Accepts a fingerprint directly or anything with a
    ``content_fingerprint()`` method (e.g. :class:`repro.Graph` — duck
    typed so the typed privacy core does not depend on the graph stack).
    """
    if isinstance(dataset, str):
        return dataset
    method = getattr(dataset, "content_fingerprint", None)
    if callable(method):
        return str(method())
    raise PrivacyError(
        "dataset must be a fingerprint string or an object with a "
        f"content_fingerprint() method, got {type(dataset).__name__}"
    )


def _entry_hash(entry: dict[str, Any]) -> str:
    """Content hash of one entry (excluding its own ``entry_hash`` field)."""
    payload = {key: value for key, value in entry.items() if key != "entry_hash"}
    digest = hashlib.sha256()
    digest.update(b"repro-ledger-entry-v1")
    digest.update(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    return digest.hexdigest()[:32]


class PrivacyLedger:
    """Append-only, hash-chained record of privacy spend for one lineage.

    Parameters
    ----------
    path:
        The ledger file.  A missing file is an empty ledger; the file is
        created on the first append.
    alphas:
        Rényi orders of the shared composition grid.  Every accountant
        attached to (or recorded into) this ledger must use the identical
        grid — curve addition across grids would be meaningless.
    repair:
        Opt-in recovery of a *torn tail* (the file's final record line is
        incomplete — the signature of a writer killed mid-append): the
        torn tail is truncated with a :class:`LedgerRepairWarning` and the
        verified prefix is kept.  ``False`` (default) raises
        :class:`~repro.exceptions.LedgerTornError` instead, so silent data
        loss needs an explicit decision.  Corruption that is not a torn
        tail always raises, regardless of ``repair``.
    """

    def __init__(
        self,
        path: str | Path,
        alphas: Sequence[float] = DEFAULT_ALPHA_GRID,
        *,
        repair: bool = False,
    ) -> None:
        self.path = Path(path)
        self.alphas = _validate_alphas(alphas)
        self.repair = bool(repair)
        self._entries: list[dict[str, Any]] = []
        self._loaded_version = LEDGER_VERSION
        if self.path.exists():
            self._load()

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        try:
            raw = self.path.read_text()
        except OSError as exc:  # repro-lint: disable=RETRY001 -- load is a read-only startup path; the caller decides whether opening the ledger again is meaningful, a blind retry here would just mask a dead disk
            raise PrivacyError(f"cannot read privacy ledger {self.path}: {exc}") from exc
        # a v1 ledger (or a v2 header-only file) is one whole JSON document;
        # anything multi-line lands in the JSONL path below
        try:
            document = json.loads(raw)
        except json.JSONDecodeError:
            document = None
        if document is not None:
            if not isinstance(document, dict) or document.get("format") != LEDGER_FORMAT:
                raise PrivacyError(
                    f"{self.path} is not a privacy ledger (missing format marker)"
                )
            version = document.get("version")
            if version == LEDGER_VERSION:
                self._entries = []  # a freshly-written v2 header, no records yet
                return
            if version != 1:
                raise PrivacyError(
                    f"unsupported ledger version {version!r} in {self.path}"
                )
            entries = document.get("entries")
            if not isinstance(entries, list):
                raise PrivacyError(
                    f"malformed ledger {self.path}: entries must be a list"
                )
            self._entries = self._verify_chain(entries)
            self._loaded_version = 1  # migrated to JSONL on the next append
            return
        self._load_jsonl(raw)

    def _load_jsonl(self, raw: str) -> None:
        lines = [
            (number, line)
            for number, line in enumerate(raw.splitlines(), start=1)
            if line.strip()
        ]
        try:
            header = json.loads(lines[0][1])
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict) or header.get("format") != LEDGER_FORMAT:
            raise PrivacyError(
                f"{self.path} is not a privacy ledger (missing format marker)"
            )
        if header.get("version") != LEDGER_VERSION:
            raise PrivacyError(
                f"unsupported ledger version {header.get('version')!r} in {self.path}"
            )
        entries: list[dict[str, Any]] = []
        torn: tuple[int, str] | None = None
        for position, (number, line) in enumerate(lines[1:]):
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict):
                    raise ValueError("record is not a JSON object")
            except (json.JSONDecodeError, ValueError) as exc:
                if position == len(lines) - 2:  # the file's final record line
                    torn = (number, line)
                    break
                raise PrivacyError(
                    f"malformed ledger {self.path}: line {number} is not a "
                    f"valid record ({exc})"
                ) from exc
            entries.append(entry)
        # the prefix must verify even when the tail is torn: a torn tail is
        # recoverable precisely because everything before it is provably
        # intact — a broken chain is tampering, not a crash signature
        verified = self._verify_chain(entries)
        if torn is not None:
            if not self.repair:
                raise LedgerTornError(
                    f"torn write detected in {self.path}: line {torn[0]} is an "
                    f"incomplete record ({len(torn[1])} bytes) — the writer was "
                    "likely killed mid-append. The chain before it is intact; "
                    "re-open with PrivacyLedger(path, repair=True) to truncate "
                    "the torn tail."
                )
            warnings.warn(
                LedgerRepairWarning(
                    f"truncating torn tail of {self.path} (line {torn[0]}, "
                    f"{len(torn[1])} bytes); {len(verified)} verified entries kept"
                ),
                stacklevel=3,
            )
            self._entries = verified
            self._rewrite()
            return
        self._entries = verified

    def _verify_chain(self, entries: list[Any]) -> list[dict[str, Any]]:
        expected_parent = _GENESIS
        verified: list[dict[str, Any]] = []
        for position, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise PrivacyError(
                    f"malformed ledger {self.path}: entry {position} is not an object"
                )
            if entry.get("parent") != expected_parent:
                raise PrivacyError(
                    f"broken hash chain in {self.path} at entry {position}: "
                    f"parent {entry.get('parent')!r} != expected {expected_parent!r} "
                    "(truncated, reordered, or edited ledger)"
                )
            recomputed = _entry_hash(entry)
            if entry.get("entry_hash") != recomputed:
                raise PrivacyError(
                    f"tampered ledger {self.path}: entry {position} hash "
                    f"{entry.get('entry_hash')!r} does not match its content"
                )
            expected_parent = recomputed
            verified.append(entry)
        return verified

    def _rewrite(self) -> None:
        """Atomic full rewrite in the JSONL form (migration / repair)."""
        lines = [_canonical({"format": LEDGER_FORMAT, "version": LEDGER_VERSION})]
        lines.extend(_canonical(entry) for entry in self._entries)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write_path(self.path) as tmp_path:
            tmp_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self._loaded_version = LEDGER_VERSION

    def _append(self, entry: dict[str, Any]) -> dict[str, Any]:
        entry = dict(entry)
        entry["parent"] = self.head_hash
        entry["entry_hash"] = _entry_hash(entry)
        if self._loaded_version != LEDGER_VERSION or not self.path.exists():
            # first write of a new ledger, or the one-time migration of a
            # v1 whole-document file: atomic full rewrite
            self._entries.append(entry)
            self._rewrite()
            return entry
        line = _canonical(entry)
        with self.path.open("a", encoding="utf-8") as fh:
            half = len(line) // 2
            fh.write(line[:half])
            # the ledger.append fault point sits mid-record: a crash rule
            # here provably tears the line on disk (the head is flushed
            # first), which is what the torn-tail recovery drill relies on.
            # Without an active plan the byte stream is identical.
            plan = get_active_plan()
            if plan is not None:
                fh.flush()
                plan.hit("ledger.append", path=str(self.path))
            fh.write(line[half:])
            fh.write("\n")
        self._entries.append(entry)
        return entry

    # ------------------------------------------------------------------ #
    # chain / lineage state
    # ------------------------------------------------------------------ #
    @property
    def entries(self) -> list[dict[str, Any]]:
        """A copy of all verified entries, oldest first."""
        return [dict(entry) for entry in self._entries]

    @property
    def head_hash(self) -> str:
        """Hash of the newest entry (``"genesis"`` for an empty ledger)."""
        if not self._entries:
            return _GENESIS
        return str(self._entries[-1]["entry_hash"])

    @property
    def dataset_fingerprint(self) -> str | None:
        """Fingerprint of the current lineage head (``None`` when empty)."""
        for entry in reversed(self._entries):
            fingerprint = entry.get("dataset_fingerprint")
            if fingerprint is not None:
                return str(fingerprint)
        return None

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #
    def record_delta(
        self, old_dataset: object, new_dataset: object, delta: object
    ) -> dict[str, Any]:
        """Advance the lineage: ``old_dataset`` evolved into ``new_dataset``.

        ``delta`` may be an :class:`~repro.streaming.EdgeDelta` (its
        fingerprint and batch sizes are recorded) or a fingerprint string.
        The old fingerprint must match the current lineage head.
        """
        old_fp = _fingerprint_of(old_dataset)
        new_fp = _fingerprint_of(new_dataset)
        current = self.dataset_fingerprint
        if current is not None and old_fp != current:
            raise PrivacyError(
                f"lineage break: delta starts from {old_fp} but the ledger head "
                f"is {current}; record intermediate deltas in order"
            )
        entry: dict[str, Any] = {
            "kind": "delta",
            "parent_dataset_fingerprint": old_fp,
            "dataset_fingerprint": new_fp,
        }
        if isinstance(delta, str):
            entry["delta_fingerprint"] = delta
        else:
            fingerprint = getattr(delta, "fingerprint", None)
            if not callable(fingerprint):
                raise PrivacyError(
                    "delta must be an EdgeDelta or a fingerprint string, got "
                    f"{type(delta).__name__}"
                )
            entry["delta_fingerprint"] = str(fingerprint())
            for attribute in ("num_inserts", "num_deletes", "num_nodes"):
                value = getattr(delta, attribute, None)
                if value is not None:
                    entry[attribute] = int(value)
        return self._append(entry)

    def record_fit(
        self,
        dataset: object,
        *,
        method: str,
        noise_multiplier: float,
        sampling_rate: float,
        steps: int,
        delta: float,
        epsilon: float,
        target_epsilon: float | None = None,
    ) -> dict[str, Any]:
        """Record one completed private fit/refit against the lineage head."""
        fingerprint = _fingerprint_of(dataset)
        current = self.dataset_fingerprint
        if current is not None and fingerprint != current:
            raise PrivacyError(
                f"fit against dataset {fingerprint} but the ledger lineage head is "
                f"{current}; record the connecting delta(s) first"
            )
        if noise_multiplier <= 0:
            raise PrivacyError(
                f"noise_multiplier must be positive, got {noise_multiplier}"
            )
        if not 0 < sampling_rate <= 1:
            raise PrivacyError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
        if steps < 0:
            raise PrivacyError(f"steps must be non-negative, got {steps}")
        if not 0 < delta < 1:
            raise PrivacyError(f"delta must be in (0, 1), got {delta}")
        entry: dict[str, Any] = {
            "kind": "fit",
            "dataset_fingerprint": fingerprint,
            "method": str(method),
            "noise_multiplier": float(noise_multiplier),
            "sampling_rate": float(sampling_rate),
            "steps": int(steps),
            "delta": float(delta),
            "epsilon": float(epsilon),
        }
        if target_epsilon is not None:
            entry["target_epsilon"] = float(target_epsilon)
        return self._append(entry)

    def record_accountant(
        self,
        dataset: object,
        accountant: RdpAccountant,
        *,
        method: str,
        delta: float,
        target_epsilon: float | None = None,
    ) -> dict[str, Any]:
        """Record a fit straight from a live accountant's state."""
        self._check_grid(accountant)
        spent = accountant.get_privacy_spent(delta)
        return self.record_fit(
            dataset,
            method=method,
            noise_multiplier=accountant.noise_multiplier,
            sampling_rate=accountant.sampling_rate,
            steps=accountant.steps,
            delta=delta,
            epsilon=spent.epsilon,
            target_epsilon=target_epsilon,
        )

    # ------------------------------------------------------------------ #
    # composition
    # ------------------------------------------------------------------ #
    def _fit_groups(self) -> dict[tuple[float, float], int]:
        """Total step count per (noise_multiplier, sampling_rate) group."""
        groups: dict[tuple[float, float], int] = {}
        for entry in self._entries:
            if entry.get("kind") != "fit":
                continue
            key = (float(entry["noise_multiplier"]), float(entry["sampling_rate"]))
            groups[key] = groups.get(key, 0) + int(entry["steps"])
        return groups

    def total_rdp(self) -> np.ndarray:
        """The composed RDP curve of every recorded fit, on ``self.alphas``.

        Composition is linear in the step count at fixed mechanism
        parameters, so each parameter group contributes
        ``total_steps × per_step_curve`` — exactly the multiplicative form
        :meth:`RdpAccountant.step` maintains, which is what makes ledger
        totals bit-identical to a single long-lived accountant.
        """
        groups = self._fit_groups()
        curves = [
            steps * subsampled_gaussian_rdp_curve(nm, rate, self.alphas)
            for (nm, rate), steps in sorted(groups.items())
            if steps > 0
        ]
        if not curves:
            return np.zeros_like(self.alphas)
        return compose_rdp(curves)

    def total_steps(self) -> int:
        """Total recorded private steps across all fits."""
        return sum(self._fit_groups().values())

    def total_spent(self, delta: float | None = None) -> PrivacySpent:
        """Cumulative (ε, δ) over the whole ledger.

        ``delta`` defaults to the δ of the most recent fit entry; a ledger
        with no fits reports ε = 0.
        """
        if delta is None:
            delta = self._default_delta()
        steps = self.total_steps()
        if steps == 0:
            target = float(delta) if delta is not None else float("nan")
            return PrivacySpent(epsilon=0.0, delta=target, best_alpha=float("nan"), steps=0)
        if delta is None:
            raise PrivacyError("delta is required: the ledger has no fit to take it from")
        epsilon, best_alpha = rdp_to_dp(self.total_rdp(), self.alphas, delta)
        return PrivacySpent(
            epsilon=epsilon, delta=float(delta), best_alpha=best_alpha, steps=steps
        )

    def _default_delta(self) -> float | None:
        for entry in reversed(self._entries):
            if entry.get("kind") == "fit":
                return float(entry["delta"])
        return None

    # ------------------------------------------------------------------ #
    # admission control
    # ------------------------------------------------------------------ #
    def epsilon_with(
        self,
        delta: float,
        *,
        noise_multiplier: float,
        sampling_rate: float,
        steps: int,
    ) -> float:
        """ε if ``steps`` more steps of the given mechanism were recorded."""
        if steps < 0:
            raise PrivacyError(f"steps must be non-negative, got {steps}")
        curve = self.total_rdp()
        if steps > 0:
            curve = curve + steps * subsampled_gaussian_rdp_curve(
                noise_multiplier, sampling_rate, self.alphas
            )
        if not curve.any():
            return 0.0
        epsilon, _ = rdp_to_dp(curve, self.alphas, delta)
        return epsilon

    def would_exceed(
        self,
        target_epsilon: float,
        delta: float,
        *,
        noise_multiplier: float,
        sampling_rate: float,
        steps: int = 1,
    ) -> bool:
        """``True`` if recording ``steps`` more steps would break the target ε."""
        projected = self.epsilon_with(
            delta,
            noise_multiplier=noise_multiplier,
            sampling_rate=sampling_rate,
            steps=steps,
        )
        return projected > target_epsilon

    def remaining_steps(
        self,
        target_epsilon: float,
        delta: float,
        *,
        noise_multiplier: float,
        sampling_rate: float,
        limit: int = 1_000_000,
    ) -> int:
        """Largest additional step count that keeps cumulative ε ≤ target.

        The composed history and the new mechanism's per-step curve are
        computed once, then handed to :func:`max_steps_within`.
        """
        return max_steps_within(
            subsampled_gaussian_rdp_curve(noise_multiplier, sampling_rate, self.alphas),
            self.alphas,
            target_epsilon,
            delta,
            spent_rdp=self.total_rdp(),
            limit=limit,
        )

    def check_admission(
        self,
        target_epsilon: float,
        delta: float,
        *,
        noise_multiplier: float,
        sampling_rate: float,
    ) -> int:
        """Refuse (raise) a refit whose very first step would break the budget.

        Returns the admissible step count when the refit may proceed.
        """
        remaining = self.remaining_steps(
            target_epsilon,
            delta,
            noise_multiplier=noise_multiplier,
            sampling_rate=sampling_rate,
        )
        if remaining == 0:
            spent = self.total_spent(delta)
            raise PrivacyBudgetExhausted(
                f"privacy ledger {self.path.name} refuses the refit: cumulative "
                f"spend is already {spent} and one more step at "
                f"σ={noise_multiplier}, γ={sampling_rate:.4g} would exceed "
                f"ε={target_epsilon}"
            )
        return remaining

    # ------------------------------------------------------------------ #
    # live accountant binding
    # ------------------------------------------------------------------ #
    def _check_grid(self, accountant: RdpAccountant) -> None:
        if not np.array_equal(accountant.alphas, self.alphas):
            raise PrivacyError(
                "accountant alpha grid differs from the ledger's; RDP curves on "
                "different grids cannot be composed"
            )

    def attach(self, accountant: RdpAccountant) -> None:
        """Bind a live accountant to this ledger.

        An attached accountant refuses ``reset()``: the ledger is the
        durable record and a mid-lineage reset would fork it.
        """
        self._check_grid(accountant)
        accountant._ledger_attached = True

    # ------------------------------------------------------------------ #
    def summary(self, delta: float | None = None) -> dict[str, Any]:
        """Human/CLI-facing digest of the ledger state."""
        fits = [entry for entry in self._entries if entry.get("kind") == "fit"]
        deltas = [entry for entry in self._entries if entry.get("kind") == "delta"]
        spent = self.total_spent(delta)
        return {
            "path": str(self.path),
            "entries": len(self._entries),
            "fits": len(fits),
            "deltas": len(deltas),
            "dataset_fingerprint": self.dataset_fingerprint,
            "head_hash": self.head_hash,
            "total_steps": spent.steps,
            "epsilon": spent.epsilon,
            "delta": spent.delta,
            "best_alpha": spent.best_alpha,
        }

    def __repr__(self) -> str:
        return (
            f"PrivacyLedger(path={str(self.path)!r}, entries={len(self._entries)}, "
            f"head={self.head_hash[:12]})"
        )
