"""Deterministic, seeded fault injection for chaos testing.

Every long-running subsystem (the file-publication path, the serving
engine, orchestrator cells, the privacy ledger) carries a named *fault
point*: a single ``plan.hit(point, **context)`` call that is reached on the
normal code path but does nothing unless a :class:`FaultPlan` is active.
The PR-5 profiler idiom applies — when no plan is active the check is one
``is None`` branch, so the instrumented paths stay bit-identical to the
uninstrumented ones.

A plan is a list of :class:`FaultRule` records.  Each rule names the point
it arms, the ``action`` to take (``"crash"`` — ``os._exit``; ``"stall"`` /
``"slow"`` — sleep ``delay`` seconds; ``"raise"`` — raise ``exception``),
a ``where`` filter matched against the hit's context (string values match
by substring — handy for paths — everything else by equality), and
``times``: how often the rule may fire in this process (``-1`` =
unlimited).  Activation is either lexical::

    plan = FaultPlan([FaultRule("ledger.append", "raise",
                                where={"path": "budget.jsonl"})])
    with plan:
        try:  # a private fit appending its spend to budget.jsonl
            trainer.fit(graph, ledger=ledger)
        except OSError:
            pass  # the injected fault
    assert plan.fired_total == 1

(``ledger`` must already hold an entry: a ledger's first entry is written
by atomic rewrite, not by append), or environmental, for subprocess
drills — ``REPRO_FAULTS`` holds ``;``-separated rules of the form
``point:action[:key=value,key=value...]`` (the reserved keys ``times``, ``delay`` and ``exception`` configure the
rule itself; everything else goes into ``where``)::

    REPRO_FAULTS="ledger.append:crash" python append_entries.py

Forked children (orchestrator cells) inherit the active plan (both forms),
with *fresh-by-copy* per-rule counters: each child counts its own firings
from the parent's counts at the fork.  Rules are deterministic by
construction — they fire on exact counts and context matches, never on
coin flips — so every chaos test replays identically.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from ..exceptions import ConfigurationError

__all__ = [
    "FAULT_POINTS",
    "FaultPlan",
    "FaultRule",
    "get_active_plan",
    "maybe_hit",
    "parse_fault_spec",
    "register_fault_point",
]

#: exit code used by the ``crash`` action, distinct from common failures
CRASH_EXIT_CODE = 70

#: registry of instrumented fault points: name -> human description.
#: The chaos suite iterates this to prove every point both fires and stays
#: inert, so adding a point without test coverage fails a completeness pin.
FAULT_POINTS: dict[str, str] = {}

_ACTIONS = ("crash", "stall", "slow", "raise")

#: exceptions the ``raise`` action may produce, by name (an allowlist keeps
#: the env spec from becoming an arbitrary-code channel)
_EXCEPTIONS: dict[str, type[BaseException]] = {
    "OSError": OSError,
    "ConnectionError": ConnectionError,
    "TimeoutError": TimeoutError,
    "MemoryError": MemoryError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
}


def register_fault_point(name: str, description: str) -> str:
    """Declare an instrumented fault point (idempotent; returns ``name``)."""
    FAULT_POINTS[name] = description
    return name


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: where it triggers and what it does."""

    point: str
    action: str
    where: tuple[tuple[str, Any], ...] = ()
    #: times the rule may fire in this process; -1 = unlimited
    times: int = 1
    #: stall/slow sleep in seconds
    delay: float = 0.05
    #: exception name for the ``raise`` action (see the module allowlist)
    exception: str = "OSError"

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; known: {_ACTIONS}"
            )
        if self.action == "raise" and self.exception not in _EXCEPTIONS:
            raise ConfigurationError(
                f"unknown fault exception {self.exception!r}; known: "
                f"{sorted(_EXCEPTIONS)}"
            )
        if self.delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {self.delay}")
        if isinstance(self.where, Mapping):  # accept dicts at construction
            object.__setattr__(self, "where", tuple(sorted(self.where.items())))

    def matches(self, point: str, context: Mapping[str, Any]) -> bool:
        if point != self.point:
            return False
        for key, expected in self.where:
            if key not in context:
                return False
            actual = context[key]
            if isinstance(expected, str) and isinstance(actual, str):
                if expected not in actual:  # substring: paths, metric names
                    return False
            elif actual != expected:
                return False
        return True

    def execute(self, point: str) -> None:
        if self.action == "crash":
            os._exit(CRASH_EXIT_CODE)
        if self.action in ("stall", "slow"):
            time.sleep(self.delay)
            return
        raise _EXCEPTIONS[self.exception](
            f"injected fault at {point} ({self.exception})"
        )


class FaultPlan:
    """An activatable set of fault rules with per-rule firing counters."""

    def __init__(self, rules: Iterable[FaultRule | Mapping[str, Any]] = ()) -> None:
        self.rules: list[FaultRule] = []
        for rule in rules:
            if isinstance(rule, Mapping):
                rule = FaultRule(**rule)
            self.rules.append(rule)
        self.fired: list[int] = [0] * len(self.rules)

    # ------------------------------------------------------------------ #
    @property
    def fired_total(self) -> int:
        return sum(self.fired)

    def hit(self, point: str, **context: Any) -> None:
        """Evaluate one fault point crossing; may sleep, raise, or exit."""
        for index, rule in enumerate(self.rules):
            if rule.times >= 0 and self.fired[index] >= rule.times:
                continue
            if not rule.matches(point, context):
                continue
            self.fired[index] += 1
            rule.execute(point)

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "FaultPlan":
        global _ACTIVE
        if get_active_plan() is not None:
            raise ConfigurationError(
                "a fault plan is already active; plans do not nest"
            )
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        _ACTIVE = None

    def __repr__(self) -> str:
        return f"FaultPlan(rules={len(self.rules)}, fired={self.fired_total})"


# --------------------------------------------------------------------- #
# activation
# --------------------------------------------------------------------- #
_ACTIVE: FaultPlan | None = None
_ENV_CHECKED = False


def _coerce(value: str) -> Any:
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` rule string into a :class:`FaultPlan`."""
    rules: list[FaultRule] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":", 2)
        if len(parts) < 2:
            raise ConfigurationError(
                f"malformed fault rule {chunk!r}; expected "
                "'point:action[:key=value,...]'"
            )
        point, action = parts[0].strip(), parts[1].strip()
        where: dict[str, Any] = {}
        extras: dict[str, Any] = {}
        if len(parts) == 3 and parts[2].strip():
            for pair in parts[2].split(","):
                if "=" not in pair:
                    raise ConfigurationError(
                        f"malformed fault rule field {pair!r} in {chunk!r}"
                    )
                key, value = pair.split("=", 1)
                key = key.strip()
                if key == "times":
                    extras["times"] = int(value)
                elif key == "delay":
                    extras["delay"] = float(value)
                elif key == "exception":
                    extras["exception"] = value.strip()
                else:
                    where[key] = _coerce(value.strip())
        rules.append(FaultRule(point=point, action=action, where=where, **extras))
    return FaultPlan(rules)


def get_active_plan() -> FaultPlan | None:
    """The currently active plan, if any (env spec parsed lazily, once)."""
    global _ACTIVE, _ENV_CHECKED
    if _ACTIVE is not None:
        return _ACTIVE
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        spec = os.environ.get("REPRO_FAULTS", "").strip()
        if spec:
            _ACTIVE = parse_fault_spec(spec)
    return _ACTIVE


def maybe_hit(point: str, **context: Any) -> None:
    """One-branch fault check for non-hot-path call sites."""
    plan = get_active_plan()
    if plan is not None:
        plan.hit(point, **context)


# --------------------------------------------------------------------- #
# the instrumented points (declared centrally so the chaos suite can pin
# that every one of them both fires under a plan and stays inert without)
# --------------------------------------------------------------------- #
register_fault_point(
    "fileio.atomic_write",
    "at atomic_write_path's publish (os.replace); context: path",
)
register_fault_point(
    "serving.engine.query",
    "at QueryEngine.top_k entry after validation; context: k, metric, batch",
)
register_fault_point(
    "orchestrator.cell",
    "at run_spec cell execution; context: kind, method, dataset",
)
register_fault_point(
    "ledger.append",
    "mid-append, after the head of the record line is flushed; context: path",
)
