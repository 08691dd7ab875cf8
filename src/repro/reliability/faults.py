"""Deterministic fault injection for the simulated serving stack.

ACIC's premise is that cloud I/O is noisy and failure-prone, yet the
reproduction's hot paths (the run simulator, training collection, and
batch scoring) would otherwise always succeed instantly.  A
:class:`FaultPlan` describes *where* and *how often* things should go
wrong — transient errors, latency spikes, corrupted results — and a
:class:`FaultInjector` executes the plan reproducibly: every decision is
drawn from an :class:`~repro.util.rng.RngStream` derived from the plan
seed, the rule, the site and a per-site invocation counter, so the same
plan against the same call sequence injects the same faults.  A retried
call advances the counter and re-draws, which is what makes *transient*
errors transient.

Instrumented code asks for the process-wide active injector at call
time, mirroring :func:`repro.telemetry.get_telemetry`::

    from repro.reliability import get_injector

    fault = get_injector().perturb("serving.predict")
    # raises InjectedError, or returns a FaultDecision whose
    # latency_s / factor the caller charges to its own accounting.

Injection is **disabled by default**: the active injector is a shared
no-op whose :meth:`~FaultInjector.perturb` returns the zero decision
without drawing any randomness, so the resting state costs one dict
lookup per site.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path

from repro.telemetry import get_telemetry
from repro.util.rng import RngStream

__all__ = [
    "FaultKind",
    "InjectedError",
    "FaultRule",
    "FaultPlan",
    "FaultDecision",
    "NO_FAULT",
    "FaultInjector",
    "NULL_INJECTOR",
    "get_injector",
    "set_injector",
    "use_injector",
]

#: Recognized values of :attr:`FaultRule.kind`.
FaultKind = ("error", "latency", "corrupt", "replica_kill")


class InjectedError(RuntimeError):
    """A transient failure raised by the fault injector.

    Resilience code treats it as retryable; anything that escapes to a
    user means a retry budget was exhausted.
    """

    def __init__(self, site: str, rule: "FaultRule") -> None:
        super().__init__(f"injected fault at {site!r} (rule {rule.describe()})")
        self.site = site
        self.rule = rule


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault plan.

    Attributes:
        site: dotted site name the rule applies to; ``fnmatch`` globs are
            allowed (``"serving.*"``).
        kind: ``"error"`` raises :class:`InjectedError`, ``"latency"``
            adds :attr:`latency_s` to the operation, ``"corrupt"``
            multiplies the operation's result by :attr:`factor`, and
            ``"replica_kill"`` marks the visited replica site for
            termination (the cluster supervisor/router acts on
            :attr:`FaultDecision.kill`; non-cluster sites ignore it).
        probability: chance in [0, 1] that the rule fires per visit.
        latency_s: seconds added when a latency rule fires.
        factor: multiplier applied when a corrupt rule fires.
        max_hits: cap on total firings (None = unlimited).  A
            ``probability=1.0, max_hits=3`` error rule is a burst outage
            that retries can ride out; ``max_hits=None`` is a hard outage.
    """

    site: str
    kind: str = "error"
    probability: float = 1.0
    latency_s: float = 0.0
    factor: float = 1.0
    max_hits: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FaultKind:
            raise ValueError(f"unknown fault kind {self.kind!r}; use {FaultKind}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        # Plans arrive as JSON, which may carry NaN/Infinity literals; NaN
        # fails every comparison, so the chained bounds refuse it too.
        if not 0 <= self.latency_s < math.inf:
            raise ValueError(
                f"latency_s must be finite and >= 0, got {self.latency_s}"
            )
        if not 0 < self.factor < math.inf:
            raise ValueError(f"factor must be finite and > 0, got {self.factor}")
        if self.max_hits is not None and self.max_hits < 1:
            raise ValueError(f"max_hits must be >= 1 or None, got {self.max_hits}")

    def matches(self, site: str) -> bool:
        """Whether this rule applies to ``site``."""
        return fnmatch(site, self.site)

    def describe(self) -> str:
        """Compact human-readable form for error messages."""
        parts = [f"{self.kind}@{self.site} p={self.probability:g}"]
        if self.kind == "latency":
            parts.append(f"+{self.latency_s:g}s")
        if self.kind == "corrupt":
            parts.append(f"x{self.factor:g}")
        if self.max_hits is not None:
            parts.append(f"<= {self.max_hits} hits")
        return " ".join(parts)

    def to_payload(self) -> dict:
        """The rule as a plain JSON-compatible dict."""
        return {
            "site": self.site,
            "kind": self.kind,
            "probability": self.probability,
            "latency_s": self.latency_s,
            "factor": self.factor,
            "max_hits": self.max_hits,
        }

    @classmethod
    def from_payload(cls, payload: object) -> "FaultRule":
        """Validate and decode one rule object."""
        if not isinstance(payload, dict):
            raise ValueError(f"fault rule must be a JSON object, got {payload!r}")
        unknown = set(payload) - {
            "site", "kind", "probability", "latency_s", "factor", "max_hits"
        }
        if unknown:
            raise ValueError(f"fault rule has unknown fields: {sorted(unknown)}")
        if "site" not in payload:
            raise ValueError("fault rule is missing 'site'")
        max_hits = payload.get("max_hits")
        return cls(
            site=str(payload["site"]),
            kind=str(payload.get("kind", "error")),
            probability=float(payload.get("probability", 1.0)),
            latency_s=float(payload.get("latency_s", 0.0)),
            factor=float(payload.get("factor", 1.0)),
            max_hits=None if max_hits is None else int(max_hits),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible chaos schedule: a seed plus an ordered rule list.

    The JSON wire form (``acic serve-batch --faults plan.json``)::

        {"seed": 1234,
         "rules": [{"site": "serving.predict", "kind": "error",
                    "probability": 0.2}]}
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(
            {"seed": self.seed, "rules": [r.to_payload() for r in self.rules]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse and validate a plan; raises ValueError on bad input."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("fault plan must be a JSON object")
        raw = payload.get("rules", [])
        if not isinstance(raw, list):
            raise ValueError("fault plan 'rules' must be a list")
        return cls(
            rules=tuple(FaultRule.from_payload(entry) for entry in raw),
            seed=int(payload.get("seed", 0)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Read a plan from a JSON file."""
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> Path:
        """Write the plan as JSON; returns the path."""
        path = Path(path)
        path.write_text(self.to_json())
        return path


@dataclass(frozen=True)
class FaultDecision:
    """What the injector decided for one visit to a site.

    Attributes:
        latency_s: extra seconds the caller should charge (0 = none).
        factor: multiplier the caller should apply to its result
            (1.0 = untouched).
        kill: True when a ``replica_kill`` rule fired — the cluster
            layer terminates (or routes around) the visited replica.
    """

    latency_s: float = 0.0
    factor: float = 1.0
    kill: bool = False

    @property
    def clean(self) -> bool:
        """True when the visit was left completely untouched."""
        return self.latency_s == 0.0 and self.factor == 1.0 and not self.kill


#: The shared "nothing happened" decision.
NO_FAULT = FaultDecision()


class FaultInjector:
    """Executes a :class:`FaultPlan` deterministically.

    Every ``perturb(site)`` visit advances a per-rule counter and draws
    the fire/skip decision from a stream derived from (plan seed, rule
    index, site, visit index) — independent of any other randomness in
    the process, so enabling chaos never perturbs the simulator's own
    noise streams (the differential tests rely on this).

    Args:
        plan: the schedule to execute.
    """

    enabled = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._visits: dict[tuple[int, str], int] = {}
        self._hits: dict[int, int] = {}

    # ------------------------------------------------------------------
    def decide(self, site: str) -> FaultDecision:
        """Draw this visit's decision; raises on an error fault.

        Raises:
            InjectedError: an error rule fired.
        """
        latency = 0.0
        factor = 1.0
        kill = False
        error: tuple[str, FaultRule] | None = None
        for index, rule in enumerate(self.plan.rules):
            if not rule.matches(site):
                continue
            if rule.max_hits is not None and self._hits.get(index, 0) >= rule.max_hits:
                continue
            visit = self._visits.get((index, site), 0)
            self._visits[(index, site)] = visit + 1
            if rule.probability < 1.0:
                draw = RngStream(self.plan.seed, index, site, visit).uniform()
                if draw >= rule.probability:
                    continue
            self._hits[index] = self._hits.get(index, 0) + 1
            telemetry = get_telemetry()
            telemetry.counter(
                "reliability.faults_injected", "fault-rule firings, all kinds"
            ).inc()
            telemetry.counter(f"reliability.faults.{rule.kind}").inc()
            if rule.kind == "error" and error is None:
                error = (site, rule)
            elif rule.kind == "latency":
                latency += rule.latency_s
            elif rule.kind == "corrupt":
                factor *= rule.factor
            elif rule.kind == "replica_kill":
                kill = True
        if error is not None:
            raise InjectedError(*error)
        if latency == 0.0 and factor == 1.0 and not kill:
            return NO_FAULT
        return FaultDecision(latency_s=latency, factor=factor, kill=kill)

    # Alias with the call-site verb: "perturb this operation".
    perturb = decide

    def hits(self) -> int:
        """Total rule firings so far (all kinds)."""
        return sum(self._hits.values())

    def reset(self) -> None:
        """Forget all visit/hit counters (replay the plan from scratch)."""
        self._visits.clear()
        self._hits.clear()


class NullFaultInjector:
    """The disabled mode: never injects, never draws randomness."""

    enabled = False

    def decide(self, site: str) -> FaultDecision:
        """Always the clean decision."""
        return NO_FAULT

    perturb = decide

    def hits(self) -> int:
        """Always zero."""
        return 0

    def reset(self) -> None:
        """Nothing to forget."""


#: The one shared disabled-mode instance (also the initial active object).
NULL_INJECTOR = NullFaultInjector()

_active: FaultInjector | NullFaultInjector = NULL_INJECTOR


def get_injector() -> FaultInjector | NullFaultInjector:
    """The active fault injector (the no-op one unless chaos is on)."""
    return _active


def set_injector(
    injector: FaultInjector | NullFaultInjector,
) -> FaultInjector | NullFaultInjector:
    """Install ``injector`` as the active one; returns the previous."""
    global _active
    previous = _active
    _active = injector
    return previous


class use_injector:
    """Scope an injector as the active one, restoring on exit.

    Context manager (``with use_injector(FaultInjector(plan)): ...``);
    yields the injector.
    """

    def __init__(self, injector: FaultInjector | NullFaultInjector) -> None:
        self._injector = injector
        self._previous: FaultInjector | NullFaultInjector | None = None

    def __enter__(self) -> FaultInjector | NullFaultInjector:
        self._previous = set_injector(self._injector)
        return self._injector

    def __exit__(self, *exc_info) -> None:
        assert self._previous is not None
        set_injector(self._previous)
