"""Deterministic fault injection for the sweep engine's recovery paths.

Recovery logic that is never driven through its failure space should be
presumed wrong: the per-point retry, crashed-unit isolation and journal
resume paths all exist to handle events (transient errors, worker deaths)
that ordinary test runs never produce.  This module makes those events
*reproducible*: a :class:`FaultPlan` names injection **sites** and the exact
hit at which each fires, so "the second point this process computes raises"
is a deterministic test input rather than a prayer to the scheduler.

Sites and actions
-----------------
Every injection point in the package calls ``maybe_fail("<site>")`` with a
name registered in :data:`FAULT_SITES`; the call returns ``True`` when the
active plan says this hit fires.  What happens then is decided *at the call
site* (raise or ``os._exit``), so the effect of each fault is
visible exactly where it strikes.  Calling :func:`maybe_fail` with an
unregistered name raises -- and the ``repro lint`` rule RL006 enforces the
same registration statically, so no injection point can silently rot.

Plans
-----
A plan is a comma-separated list of specs::

    site:N        fire on the Nth hit of the site (1-based)
    site:N:M      fire on hits N .. N+M-1
    site:N:*      fire on every hit from the Nth on

installed either programmatically (:func:`install_fault_plan`) or through the
``REPRO_FAULTS`` environment variable, which the CLI's ``--inject-faults``
flag sets so pool workers (fork and spawn alike) inherit the plan.  Hit
counters are **per process**: each worker counts its own hits, which keeps
the Nth-hit semantics deterministic per process regardless of how work is
scheduled across processes.

The module also hosts the recovery knobs of the engine's bounded per-point
retries: transient-error classification (:func:`is_transient_error`) and the
retry limit (:func:`point_retry_limit`, from ``REPRO_POINT_RETRIES``).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..exceptions import ConfigurationError, ModelError

#: Environment variable holding the process-wide fault plan specification.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Environment variable overriding the per-point transient retry budget.
POINT_RETRIES_ENV_VAR = "REPRO_POINT_RETRIES"

#: Default number of *re*-tries a transiently failing grid point is granted
#: before it is recorded as a failure (total attempts = retries + 1).
DEFAULT_POINT_RETRIES = 2

#: Registry of every injection site threaded through the package, mapping the
#: site name to what firing it simulates.  ``repro lint`` rule RL006 requires
#: every ``maybe_fail(...)`` call to use a name registered here.
FAULT_SITES: Dict[str, str] = {
    "engine.point_transient": (
        "transient solver exception inside one grid point (exercises the "
        "engine's bounded per-point retries)"
    ),
    "engine.worker_crash_pre_result": (
        "worker process dies (os._exit) after computing a point but before "
        "its unit returns (every point of the unit is lost with it)"
    ),
}


class InjectedFault(ModelError):
    """An artificial failure raised by a fired fault-injection site.

    Subclasses :class:`~repro.exceptions.ModelError` so injected faults flow
    through exactly the handlers that catch the real failures they simulate
    (per-point failure isolation), while staying
    distinguishable -- and classified as *transient* -- for the retry paths.

    Attributes:
        site: Name of the fault site that fired.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at site {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultSpec:
    """When one site fires: hits ``nth .. nth+count-1`` (``count=None`` = forever).

    Attributes:
        site: Registered fault-site name.
        nth: 1-based hit index at which the site first fires.
        count: How many consecutive hits fire; ``None`` means every hit from
            ``nth`` on.
    """

    site: str
    nth: int
    count: Optional[int] = 1

    def fires_on(self, hit: int) -> bool:
        """Whether the ``hit``-th occurrence of the site fires."""
        if hit < self.nth:
            return False
        return self.count is None or hit < self.nth + self.count


@dataclass
class FaultPlan:
    """A set of :class:`FaultSpec` entries plus per-process hit counters.

    Counters are mutated under an instance lock so concurrently computing
    threads observe a total order of hits.  Plans are process-local by design -- they carry a lock
    and never cross a pickle boundary; subprocesses re-parse ``REPRO_FAULTS``.
    """

    specs: Dict[str, FaultSpec] = field(default_factory=dict)
    hits: Dict[str, int] = field(default_factory=dict)
    fired: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def hit(self, site: str) -> bool:
        """Count one hit of ``site``; return whether this hit fires."""
        with self._lock:
            count = self.hits.get(site, 0) + 1
            self.hits[site] = count
            spec = self.specs.get(site)
            fires = spec is not None and spec.fires_on(count)
            if fires:
                self.fired[site] = self.fired.get(site, 0) + 1
        return fires

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-site ``{"hits": ..., "fired": ...}`` counters of this process."""
        with self._lock:
            sites = set(self.hits) | set(self.specs)
            return {
                site: {"hits": self.hits.get(site, 0), "fired": self.fired.get(site, 0)}
                for site in sorted(sites)
            }


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse a ``site:N[,site:N:M,...]`` specification into a :class:`FaultPlan`.

    Raises:
        ConfigurationError: On an unknown site name, a malformed spec, or a
            non-positive ``N``/``M`` -- a typo must fail loudly, never become
            a chaos run that silently injects nothing.
    """
    plan = FaultPlan()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise ConfigurationError(
                f"fault spec {chunk!r} must be site:N or site:N:M (M may be '*')"
            )
        site = parts[0].strip()
        if site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {site!r} (known: {', '.join(sorted(FAULT_SITES))})"
            )
        if site in plan.specs:
            raise ConfigurationError(f"fault site {site!r} specified twice")
        try:
            nth = int(parts[1])
        except ValueError:
            raise ConfigurationError(f"fault spec {chunk!r}: N must be an integer") from None
        if nth < 1:
            raise ConfigurationError(f"fault spec {chunk!r}: N must be >= 1 (hits are 1-based)")
        count: Optional[int] = 1
        if len(parts) == 3:
            if parts[2].strip() == "*":
                count = None
            else:
                try:
                    count = int(parts[2])
                except ValueError:
                    raise ConfigurationError(
                        f"fault spec {chunk!r}: M must be an integer or '*'"
                    ) from None
                if count < 1:
                    raise ConfigurationError(f"fault spec {chunk!r}: M must be >= 1")
        plan.specs[site] = FaultSpec(site=site, nth=nth, count=count)
    return plan


#: Process-wide active plan.  ``_PLAN_LOADED`` distinguishes "no plan" from
#: "REPRO_FAULTS not consulted yet" so env-installed plans work lazily in
#: fork- and spawn-started subprocesses alike.
_ACTIVE_PLAN: Optional[FaultPlan] = None
_PLAN_LOADED = False
_PLAN_LOCK = threading.Lock()


def install_fault_plan(plan: Union[FaultPlan, str, None]) -> Optional[FaultPlan]:
    """Install ``plan`` (a :class:`FaultPlan`, a spec string, or ``None``) process-wide.

    Returns:
        The installed plan (``None`` cleared any active plan).
    """
    global _ACTIVE_PLAN, _PLAN_LOADED
    if isinstance(plan, str):
        plan = parse_fault_plan(plan)
    with _PLAN_LOCK:
        _ACTIVE_PLAN = plan
        _PLAN_LOADED = True
    return plan


def reset_fault_plan() -> None:
    """Clear the active plan and re-arm the lazy ``REPRO_FAULTS`` load (tests)."""
    global _ACTIVE_PLAN, _PLAN_LOADED
    with _PLAN_LOCK:
        _ACTIVE_PLAN = None
        _PLAN_LOADED = False


def active_fault_plan() -> Optional[FaultPlan]:
    """The process's active plan, lazily parsed from ``REPRO_FAULTS`` once."""
    global _ACTIVE_PLAN, _PLAN_LOADED
    if _PLAN_LOADED:
        return _ACTIVE_PLAN
    with _PLAN_LOCK:
        if not _PLAN_LOADED:
            text = os.environ.get(FAULTS_ENV_VAR, "").strip()
            _ACTIVE_PLAN = parse_fault_plan(text) if text else None
            _PLAN_LOADED = True
        return _ACTIVE_PLAN


def maybe_fail(site: str) -> bool:
    """Count one hit of the named site; ``True`` when the active plan fires it.

    The cheap path -- no plan installed and ``REPRO_FAULTS`` unset -- is a
    dictionary lookup plus one attribute read, so production sweeps pay
    nothing for carrying the sites.

    Raises:
        ModelError: If ``site`` is not registered in :data:`FAULT_SITES`
            (defense in depth behind lint rule RL006).
    """
    if site not in FAULT_SITES:
        raise ModelError(
            f"maybe_fail() called with unregistered fault site {site!r}; "
            f"register it in repro.core.faults.FAULT_SITES"
        )
    plan = active_fault_plan()
    if plan is None:
        return False
    return plan.hit(site)


def fault_stats() -> Dict[str, Dict[str, int]]:
    """Hit/fired counters of this process's active plan (empty without one)."""
    plan = active_fault_plan()
    return plan.stats() if plan is not None else {}


def is_transient_error(exc: BaseException) -> bool:
    """Whether ``exc`` warrants a bounded retry of the failing grid point.

    Injected faults and OS-level hiccups (I/O errors, connection resets) are
    transient; deterministic model/configuration errors are not
    -- retrying them burns the budget to fail identically.
    """
    if isinstance(exc, InjectedFault):
        return True
    if isinstance(exc, (ConfigurationError, ModelError)):
        return False
    return isinstance(exc, (OSError, ConnectionError))


def point_retry_limit() -> int:
    """Re-tries granted to a transiently failing grid point (env-overridable)."""
    raw = os.environ.get(POINT_RETRIES_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_POINT_RETRIES
    try:
        limit = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{POINT_RETRIES_ENV_VAR}={raw!r} must be a non-negative integer"
        ) from None
    if limit < 0:
        raise ConfigurationError(f"{POINT_RETRIES_ENV_VAR} must be >= 0, got {limit}")
    return limit


__all__: Tuple[str, ...] = (
    "DEFAULT_POINT_RETRIES",
    "FAULTS_ENV_VAR",
    "FAULT_SITES",
    "POINT_RETRIES_ENV_VAR",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_fault_plan",
    "fault_stats",
    "install_fault_plan",
    "is_transient_error",
    "maybe_fail",
    "parse_fault_plan",
    "point_retry_limit",
    "reset_fault_plan",
)
