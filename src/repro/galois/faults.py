"""The process runtime's fault policy and its chaos hook.

One policy, fixed: a shard chunk that raises, returns a corrupted
result or dies with its pool is resubmitted up to
:data:`CHUNK_MAX_RETRIES` times with capped exponential backoff, then
quarantined and computed in-parent; a dead or wedged pool is replaced
up to :data:`POOL_RESTART_BUDGET` times per run.  The one value that must scale with the input — the
per-chunk deadline — is ``RewriteConfig.chunk_timeout_seconds``.
:mod:`repro.galois.procpool` reads every constant at call time.

For testing those paths there is a fault-injection hook: the
``REPRO_FAULT_PLAN`` environment variable (or ``config.fault_plan``)
holds entries ``mode@stage:chunk[:fires]`` separated by ``,`` or
``;``, where ``mode`` is one of ``kill`` (SIGKILL the worker),
``hang`` (sleep past any deadline), ``raise`` (raise
:class:`InjectedFault`) or ``corrupt`` (return a mangled result),
``stage``/``chunk`` select the fan-out coordinates (the pool's one
stage is ``shard``; ``*`` matches any), and ``fires`` bounds how many
submissions trigger it (default 1).  The directive is armed by the parent per submission and executed
worker-side, so retries of an already-fired coordinate run clean.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, List, Optional

#: Failed chunks (worker raised, corrupted result, died with the pool)
#: are resubmitted up to this many times before they are quarantined.
CHUNK_MAX_RETRIES = 2

#: Pool replacements (``BrokenProcessPool``, timed-out chunk) allowed
#: per run before the remaining chunks degrade to in-parent computation.
POOL_RESTART_BUDGET = 2

#: Capped exponential backoff between retry rounds of failed chunks:
#: RETRY_BACKOFF_BASE * 2**min(attempts, RETRY_BACKOFF_CAP_EXP)
#: seconds, never more than RETRY_BACKOFF_MAX.
RETRY_BACKOFF_BASE = 0.02
RETRY_BACKOFF_CAP_EXP = 4
RETRY_BACKOFF_MAX = 0.25

#: How long an injected ``hang`` fault sleeps worker-side.  Must only
#: exceed any chunk deadline under test; the wedged worker is reaped
#: when the parent restarts the pool.
FAULT_HANG_SECONDS = 30.0


def _fault_hang_seconds() -> float:
    try:
        return float(os.environ.get("REPRO_FAULT_HANG_SECONDS", ""))
    except ValueError:
        return FAULT_HANG_SECONDS


class InjectedFault(RuntimeError):
    """Raised worker-side by a ``raise`` entry of the fault plan."""


class FaultPlan:
    """Parsed ``REPRO_FAULT_PLAN`` / ``config.fault_plan`` directives.

    Entries are ``mode@stage:chunk[:fires]``; :meth:`arm` is called by
    the parent for every chunk submission and consumes one fire from
    the first matching entry, so a coordinate's retry runs clean once
    its budget is spent.
    """

    MODES = ("kill", "hang", "raise", "corrupt")

    def __init__(self, entries: List[Dict[str, object]]):
        self.entries = entries

    @classmethod
    def parse(cls, spec: Optional[str]) -> Optional["FaultPlan"]:
        if not spec or not spec.strip():
            return None
        entries: List[Dict[str, object]] = []
        for raw in spec.replace(";", ",").split(","):
            raw = raw.strip()
            if not raw:
                continue
            try:
                mode, coords = raw.split("@", 1)
                parts = coords.split(":")
                stage, chunk = parts[0], parts[1]
                fires = int(parts[2]) if len(parts) > 2 else 1
            except (ValueError, IndexError):
                raise ValueError(
                    f"bad fault-plan entry {raw!r}: expected "
                    f"mode@stage:chunk[:fires]"
                )
            mode = mode.strip()
            if mode not in cls.MODES:
                raise ValueError(
                    f"bad fault-plan mode {mode!r}: expected one of "
                    f"{'/'.join(cls.MODES)}"
                )
            entries.append({
                "mode": mode,
                "stage": stage.strip(),
                "chunk": chunk.strip(),
                "fires": fires,
            })
        return cls(entries) if entries else None

    def arm(self, stage: str, chunk: int) -> Optional[str]:
        """Mode to inject into this submission, consuming one fire."""
        for entry in self.entries:
            if entry["fires"] <= 0:
                continue
            if entry["stage"] not in ("*", stage):
                continue
            if entry["chunk"] != "*" and entry["chunk"] != str(chunk):
                continue
            entry["fires"] -= 1
            return entry["mode"]
        return None


def _execute_fault(mode: str) -> None:
    """Worker-side execution of an armed pre-compute fault."""
    if mode == "kill":
        if hasattr(signal, "SIGKILL"):  # pragma: no branch - POSIX CI
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(1)  # pragma: no cover - non-POSIX fallback
    if mode == "hang":
        time.sleep(_fault_hang_seconds())
    elif mode == "raise":
        raise InjectedFault(f"injected fault in worker {os.getpid()}")


def _corrupt_results(results):
    """The ``corrupt`` fault: mangle a chunk's result list in ways the
    parent-side validator must catch — a wrong index on its first entry
    and the loss of its last."""
    if not results:
        return [(0, None, 0)]
    mangled = list(results)
    root, *rest = mangled[0]
    mangled[0] = (root + 1, *rest)
    return mangled[:-1] if len(mangled) > 1 else mangled
