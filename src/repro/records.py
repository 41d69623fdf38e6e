"""Run records, their JSON round-trips, and deterministic cell fingerprints.

Shared by the result store, the sweep orchestrator, and the fuzz campaign
driver.  It depends only on the simulator's config and stats types, so
each of them imports it at module scope without pulling in the others.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from repro.sim.config import GPUConfig
from repro.sim.stats import SimStats


class RunFailed(RuntimeError):
    """A failed run's numbers were read; ``record`` is the failed run."""

    def __init__(self, record: "RunRecord"):
        super().__init__(f"{record.benchmark}/{record.arch} failed "
                         f"({record.status}): {record.error}")
        self.record = record


@dataclass
class RunRecord:
    """Result of one (benchmark, config) simulation — successful or not."""

    benchmark: str
    arch: str
    stats: SimStats | None
    config: GPUConfig
    status: str = "ok"
    error: str | None = None
    dump: str | None = None  # chip dump of a hang, else the traceback
    retried: bool = False  # True when a retry with a raised budget ran

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def cycles(self) -> int:
        if self.stats is None:
            raise RunFailed(self)
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        if self.stats is None:
            raise RunFailed(self)
        return self.stats.ipc

    @property
    def failure(self) -> str:
        """Compact ``FAILED(<reason>)`` cell for partial report tables."""
        return f"FAILED({self.status})"


# ---------------------------------------------------------------------------
# GPUConfig / RunRecord <-> dict
# ---------------------------------------------------------------------------

def config_to_dict(cfg: GPUConfig) -> dict:
    """``GPUConfig`` as a JSON-safe dict (all fields are primitives)."""
    return dataclasses.asdict(cfg)


def config_from_dict(data: dict) -> GPUConfig:
    """Rebuild a ``GPUConfig``, ignoring unknown keys (forward compat)."""
    known = {f.name for f in dataclasses.fields(GPUConfig)}
    return GPUConfig(**{k: v for k, v in data.items() if k in known})


def record_to_dict(record: RunRecord) -> dict:
    """A :class:`RunRecord` as a JSON-safe dict (round-trips losslessly)."""
    return {
        "benchmark": record.benchmark,
        "arch": record.arch,
        "status": record.status,
        "error": record.error,
        "dump": record.dump,
        "retried": record.retried,
        "stats": record.stats.to_dict() if record.stats is not None else None,
        "config": config_to_dict(record.config),
    }


def record_from_dict(data: dict) -> RunRecord:
    stats = data.get("stats")
    return RunRecord(
        benchmark=data["benchmark"],
        arch=data["arch"],
        stats=SimStats.from_dict(stats) if stats is not None else None,
        config=config_from_dict(data.get("config") or {}),
        status=data.get("status", "ok"),
        error=data.get("error"),
        dump=data.get("dump"),
        retried=bool(data.get("retried", False)),
    )


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def cell_fingerprint(benchmark: str, cfg: GPUConfig, scale: float,
                     workload_seed: int = 0) -> str:
    """Deterministic identity of one sweep cell.

    Depends on every ``GPUConfig`` field, so tweaking *any* knob (swap
    cost, scheduler, cache size, …) invalidates old stored entries for
    that cell instead of resuming into wrong numbers.  Hex-truncated to 16
    chars: 64 bits is collision-free for any realistic matrix.
    """
    payload = {
        "benchmark": benchmark,
        "scale": float(scale),
        "seed": int(workload_seed),
        "config": config_to_dict(cfg),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
