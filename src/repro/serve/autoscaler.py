"""Queue-depth autoscaling: a deterministic control loop.

The controller watches one signal — queued requests per routable
worker, EWMA-smoothed so a single arrival burst doesn't thrash the
fleet — and makes one decision per tick:

* smoothed depth above ``high_water`` and head-room left: **scale up**
  (the serving loop spawns a recover-mode worker, which pays the
  measured machine boot budget before its first dispatch);
* smoothed depth below ``low_water`` and more than ``min_workers``
  routable: **drain** the newest worker — mark it unroutable in the
  frontend, let its queue empty, then retire it.  Drain needs no state
  migration: a worker that takes nothing new and finishes what it has
  leaves nothing behind.

A ``cooldown_ticks`` refractory period follows every action so the
controller observes the effect of one decision before making the next.
The controller is a pure function of the depth sequence it observes —
same workload, same seed, same decisions — which is what lets
servebench gate on a bit-identical rerun digest with autoscaling on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Autoscaler", "AutoscalerConfig"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Control-loop tuning for one serving run."""

    min_workers: int = 1
    max_workers: int = 8
    #: Scale up above this smoothed queued-per-routable-worker depth.
    high_water: float = 2.0
    #: Drain below this smoothed depth.
    low_water: float = 0.25
    #: EWMA smoothing factor (1.0 = no smoothing).
    alpha: float = 0.5
    #: Cycles between control ticks.
    interval: float = 40_000.0
    #: Ticks to wait after an action before acting again.
    cooldown_ticks: int = 2

    def __post_init__(self) -> None:
        if self.min_workers < 1 or self.max_workers < self.min_workers:
            raise ValueError("need 1 <= min_workers <= max_workers")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.low_water >= self.high_water:
            raise ValueError("low_water must be below high_water")
        if self.interval <= 0:
            raise ValueError("tick interval must be positive")


class Autoscaler:
    """EWMA queue-depth controller; one optional action per tick."""

    def __init__(self, config: Optional[AutoscalerConfig] = None) -> None:
        self.config = config or AutoscalerConfig()
        self.smoothed = 0.0
        self.ticks = 0
        self._cooldown = 0

    def observe(self, now: float, queued: int,
                routable: int) -> Optional[str]:
        """Feed one depth sample; returns 'scale_up', 'drain' or None."""
        config = self.config
        per_worker = queued / max(routable, 1)
        self.smoothed = (config.alpha * per_worker
                         + (1.0 - config.alpha) * self.smoothed)
        self.ticks += 1
        action: Optional[str] = None
        if self._cooldown > 0:
            self._cooldown -= 1
        elif (self.smoothed > config.high_water
                and routable < config.max_workers):
            action = "scale_up"
            self._cooldown = config.cooldown_ticks
        elif (self.smoothed < config.low_water
                and routable > config.min_workers):
            action = "drain"
            self._cooldown = config.cooldown_ticks
        return action
