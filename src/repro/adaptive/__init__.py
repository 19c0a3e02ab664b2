"""On-demand taint tracking: run clean code until taint actually flows.

SHIFT prices every load and store whether or not a single bitmap bit is
set.  This package removes that cost while the machine is
*taint-quiescent*: the compiler emits two copies of every function (the
instrumented "track" copy at its canonical label, a clean "fast" copy
under ``f$fast`` — see :class:`repro.compiler.pipeline.AdaptiveLayout`),
and an :class:`AdaptiveController` hot-switches between them at native
and syscall boundaries, the only points where taint can enter or be
observed by the host.

Soundness rule (the one that matters): **fast mode is only ever entered
from a quiescent state** — zero tainted granules in the bitmap
(``TaintMap.live_granules``, O(1)), zero spilled NaTs (``ar.unat`` of
every context), and zero NaT bits on registers that can carry a live
value across a call boundary.  Clean code cannot create taint, so the
machine provably stays quiescent until the next taint source fires —
at which point the controller is standing right there (sources fire
inside natives/syscalls) and switches to track before a single tainted
byte is consumed.  Every tag write the fast copy *would* have made is a
clear-on-already-clear: the bitmap is bit-identical to an always-on run.
"""

from repro.adaptive.controller import (
    ADAPTIVE_MODES,
    BOUNDARY_DEAD_GRS,
    AdaptiveController,
    resolve_mode,
)

__all__ = ["ADAPTIVE_MODES", "AdaptiveController", "BOUNDARY_DEAD_GRS",
           "resolve_mode"]
