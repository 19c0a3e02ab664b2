"""Timing model and performance counters.

The model is a W-wide in-order machine built around *issue groups*, the
way Itanium's EPIC pipeline consumes instruction bundles: consecutive
instructions issue together until a register dependency, a structural
limit (issue width, memory ports) or a taken branch closes the group.
Each closed group costs one cycle; cache misses and branch redirects add
stall cycles on top.

For the paper's Figure 9 the model attributes cycles to *roles*: every
instrumentation-inserted instruction is tagged (tag-address computation,
bitmap access, taint set/clear, compare relaxation, NaT-source
generation) and each group's cycle is divided equally among its member
instructions, so serial instrumentation chains — which form small groups
— are correctly charged more per instruction than code with ILP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.isa.instruction import Instruction, OpKind
from repro.isa.operands import RegClass


@dataclass
class IssueConfig:
    """Parameters of the EPIC-style issue-group timing model."""
    width: int = 6
    mem_ports: int = 2
    branch_penalty: int = 1  # extra cycles after a taken branch
    #: Compare -> dependent branch may issue in one group (Itanium rule).
    cmp_branch_same_group: bool = True
    #: Stall for a load that reads data a very recent store produced
    #: (store-to-load forwarding through the store buffer).  SHIFT's
    #: spill-then-reload NaT-clearing trick pays this on every use,
    #: which is why the paper calls set/clear-NaT "rather costly".
    store_forward_penalty: int = 6
    #: How many instructions a store stays hot in the store buffer.
    store_forward_window: int = 16


@dataclass
class RoleCost:
    """Cycles and slots attributed to one instrumentation role."""

    slots: int = 0
    issue_cycles: float = 0.0
    stall_cycles: float = 0.0

    @property
    def cycles(self) -> float:
        """Issue plus stall cycles for this role."""
        return self.issue_cycles + self.stall_cycles


class PerfCounters:
    """Aggregated execution statistics for one run.

    Cycle costs are attributed to ``(role, origin)`` pairs — e.g.
    ``("tag_compute", "load")`` is the tag-address arithmetic inserted
    for load instrumentation — which is exactly the breakdown the
    paper's Figure 9 reports.
    """

    def __init__(self) -> None:
        self.instructions = 0
        self.groups = 0
        self.issue_cycles = 0.0
        self.stall_cycles = 0.0
        self.branch_penalty_cycles = 0.0
        self.io_cycles = 0.0  # device/syscall/native time
        self.loads = 0
        self.stores = 0
        self.branches_taken = 0
        #: (role, origin) -> RoleCost
        self.pair_costs: Dict[Tuple[Optional[str], Optional[str]], RoleCost] = {}

    @property
    def cycles(self) -> float:
        """Total simulated cycles including device time."""
        return (
            self.issue_cycles
            + self.stall_cycles
            + self.branch_penalty_cycles
            + self.io_cycles
        )

    @property
    def compute_cycles(self) -> float:
        """Cycles excluding device time (the CPU-bound component)."""
        return self.issue_cycles + self.stall_cycles + self.branch_penalty_cycles

    def pair(self, role: Optional[str], origin: Optional[str]) -> RoleCost:
        """RoleCost bucket for a (role, origin) pair."""
        key = (role, origin)
        cost = self.pair_costs.get(key)
        if cost is None:
            cost = self.pair_costs[key] = RoleCost()
        return cost

    def role_cycles(self, role: Optional[str]) -> float:
        """Cycles attributed to one instrumentation role."""
        return sum(c.cycles for (r, _), c in self.pair_costs.items() if r == role)

    def origin_cycles(self, origin: Optional[str]) -> float:
        """Cycles attributed to one instrumentation origin."""
        return sum(c.cycles for (_, o), c in self.pair_costs.items() if o == origin)

    def instrumentation_cycles(self) -> float:
        """Cycles attributed to any instrumentation role."""
        return sum(c.cycles for (r, _), c in self.pair_costs.items() if r is not None)

    def add_io_cycles(self, cycles: float) -> None:
        """Charge device/syscall time."""
        self.io_cycles += cycles

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict summary of the headline counters."""
        return {
            "instructions": self.instructions,
            "cycles": self.cycles,
            "issue_cycles": self.issue_cycles,
            "stall_cycles": self.stall_cycles,
            "branch_penalty_cycles": self.branch_penalty_cycles,
            "io_cycles": self.io_cycles,
            "loads": self.loads,
            "stores": self.stores,
        }


#: Bit position of each register class in the dependency masks: GR take
#: bits 0-127, PR bits 128-191, BR bits 192-199, AR bits 200+.
_CLS_BIT = {RegClass.GR: 0, RegClass.PR: 128, RegClass.BR: 192, RegClass.AR: 200}
#: All predicate-register bits (for extracting predicate writes).
_PR_ALL = ((1 << 64) - 1) << 128
#: r0 and p0 are hardwired and never create dependencies.
_HARDWIRED = 1 | (1 << 128)


def _perf_meta(instr: Instruction) -> Tuple[int, int, int, bool, int, bool, int]:
    """Static issue metadata, cached on the instruction object.

    Register sets are encoded as integer bitmasks (one bit per
    architectural register, see ``_CLS_BIT``) so the per-dynamic-
    instruction dependency checks are single ``&``/``|`` operations.
    """
    reads = 0
    for r in instr.ins:
        reads |= 1 << (_CLS_BIT[r.cls] + r.index)
    writes = 0
    for r in instr.outs:
        writes |= 1 << (_CLS_BIT[r.cls] + r.index)
    if instr.qp:
        reads |= 1 << (128 + instr.qp)
    reads &= ~_HARDWIRED
    writes &= ~_HARDWIRED
    pr_writes = writes & _PR_ALL
    kind = instr.kind
    meta = (
        reads,
        writes,
        pr_writes,
        instr.is_mem,
        1 if kind is OpKind.LOAD else (2 if kind is OpKind.STORE else 0),
        kind is OpKind.BRANCH,
        # movl carries a 64-bit immediate and occupies two bundle slots
        # on real IA-64 (L+X unit); the instrumentation's tag-mask
        # constants make this cost matter.
        2 if instr.op == "movl" else 1,
    )
    instr._perf_meta = meta  # cached: instructions are reused every iteration
    return meta


class IssueModel:
    """Greedy in-order issue-group builder with role attribution."""

    def __init__(self, counters: PerfCounters, config: IssueConfig | None = None) -> None:
        self.counters = counters
        self.config = config or IssueConfig()
        #: Open group members as their RoleCost buckets (the bucket is
        #: resolved at issue time anyway, and storing it directly makes
        #: the close-time share attribution a plain attribute add).
        self._group: list[RoleCost] = []
        self._group_writes = 0  # register bitmask (see _perf_meta)
        self._group_pr_writes = 0
        self._group_mem = 0
        self._group_slots = 0

    def issue(self, instr: Instruction, mem_stall: float = 0.0, taken_branch: bool = False) -> None:
        """Account one dynamically executed instruction."""
        meta = getattr(instr, "_perf_meta", None)
        if meta is None:
            meta = _perf_meta(instr)
        reads, writes, pr_writes, is_mem, memkind, is_branch, slots = meta
        # conflict is the overlap between this instruction's registers
        # and the open group's writes; a branch is exempt when the
        # overlap is entirely predicate writes (cmp -> branch pairing).
        conflict = self._group_writes & (reads | writes)
        if (
            conflict
            and is_branch
            and self.config.cmp_branch_same_group
            and not (conflict & ~self._group_pr_writes)
        ):
            conflict = 0
        structural = (
            self._group_slots + slots > self.config.width
            or (is_mem and self._group_mem >= self.config.mem_ports)
        )
        if conflict or structural:
            self._close_group()
        c = self.counters
        cost = c.pair(instr.role, instr.origin)
        self._group.append(cost)
        self._group_slots += slots
        self._group_writes |= writes
        if pr_writes:
            self._group_pr_writes |= pr_writes
        if is_mem:
            self._group_mem += 1
        c.instructions += 1
        cost.slots += 1
        if memkind == 1:
            c.loads += 1
        elif memkind == 2:
            c.stores += 1
        if mem_stall:
            c.stall_cycles += mem_stall
            cost.stall_cycles += mem_stall
        if taken_branch:
            c.branches_taken += 1
            c.branch_penalty_cycles += self.config.branch_penalty
            self._close_group()

    def _close_group(self) -> None:
        group = self._group
        if not group:
            return
        c = self.counters
        c.groups += 1
        c.issue_cycles += 1.0
        share = 1.0 / len(group)
        for cost in group:
            cost.issue_cycles += share
        # Cleared in place: the predecoded engine's fused blocks bind the
        # list object itself, so its identity must never change.
        group.clear()
        self._group_writes = 0
        self._group_pr_writes = 0
        self._group_mem = 0
        self._group_slots = 0

    def flush(self) -> None:
        """Close any open group (call at end of run / before syscalls)."""
        self._close_group()


#: Public alias used by the predecoded engine, which replicates
#: ``IssueModel.issue`` inline inside its generated blocks and needs the
#: same static metadata tuples (cached on the instruction) to stay
#: bit-identical with the reference accounting.
perf_meta = _perf_meta
