"""Predecoded engine: compile instructions to generated closures once.

The reference interpreter pays a per-step tax that has nothing to do
with the guest's work: dict dispatch on the mnemonic, re-reading operand
``Reg`` objects, a ``getattr`` for cached issue metadata, and a method
call into :class:`~repro.cpu.perf.IssueModel` whose conflict masks and
config limits are re-fetched every instruction.  This module removes all
of it by *predecoding*: a straight-line run of instructions is rendered
once into the source of one specialized function (a block).  Operand
indices, immediates, dependency bitmasks, branch-target pcs and the
issue-model limits are embedded as literals, and the issue accounting is
inlined, so the hot path makes no calls besides memory/cache accesses
and guest-OS handlers.

One renderer, two tables.  :func:`predecode` is the per-pc table: every
entry runs a block of at most one instruction.  :func:`predecode_fused`
is the fused table: block leaders run blocks of up to ``MAX_BLOCK``
instructions, every other entry is ``None`` and the run loop uses the
per-pc entry there.  Both tables start as trampolines that build a
block on its first execution, and both share one per-program source
cache keyed by every machine value the renderer embeds.  Generated
sources compile once per process (a source -> code-object cache).

Block contract: ``block(pc) -> next_pc``.  A block ends at its first
control transfer of any kind (direct or indirect branch, ``chk.s``,
``break``) and includes it.  Only ``break`` blocks can change
``halted``/``yield_requested`` (their handlers run the guest OS), and
those return ``~next_pc`` — a negative sentinel telling the run loop to
check the flags.  Every other block returns the next pc directly, so
the hot loop carries no per-step flag loads.  A block that raises sets
``cpu._fault_pc`` to the pc of the instruction that raised first.

Equivalence rules (enforced by tests/test_engine_differential.py):

* Issue accounting replicates ``IssueModel.issue`` exactly.  Up to a
  block's sync point (the first member that closes the group whatever
  the incoming group held) it runs at run time on block locals
  (``_group_writes``, ``_group_pr_writes``, ``_group_mem``,
  ``_group_slots``) with the group close inlined.  After it, groups
  are render-time facts: closes, shares (as literals, chained per
  bucket in reference order) and slot/load/store counts are batched
  and flushed before every member that can raise and at every exit.
  Every exit hands the open group and the instruction count to the
  shared ``IssueModel`` — the fault path with the partial count and the
  group open at the faulting member — and a ``break`` does so before
  its handler runs, so reference-path execution (``CPU._execute``
  fallbacks, the reference engine's ``step()``), checkpoints taken
  inside handlers and the thread scheduler all see exact state.
* ``pair_costs`` buckets are created lazily on first execution, never at
  predecode time, so the set of (role, origin) keys matches the
  reference run bit-for-bit.
* r0 sources are folded to the constant 0 with a clear NaT — exactly
  the reference semantics (``_exec_alu`` appends a literal 0 and skips
  the NaT read; ``_exec_cmp`` goes through ``read_gr``/``read_nat``).
* Anything with an unusual shape (r0 destinations, unresolvable labels,
  malformed operand lists, unknown mnemonics, a ``break`` with no
  handler) ends a block before it, and its per-pc entry delegates to
  ``CPU._execute`` — slower, but by construction identical, and safe to
  interleave because ``IssueModel.issue`` uses the shared group state.
* Observability stays on the cold path: tracer/fault hooks are only
  consulted by the run loop's fault handler and the guest-OS handlers,
  exactly as in the reference loop.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cpu.core import (
    _ALU_FUNCS,
    BREAK_NATIVE_BASE,
    BREAK_SYSCALL,
    CODE_SLOT_BYTES,
    CPU,
    MASK64,
    code_address,
    to_signed,
)
from repro.cpu.faults import Fault, IllegalInstructionFault, NaTConsumptionFault
from repro.cpu.perf import RoleCost, perf_meta
from repro.isa.instruction import Instruction, LOAD_SIZES, OP_KIND, OpKind, STORE_SIZES
from repro.mem.address import IMPL_MASK, is_implemented
from repro.mem.memory import MemoryError_

Uop = Callable[[int], int]

_M = hex(MASK64)

#: Maximum instructions fused into one block (a terminating branch
#: included).  CPU.run_slice uses it as its budget guard band so blocks
#: never overrun a slice.
MAX_BLOCK = 24

#: Generated-source -> compiled code object.  Process-wide: identical
#: block shapes across machines share one compilation.  Bounded by
#: ``FACTORY_CACHE_MAX``, evicting oldest-first; an evicted source just
#: compiles again.
_FACTORY_CACHE: dict = {}
FACTORY_CACHE_MAX = 16384

#: Shared objects every generated factory receives (becoming closure
#: variables of the block).  ``fns`` is per-block: the reference ALU
#: functions of its members, by member offset.
_PARAMS = ("gr, nats, pr, br, im, counters, group, pair_costs, RoleCost, "
           "mem_load, mem_store, cache_access, fwd, recent, cpu, to_signed, "
           "is_implemented, NaTConsumptionFault, Fault, "
           "IllegalInstructionFault, MemoryError_, tag_watch, "
           "spec_ranges, spec_check, syscall, native, fns")


def _render(lines: List[str], cells) -> str:
    body = "".join(f"        {ln}\n" for ln in lines)
    decls = "".join(f"    {c} = None\n" for c in cells)
    shared = f"        nonlocal {', '.join(cells)}\n" if cells else ""
    return (
        f"def _f({_PARAMS}):\n"
        + decls +
        "    def uop(pc):\n"
        + shared
        + body +
        "    return uop\n"
    )


def _indent(lines: List[str]) -> List[str]:
    return ["    " + ln for ln in lines]


def _meta(instr: Instruction):
    meta = getattr(instr, "_perf_meta", None)
    if meta is None:
        meta = perf_meta(instr)
    return meta


# -- operand descriptors ---------------------------------------------------
# A source operand is an int (a value known at predecode time: r0 or an
# immediate) or a str (a runtime expression like "gr[5]").

def _gr_src(i: int):
    return 0 if i == 0 else f"gr[{i}]"


def _s(d) -> str:
    return hex(d) if isinstance(d, int) else d


def _ts(d) -> str:
    return str(to_signed(d)) if isinstance(d, int) else f"to_signed({d})"


_UNARY = {"mov", "sxt1", "sxt2", "sxt4", "zxt1", "zxt2", "zxt4"}
_SIMPLE1 = {
    "mov": "{a}",
    "zxt1": "{a} & 0xFF",
    "zxt2": "{a} & 0xFFFF",
    "zxt4": "{a} & 0xFFFFFFFF",
}
_SIMPLE2 = {
    "add": "({a} + {b}) & {m}",
    "adds": "({a} + {b}) & {m}",
    "sub": "({a} - {b}) & {m}",
    "and": "{a} & {b}",
    "andcm": "{a} & ~{b} & {m}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "mul": "({sa} * {sb}) & {m}",
}
_SXT_BITS = {"sxt1": 8, "sxt2": 16, "sxt4": 32}

_REL_FMT = {
    "eq": "{a} == {b}",
    "ne": "{a} != {b}",
    "ltu": "{a} < {b}",
    "geu": "{a} >= {b}",
    "lt": "{sa} < {sb}",
    "le": "{sa} <= {sb}",
    "gt": "{sa} > {sb}",
    "ge": "{sa} >= {sb}",
}


def _alu_sem(op: str, dest: int, ins_idx, imm,
             fn_name: str) -> Optional[List[str]]:
    """Value + NaT lines for a generic ALU op, or None to fall back."""
    if op not in _ALU_FUNCS:
        return None
    srcs = [_gr_src(i) for i in ins_idx]
    if imm is not None:
        srcs.append(imm)
    if len(srcs) < (1 if op in _UNARY else 2):
        return None  # reference raises IndexError; fallback reproduces it
    if all(isinstance(d, int) for d in srcs):
        # Every source is known: fold through the reference ALU table.
        const = _ALU_FUNCS[op](srcs)
        val = [f"gr[{dest}] = {hex(const)}"]
    else:
        a = srcs[0]
        b = srcs[1] if len(srcs) > 1 else None
        if op in _SIMPLE1:
            val = [f"gr[{dest}] = " + _SIMPLE1[op].format(a=_s(a), m=_M)]
        elif op in _SIMPLE2:
            val = [f"gr[{dest}] = " + _SIMPLE2[op].format(
                a=_s(a), b=_s(b), sa=_ts(a), sb=_ts(b), m=_M)]
        elif op in _SXT_BITS:
            bits = _SXT_BITS[op]
            top, mask = 1 << (bits - 1), (1 << bits) - 1
            val = [
                f"v = {_s(a)} & {hex(mask)}",
                f"gr[{dest}] = (v - {hex(mask + 1)}) & {_M} "
                f"if v >= {hex(top)} else v",
            ]
        elif op == "shl":
            if isinstance(b, int):
                val = [f"gr[{dest}] = "
                       + (f"({_s(a)} << {b}) & {_M}" if b < 64 else "0")]
            else:
                val = [
                    f"b = {b}",
                    f"gr[{dest}] = ({_s(a)} << b) & {_M} if b < 64 else 0",
                ]
        elif op == "shr":
            if isinstance(b, int):
                val = [f"gr[{dest}] = ({_ts(a)} >> {b if b < 63 else 63})"
                       f" & {_M}"]
            else:
                val = [
                    f"b = {b}",
                    f"gr[{dest}] = ({_ts(a)} >> (b if b < 63 else 63))"
                    f" & {_M}",
                ]
        elif op == "shr.u":
            if isinstance(b, int):
                val = [f"gr[{dest}] = "
                       + (f"{_s(a)} >> {b}" if b < 64 else "0")]
            else:
                val = [
                    f"b = {b}",
                    f"gr[{dest}] = {_s(a)} >> b if b < 64 else 0",
                ]
        else:
            # div/mod (and anything new): call the reference lambda with
            # the full source tuple, exactly like _exec_alu.
            argsrc = ", ".join(_s(d) for d in srcs)
            if len(srcs) == 1:
                argsrc += ","
            val = [f"gr[{dest}] = {fn_name}(({argsrc}))"]
    terms = [f"nats[{i}]" for i in ins_idx if i]
    val.append(f"nats[{dest}] = " + (" or ".join(terms) or "False"))
    return val


def _tnat_sem(i0: int, pt: int, pf: int) -> List[str]:
    """Predicate-write lines for tnat (r0 source folds to a constant)."""
    if i0:
        if pt and pf:
            return [f"r = nats[{i0}]", f"pr[{pt}] = r", f"pr[{pf}] = not r"]
        if pt:
            return [f"pr[{pt}] = nats[{i0}]"]
        if pf:
            return [f"pr[{pf}] = not nats[{i0}]"]
        return []
    return [ln for ln in ((f"pr[{pt}] = False" if pt else None),
                          (f"pr[{pf}] = True" if pf else None)) if ln]


def _cmp_sem(op: str, pt: int, pf: int, ins_idx, imm) -> Optional[List[str]]:
    """Predicate-write lines for cmp/tcmp, or None to fall back."""
    if "." not in op:
        return None
    rel = op.split(".", 1)[1]
    if rel not in _REL_FMT:
        return None
    srcs = [_gr_src(i) for i in ins_idx]
    if imm is not None:
        srcs.append(imm)
    if len(srcs) < 2:
        return None
    a, b = srcs[0], srcs[1]
    if isinstance(a, int) and isinstance(b, int):
        rexpr = str(bool(CPU._RELOPS[rel](a, b)))
    else:
        rexpr = _REL_FMT[rel].format(a=_s(a), b=_s(b), sa=_ts(a), sb=_ts(b))
    if pt and pf:
        direct = [f"r = {rexpr}", f"pr[{pt}] = r", f"pr[{pf}] = not r"]
    elif pt:
        direct = [f"pr[{pt}] = {rexpr}"]
    elif pf:
        direct = [f"pr[{pf}] = not ({rexpr})"]
    else:
        direct = []
    terms = [f"nats[{i}]" for i in ins_idx if i]
    if op.startswith("tcmp.") or not terms or not direct:
        return direct
    # Itanium behaviour: a NaT source clears both predicates.
    clear = [ln for ln in ((f"pr[{pt}] = False" if pt else None),
                           (f"pr[{pf}] = False" if pf else None)) if ln]
    return (["if " + " or ".join(terms) + ":"]
            + _indent(clear)
            + ["else:"]
            + _indent(direct))


def _make_forwarding(cpu: CPU):
    """Replica of ``CPU._forwarding_stall`` with config bound as locals."""
    config = cpu.issue.config
    penalty = config.store_forward_penalty
    fpenalty = float(penalty)
    window = config.store_forward_window
    recent = cpu._recent_stores

    def fwd(addr, size, now):
        if not recent or not penalty:
            return 0.0
        for st_addr, st_size, seq in recent:
            if (now - seq <= window and addr < st_addr + st_size
                    and st_addr < addr + size):
                return fpenalty
        return 0.0

    return fwd



def _shared_args(cpu: CPU) -> tuple:
    """Positional args matching ``_PARAMS`` up to the per-block ``fns``."""
    im = cpu.issue
    counters = cpu.counters
    return (cpu.gr, cpu.nat, cpu.pr, cpu.br, im, counters, im._group,
            counters.pair_costs, RoleCost, cpu.memory.load, cpu.memory.store,
            cpu.caches.access, _make_forwarding(cpu), cpu._recent_stores,
            cpu, to_signed, is_implemented, NaTConsumptionFault, Fault,
            IllegalInstructionFault, MemoryError_, cpu.tag_watch,
            cpu.spec_ranges, cpu.spec_check, cpu.syscall_handler,
            cpu.native_handler)


def _make_fallback(cpu: CPU, instr: Instruction) -> Uop:
    """Delegate to the reference executor (identical by construction)."""
    execute = cpu._execute

    def fallback(pc):
        cpu.pc = cpu._fault_pc = pc
        execute(instr)
        return cpu.pc

    return fallback


def _resolve(program, label) -> Optional[int]:
    try:
        return program.label_index(label)
    except Exception:
        return None  # fall back; the reference path reproduces the error


# -- block rendering -------------------------------------------------------
#
# Within a block the issue-group state lives in plain locals
# (``gw``/``pw``/``mm``/``sl``), the group close is inlined, and
# ``counters.instructions`` is batched into one store at block exit
# (members that need the live value — store-buffer sequence numbers —
# use ``ci + j`` with the member's static offset).  The shared
# ``IssueModel`` state is reloaded at entry and written back at every
# exit (including the fault path), so blocks interleave freely with each
# other, reference steps and the thread scheduler.
#
# Those locals are only needed up to the block's *sync point*: the
# first member at which every possible state of the incoming group
# closes (see :class:`_Schedule`).  From there on the schedule is a
# render-time fact, so later members emit no accounting of their own:
# the renderer batches their slots, loads/stores and closed groups
# (shares as literals) into flushes placed before every member that can
# raise and at every exit, and exits publish the still-open group as
# literals.

_PLAIN_KINDS = frozenset((OpKind.ALU, OpKind.CMP, OpKind.LOAD, OpKind.STORE,
                          OpKind.MOVBR, OpKind.MOVAR, OpKind.NOP))

#: Inline replica of ``IssueModel._close_group`` on the shared ``group``.
_CLOSE = [
    "counters.groups += 1",
    "counters.issue_cycles += 1.0",
    "share = 1.0 / len(group)",
    "for c_ in group:",
    "    c_.issue_cycles += share",
    "group.clear()",
]


def _close_local() -> List[str]:
    """``_CLOSE`` plus the block-local mask reset, if the group is open.

    Resetting the masks only when the group is non-empty matches the
    reference: an empty group always has zero masks (the invariant holds
    because masks are only set right after an append).
    """
    return ["if group:"] + _indent(_CLOSE + ["gw = 0", "pw = 0", "mm = 0",
                                            "sl = 0"])


_LOAD_LOCALS = ["gw = im._group_writes", "pw = im._group_pr_writes",
                "mm = im._group_mem", "sl = im._group_slots"]
_STORE_LOCALS = ["im._group_writes = gw", "im._group_pr_writes = pw",
                 "im._group_mem = mm", "im._group_slots = sl"]


def _writeback(total) -> List[str]:
    """Flush block-local issue state back to the shared model."""
    return _STORE_LOCALS + [f"counters.instructions = ci + {total}"]


def _closes(cfg, meta, gw, pw, mm, sl) -> bool:
    """``IssueModel.issue``'s close rule on render-time group state."""
    reads, writes, _, is_mem, _, is_branch, slots = meta
    conflict = gw & (reads | writes)
    if (conflict and is_branch and cfg.cmp_branch_same_group
            and not conflict & ~pw):
        conflict = 0
    return bool(conflict or sl + slots > cfg.width
                or (is_mem and mm >= cfg.mem_ports))


def _joined(meta, gw=0, pw=0, mm=0, sl=0) -> tuple:
    """Group state ``(gw, pw, mm, sl)`` after a member with ``meta``."""
    _, writes, prw, is_mem, _, _, slots = meta
    return gw | writes, pw | prw, mm + (1 if is_mem else 0), sl + slots


class _Schedule:
    """Render-time issue-group schedule along one path through a block.

    Until the sync point the incoming group is unknown, so members keep
    run-time accounting and ``starts`` tracks every possible start of
    the open group: ``None`` (the incoming group is still open; its
    state holds only the block's own members) or the offset of a member
    where a run-time close may have happened.  Extra incoming members
    can only add conflicts, so a close the known part forces is certain.
    The first member at which every possibility closes is the sync
    point (``starts`` becomes None): it closes at run time
    unconditionally and opens a group whose members, size and
    boundaries are all known here.  From then on the renderer keeps
    ``group`` (the open group's bucket cells), its ``state`` and the
    accounting still to be emitted, which :meth:`flush` and
    :meth:`publish` turn into literal lines.
    """

    def __init__(self, cfg) -> None:
        self.cfg = cfg
        self.starts: Optional[dict] = {None: (0, 0, 0, 0)}
        self.group: List[str] = []
        self.state = (0, 0, 0, 0)
        #: cell -> [pending slot count, pending share literals in order]
        self.pending: dict = {}
        self.groups = self.loads = self.stores = 0

    @property
    def synced(self) -> bool:
        return self.starts is None

    def copy(self) -> "_Schedule":
        other = _Schedule.__new__(_Schedule)
        other.__dict__.update(self.__dict__)
        other.starts = None if self.starts is None else dict(self.starts)
        other.group = list(self.group)
        other.pending = {c: [n, list(s)] for c, (n, s)
                         in self.pending.items()}
        return other

    def advance(self, meta, j: int) -> bool:
        """Step the possible starts over member ``j``; True if it syncs."""
        nxt: dict = {}
        for start, state in self.starts.items():
            if _closes(self.cfg, meta, *state):
                nxt[j] = _joined(meta)
            else:
                nxt[start] = _joined(meta, *state)
                if start is None:
                    nxt[j] = _joined(meta)  # the incoming group may close
        if list(nxt) != [j]:
            self.starts = nxt
            return False
        self.starts = None
        return True

    def issue(self, meta, cell: str) -> None:
        """Account one member statically (at or after the sync point)."""
        if self.group and _closes(self.cfg, meta, *self.state):
            self.close()
        self.group.append(cell)
        self.state = _joined(meta, *self.state)
        self.pending.setdefault(cell, [0, []])[0] += 1
        if meta[4] == 1:
            self.loads += 1
        elif meta[4] == 2:
            self.stores += 1

    def close_lines(self) -> List[str]:
        """Close the open group: statically once synced, else at run time."""
        if not self.synced:
            return _close_local()
        self.close()
        return []

    def close(self) -> None:
        share = repr(1.0 / len(self.group))
        for cell in self.group:
            self.pending.setdefault(cell, [0, []])[1].append(share)
        self.groups += 1
        self.group = []
        self.state = (0, 0, 0, 0)

    def flush(self) -> List[str]:
        """Emit and clear the pending accounting.

        Each bucket's shares become one chained add, so its float
        additions happen in exactly the reference order; every other
        batched add is integral and therefore exact.
        """
        out = []
        if self.groups:
            out += [f"counters.groups += {self.groups}",
                    f"counters.issue_cycles += {float(self.groups)!r}"]
        if self.loads:
            out.append(f"counters.loads += {self.loads}")
        if self.stores:
            out.append(f"counters.stores += {self.stores}")
        for cell, (slots, shares) in self.pending.items():
            if slots:
                out.append(f"{cell}.slots += {slots}")
            if shares:
                out.append(f"{cell}.issue_cycles = "
                           + " + ".join([f"{cell}.issue_cycles"] + shares))
        self.pending = {}
        self.groups = self.loads = self.stores = 0
        return out

    def publish(self) -> List[str]:
        """Hand the open group to the shared ``IssueModel`` as literals."""
        group = self.group
        if len(group) == 1:
            out = [f"group.append({group[0]})"]
        elif group:
            out = [f"group.extend(({', '.join(group)}))"]
        else:
            out = []
        gw, pw, mm, sl = self.state
        return out + [f"im._group_writes = {hex(gw)}",
                      f"im._group_pr_writes = {hex(pw)}",
                      f"im._group_mem = {mm}",
                      f"im._group_slots = {sl}"]

    def exit(self, total: int) -> List[str]:
        """Lines that publish the path's state at a block exit."""
        if not self.synced:
            return _writeback(total)
        return (self.flush() + self.publish()
                + [f"counters.instructions = ci + {total}"])


def _build_block(cpu: CPU, start: int, max_len: int):
    """Render the block led by ``start``: ``(source, fns, conts)``.

    The block holds at most ``max_len`` instructions.  ``source`` is
    None when the first instruction does not render (the per-pc table
    then delegates it to the reference executor).  ``conts`` are
    pcs after a block that ended without a control transfer: they may
    lead blocks the fused table's leader scan cannot see.
    """
    program = cpu.program
    code = program.code
    n = len(code)
    cfg = cpu.issue.config
    cells: List[str] = []
    key_local: dict = {}
    fns: list = []
    #: (offset, fault-path publish lines) of members that can raise;
    #: None where the block-local state is still the run-time one.
    raisers: list = []

    def use_key(key):
        cname = key_local.get(key)
        if cname is not None:
            return cname, []
        idx = len(cells)
        cname = f"c{idx}"
        kname = f"k{idx}"
        cells.append(kname)
        key_local[key] = cname
        return cname, [
            f"{cname} = {kname}",
            f"if {cname} is None:",
            f"    {cname} = pair_costs.get({key!r})",
            f"    if {cname} is None:",
            f"        {cname} = pair_costs[{key!r}] = RoleCost()",
            f"    {kname} = {cname}",
        ]

    def account(instr, sched, j, stall=False, taken=False):
        """Issue accounting of member ``j`` on the path ``sched`` renders."""
        meta = _meta(instr)
        reads, writes, prw, is_mem, memkind, is_branch, slots = meta
        cname, res = use_key((instr.role, instr.origin))
        if sched.synced:
            out = res
            sched.issue(meta, cname)
        elif sched.advance(meta, j):
            # Past member 0 the group holds at least the member before.
            out = (_CLOSE if j else ["if group:"] + _indent(_CLOSE)) + res
            sched.issue(meta, cname)
        else:
            rw = reads | writes
            conds = []
            if rw:
                if is_branch and cfg.cmp_branch_same_group:
                    # A branch conflicting only on predicate writes may
                    # issue in the same group as the compare that
                    # produced them.
                    conds.append(f"gw & {hex(rw)} & ~pw")
                else:
                    conds.append(f"gw & {hex(rw)}")
            conds.append(f"sl + {slots} > {cfg.width}")
            if is_mem:
                conds.append(f"mm >= {cfg.mem_ports}")
            out = ["if " + " or ".join(conds) + ":"] + _indent(_close_local())
            out += res
            out += [f"group.append({cname})", f"sl += {slots}"]
            if writes:
                out.append(f"gw |= {hex(writes)}")
            if prw:
                out.append(f"pw |= {hex(prw)}")
            if is_mem:
                out.append("mm += 1")
            out.append(f"{cname}.slots += 1")
            if memkind == 1:
                out.append("counters.loads += 1")
            elif memkind == 2:
                out.append("counters.stores += 1")
        if stall:
            out += ["if stall:",
                    "    counters.stall_cycles += stall",
                    f"    {cname}.stall_cycles += stall"]
        if taken:
            out += ["counters.branches_taken += 1",
                    f"counters.branch_penalty_cycles += "
                    f"{cfg.branch_penalty!r}"]
            out += sched.close_lines()
        return out

    def plain_fragment(instr, j):
        """``(semantics, stall, raises)`` of a plain member, or None."""
        op = instr.op
        kind = OP_KIND[op]
        qp = instr.qp
        sem = None
        stall = raises = False
        if kind is OpKind.ALU:
            if not instr.outs:
                return None
            dest = instr.outs[0].index
            if op == "movl":
                imm = (instr.imm or 0) & MASK64
                sem = [f"gr[{dest}] = {hex(imm)}",
                       f"nats[{dest}] = False"]
            elif op == "settag":
                sem = [f"nats[{dest}] = True"]
            elif op == "cleartag":
                sem = [f"nats[{dest}] = False"]
            elif dest != 0:
                ins_idx = tuple(r.index for r in instr.ins)
                imm = (instr.imm & MASK64
                       if instr.imm is not None else None)
                sem = _alu_sem(op, dest, ins_idx, imm,
                               fn_name=f"fns[{j}]")
            if sem is None:
                return None
        elif kind is OpKind.CMP:
            if len(instr.outs) != 2 or not instr.ins:
                return None
            pt, pf = instr.outs[0].index, instr.outs[1].index
            if op == "tnat":
                sem = _tnat_sem(instr.ins[0].index, pt, pf)
            else:
                ins_idx = tuple(r.index for r in instr.ins)
                imm = (instr.imm & MASK64
                       if instr.imm is not None else None)
                sem = _cmp_sem(op, pt, pf, ins_idx, imm)
            if sem is None:
                return None
        elif kind is OpKind.LOAD:
            if not instr.ins or not instr.outs:
                return None
            size = LOAD_SIZES[op]
            ia = instr.ins[0].index
            dest = instr.outs[0].index
            if dest == 0:
                return None  # reference faults in write_gr
            addr = _s(_gr_src(ia))
            if op == "ld8.s":
                defer = (f"nats[{ia}] or not is_implemented(addr)"
                         if ia else "not is_implemented(addr)")
                sem = [f"ipc = pc + {j}",
                       f"addr = {addr}",
                       f"if {defer}:",
                       f"    gr[{dest}] = 0",
                       f"    nats[{dest}] = True",
                       "    stall = 0.0",
                       "else:",
                       "    if spec_ranges:",
                       f"        spec_check(addr, {size})",
                       f"    value = mem_load(addr, {size})",
                       f"    stall = cache_access(addr, {size})",
                       f"    gr[{dest}] = value",
                       f"    nats[{dest}] = False"]
            else:
                nat_dest = (
                    f"nats[{dest}] = bool((cpu.unat >> ((addr >> 3)"
                    " & 63)) & 1)"
                    if op == "ld8.fill" else f"nats[{dest}] = False")
                sem = [f"ipc = pc + {j}", f"addr = {addr}"]
                if ia:
                    sem += [f"if nats[{ia}]:",
                            "    raise NaTConsumptionFault"
                            "(\"load_addr\")"]
                sem += ["if spec_ranges:",
                        f"    spec_check(addr, {size})",
                        "try:",
                        f"    value = mem_load(addr, {size})",
                        "except MemoryError_ as exc:",
                        "    raise Fault(f\"load fault: {exc}\")"
                        " from exc",
                        f"stall = cache_access(addr, {size})"
                        f" + fwd(addr, {size}, ci + {j})",
                        f"gr[{dest}] = value",
                        nat_dest]
            raises = stall = True
        elif kind is OpKind.STORE:
            if len(instr.ins) < 2:
                return None
            size = STORE_SIZES[op]
            ia, iv = instr.ins[0].index, instr.ins[1].index
            sem = [f"ipc = pc + {j}",
                   f"addr = {_s(_gr_src(ia))}"]
            if ia:
                sem += [f"if nats[{ia}]:",
                        "    raise NaTConsumptionFault"
                        "(\"store_addr\")"]
            if op == "st8.spill":
                sem.append("bit = (addr >> 3) & 63")
                if iv:
                    sem += [f"if nats[{iv}]:",
                            "    cpu.unat |= 1 << bit",
                            "else:",
                            "    cpu.unat &= ~(1 << bit)"]
                else:
                    sem.append("cpu.unat &= ~(1 << bit)")
            elif iv:
                sem += [f"if nats[{iv}]:",
                        "    raise NaTConsumptionFault"
                        "(\"store_value\")"]
            sem += ["if spec_ranges:",
                    f"    spec_check(addr, {size})"]
            if cpu.tag_watch is not None:
                sem += [f"if addr < {cpu.tag_limit}:",
                        f"    tag_watch(addr, {size}, "
                        f"{_s(_gr_src(iv))})"]
            sem += ["try:",
                    f"    mem_store(addr, {size}, {_s(_gr_src(iv))})",
                    "except MemoryError_ as exc:",
                    "    raise Fault(f\"store fault: {exc}\") from exc",
                    f"recent.append((addr, {size}, ci + {j}))",
                    "if len(recent) > 4:",
                    "    recent.pop(0)",
                    f"stall = cache_access(addr, {size})"]
            raises = stall = True
        elif kind is OpKind.MOVBR:
            if not instr.ins or not instr.outs:
                return None
            if op == "mov.tobr":
                i0 = instr.ins[0].index
                ob = instr.outs[0].index
                if i0:
                    sem = [f"ipc = pc + {j}",
                           f"if nats[{i0}]:",
                           "    raise NaTConsumptionFault"
                           "(\"branch_move\")",
                           f"br[{ob}] = gr[{i0}]"]
                    raises = True
                else:
                    sem = [f"br[{ob}] = 0"]
            else:
                dest = instr.outs[0].index
                if dest == 0:
                    return None
                sem = [f"gr[{dest}] = br[{instr.ins[0].index}] & {_M}",
                       f"nats[{dest}] = False"]
        elif kind is OpKind.MOVAR:
            if op == "mov.toar":
                if not instr.ins:
                    return None
                i0 = instr.ins[0].index
                if i0:
                    sem = [f"ipc = pc + {j}",
                           f"if nats[{i0}]:",
                           "    raise NaTConsumptionFault(\"ar_move\")",
                           f"cpu.unat = gr[{i0}]"]
                    raises = True
                else:
                    sem = ["cpu.unat = 0"]
            else:
                if not instr.outs or instr.outs[0].index == 0:
                    return None
                dest = instr.outs[0].index
                sem = [f"gr[{dest}] = cpu.unat & {_M}",
                       f"nats[{dest}] = False"]
        else:  # NOP
            sem = []
        if qp:
            # Predicated-off: no architectural effect, but the slot is
            # still consumed with the same meta-driven accounting.
            if stall:
                out = ([f"if pr[{qp}]:"] + _indent(sem)
                       + ["else:", "    stall = 0.0"])
            elif sem:
                out = [f"if pr[{qp}]:"] + _indent(sem)
            else:
                out = []
        else:
            out = sem
        return out, stall, raises

    def term_fragment(instr, i, j, sched):
        """``(body, tail)`` for a block-ending instruction, or None.

        ``body`` takes the transfer's accounting and writeback, and
        returns on every path that cannot raise afterwards; ``tail``
        runs outside the members' fault handler and holds what follows
        the writeback: an indirect target check or a handler call.  The
        taken and fall-through paths render from copies of ``sched``.
        """
        op = instr.op
        kind = OP_KIND[op]
        if kind is OpKind.SYS:
            imm = instr.imm or 0
            if imm == BREAK_SYSCALL and cpu.syscall_handler is not None:
                call = "syscall(cpu)"
            elif imm >= BREAK_NATIVE_BASE and cpu.native_handler is not None:
                call = f"native(cpu, {imm - BREAK_NATIVE_BASE})"
            else:
                return None
        elif kind is OpKind.CHK:  # chk.s
            if not instr.ins:
                return None
            i0 = instr.ins[0].index
            tidx = _resolve(program, instr.target) if i0 else None
            if i0 and tidx is None:
                return None
        elif op in ("br", "br.cond", "br.call"):
            tidx = _resolve(program, instr.target)
            if tidx is None or (op == "br.call" and not instr.outs):
                return None
        elif op in ("br.call.ind", "br.ret", "br.ind"):
            if not instr.ins or (op == "br.call.ind" and not instr.outs):
                return None
        else:
            return None
        # The bucket lookup goes first so both paths share its cell.
        _, pre = use_key((instr.role, instr.origin))
        off_s, on_s = sched.copy(), sched.copy()
        off = (account(instr, off_s, j) + off_s.exit(j + 1)
               + [f"return pc + {j + 1}"])
        skip = [f"not pr[{instr.qp}]"] if instr.qp else []
        tail: List[str] = []
        ret = [f"br[{instr.outs[0].index}] = {hex(code_address(i + 1))}"
               ] if op in ("br.call", "br.call.ind") else []
        if kind is OpKind.SYS:
            # Close the group and publish the block's state before the
            # guest OS runs: handlers read counters and may checkpoint.
            on = (account(instr, on_s, j) + on_s.close_lines()
                  + on_s.exit(j + 1))
            tail = [f"cpu.pc = pc + {j}",
                    "try:",
                    f"    {call}",
                    "except BaseException:",
                    f"    cpu._fault_pc = pc + {j}",
                    "    raise",
                    f"return ~(pc + {j + 1})"]
        elif op in ("br.call.ind", "br.ret", "br.ind"):
            on = ([f"t = (br[{instr.ins[0].index}] & {hex(IMPL_MASK)})"
                   f" // {CODE_SLOT_BYTES} - 1"] + ret
                  + account(instr, on_s, j, taken=True) + on_s.exit(j + 1))
            tail = [f"if 0 <= t < {n}:",
                    "    return t",
                    f"cpu._fault_pc = pc + {j}",
                    "raise IllegalInstructionFault("
                    "f\"indirect branch to invalid slot {t}\")"]
        elif kind is OpKind.CHK and not i0:
            return pre + off, tail  # r0 has no NaT: never taken
        else:
            if kind is OpKind.CHK:
                skip.append(f"not nats[{i0}]")
            on = (ret + account(instr, on_s, j, taken=True)
                  + on_s.exit(j + 1) + [f"return {tidx}"])
        if skip:
            pre += [f"if {' or '.join(skip)}:"] + _indent(off)
        return pre + on, tail


    sched = _Schedule(cfg)
    body: List[str] = []
    tail: List[str] = []
    i = start
    j = 0
    term = None
    while i < n and j < max_len:
        instr = code[i]
        kind = OP_KIND[instr.op]
        if kind not in _PLAIN_KINDS:
            term = term_fragment(instr, i, j, sched)
            break
        frag = plain_fragment(instr, j)
        if frag is None:
            break
        sem, stall, raises = frag
        if raises:
            # A raise must find the counters exact: flush first, and let
            # the fault path publish the statically open group.
            if sched.synced:
                body += sched.flush()
                raisers.append((j, sched.publish()))
            else:
                raisers.append((j, None))
        body += sem + account(instr, sched, j, stall=stall)
        fns.append(_ALU_FUNCS.get(instr.op) if kind is OpKind.ALU else None)
        i += 1
        j += 1
    total = j + (term is not None)
    conts = (i, i + 1) if term is None else ()
    if not total:
        return None, (), conts
    if term is None:
        body += sched.exit(j) + [f"return pc + {j}"]
    else:
        body += term[0]
        tail = term[1]
    if raisers:
        handler = ["o = ipc - pc"]
        cond = "if"
        for o, publish in raisers:
            if publish is not None:
                handler += [f"{cond} o == {o}:"] + _indent(publish)
                cond = "elif"
        if any(p is None for _, p in raisers):
            handler += (["else:"] + _indent(_STORE_LOCALS)
                        if cond == "elif" else _STORE_LOCALS)
        body = (["try:"] + _indent(body)
                + ["except Fault:"]
                + _indent(handler + ["counters.instructions = ci + o",
                                     "cpu._fault_pc = ipc",
                                     "raise"]))
    body = _LOAD_LOCALS + ["ci = counters.instructions"] + body + tail
    return _render(body, cells), tuple(fns), conts


def _instantiate(src: str, shared: tuple, fns: tuple) -> Uop:
    code_obj = _FACTORY_CACHE.get(src)
    if code_obj is None:
        code_obj = _FACTORY_CACHE[src] = compile(src, "<predecode>", "exec")
        if len(_FACTORY_CACHE) > FACTORY_CACHE_MAX:
            del _FACTORY_CACHE[next(iter(_FACTORY_CACHE))]
    ns: dict = {}
    exec(code_obj, ns)
    return ns["_f"](*shared, fns)


def _lazy_table(cpu: CPU, max_len: int, leaders=None) -> List[Optional[Uop]]:
    """A pc-indexed table of blocks of at most ``max_len`` instructions.

    Entries start as one trampoline that builds (and installs) the block
    led by its pc on first execution, then runs it, so short-lived
    machines only pay codegen for the blocks they run.  Sources are
    cached on the program, keyed by every machine value the renderer
    embeds, so further machines running the same program skip source
    construction and only instantiate closures.  With ``leaders`` given,
    only those pcs (and continuations found while building) get a
    trampoline; the others, and leaders that do not render, stay
    ``None``.
    """
    program = cpu.program
    code = program.code
    n = len(code)
    cfg = cpu.issue.config
    key = (max_len, cfg.width, cfg.mem_ports, cfg.branch_penalty,
           cfg.cmp_branch_same_group,
           None if cpu.tag_watch is None else cpu.tag_limit,
           cpu.syscall_handler is not None, cpu.native_handler is not None)
    caches = getattr(program, "_predecode_src_cache", None)
    if caches is None:
        caches = program._predecode_src_cache = {}
    sources = caches.setdefault(key, {})
    shared = _shared_args(cpu)
    instances: dict = {}

    def trampoline(pc: int) -> int:
        entry = sources.get(pc)
        if entry is None:
            entry = sources[pc] = _build_block(cpu, pc, max_len)
        src, fns, conts = entry
        for c in conts:
            if 0 <= c < n and table[c] is None and c not in seen:
                seen.add(c)
                table[c] = trampoline
        if src is None:
            op = _make_fallback(cpu, code[pc]) if max_len == 1 else None
        else:
            op = instances.get((src, fns))
            if op is None:
                op = instances[src, fns] = _instantiate(src, shared, fns)
        table[pc] = op
        return (op or cpu._uops[pc])(pc)

    if leaders is None:
        table: List[Optional[Uop]] = [trampoline] * n
        seen: set = set()
    else:
        table = [None] * n
        seen = {pc for pc in leaders if 0 <= pc < n}
        for pc in seen:
            table[pc] = trampoline
    return table


def predecode(cpu: CPU) -> List[Uop]:
    """Per-pc table: ``uops[pc]`` runs the one instruction at ``pc``."""
    return _lazy_table(cpu, 1)


def predecode_fused(cpu: CPU) -> List[Optional[Uop]]:
    """Fused-block table: ``fused[pc]`` runs the block led by ``pc``.

    Entries are ``None`` for pcs that do not lead a block; the run loop
    uses the per-pc table there, so correctness never depends on the
    leader analysis being complete (an unexpected indirect-branch target
    simply executes unfused).
    """
    program = cpu.program
    code = program.code
    leaders = set(program.labels.values())
    leaders.add(program.label_index(program.entry))
    for i, instr in enumerate(code):
        kind = OP_KIND[instr.op]
        if kind is OpKind.BRANCH or kind is OpKind.CHK or kind is OpKind.SYS:
            leaders.add(i + 1)
            if instr.target is not None:
                t = _resolve(program, instr.target)
                if t is not None:
                    leaders.add(t)
    return _lazy_table(cpu, MAX_BLOCK, leaders)
