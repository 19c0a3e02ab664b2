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

* Issue-group state (``_group_writes``, ``_group_pr_writes``,
  ``_group_mem``, ``_group_slots``) and the instruction count live in
  block locals, and the group close is inlined; together they are a
  literal replica of ``IssueModel.issue`` specialized per instruction.
  Every exit writes them back to the shared ``IssueModel`` — the fault
  path with the partial count — and a ``break`` writes them back before
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
#: block shapes across machines share one compilation.
_FACTORY_CACHE: dict = {}

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

_PLAIN_KINDS = frozenset((OpKind.ALU, OpKind.CMP, OpKind.LOAD, OpKind.STORE,
                          OpKind.MOVBR, OpKind.MOVAR, OpKind.NOP))


def _close_local() -> List[str]:
    """Inline replica of ``IssueModel._close_group`` on block locals.

    Resetting the masks only when the group is non-empty matches the
    reference: an empty group always has zero masks (the invariant holds
    because masks are only set right after an append).
    """
    return [
        "if group:",
        "    counters.groups += 1",
        "    counters.issue_cycles += 1.0",
        "    share = 1.0 / len(group)",
        "    for c_ in group:",
        "        c_.issue_cycles += share",
        "    group.clear()",
        "    gw = 0",
        "    pw = 0",
        "    mm = 0",
        "    sl = 0",
    ]


def _writeback(total) -> List[str]:
    """Flush block-local issue state back to the shared model."""
    return [
        "im._group_writes = gw",
        "im._group_pr_writes = pw",
        "im._group_mem = mm",
        "im._group_slots = sl",
        f"counters.instructions = ci + {total}",
    ]


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
    faultable = False

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

    def acct_local(instr, taken=False, stall=False):
        reads, writes, prw, is_mem, memkind, is_branch, slots = _meta(instr)
        cname, res = use_key((instr.role, instr.origin))
        rw = reads | writes
        conds = []
        if rw:
            if is_branch and cfg.cmp_branch_same_group:
                # A branch conflicting only on predicate writes may issue
                # in the same group as the compare that produced them.
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
            out += _close_local()
        return out

    def plain_fragment(instr, j):
        nonlocal faultable
        op = instr.op
        kind = OP_KIND[op]
        qp = instr.qp
        sem = None
        stall = False
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
            faultable = stall = True
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
            faultable = stall = True
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
                    faultable = True
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
                    faultable = True
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
        return out + acct_local(instr, stall=stall)

    def term_fragment(instr, i, j):
        """``(body, tail)`` for a block-ending instruction, or None.

        ``body`` takes the transfer's accounting and writeback, and
        returns on every path that cannot raise afterwards; ``tail``
        runs outside the members' fault handler and holds what follows
        the writeback: an indirect target check or a handler call.
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
        off = (acct_local(instr) + _writeback(j + 1)
               + [f"return pc + {j + 1}"])
        skip = [f"not pr[{instr.qp}]"] if instr.qp else []
        tail: List[str] = []
        ret = [f"br[{instr.outs[0].index}] = {hex(code_address(i + 1))}"
               ] if op in ("br.call", "br.call.ind") else []
        if kind is OpKind.SYS:
            # Close the group and publish the block's state before the
            # guest OS runs: handlers read counters and may checkpoint.
            on = acct_local(instr) + _close_local() + _writeback(j + 1)
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
                  + acct_local(instr, taken=True) + _writeback(j + 1))
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
            on = (ret + acct_local(instr, taken=True) + _writeback(j + 1)
                  + [f"return {tidx}"])
        if skip:
            pre += [f"if {' or '.join(skip)}:"] + _indent(off)
        return pre + on, tail

    body: List[str] = []
    tail: List[str] = []
    i = start
    j = 0
    term = None
    while i < n and j < max_len:
        instr = code[i]
        kind = OP_KIND[instr.op]
        if kind not in _PLAIN_KINDS:
            term = term_fragment(instr, i, j)
            break
        frag = plain_fragment(instr, j)
        if frag is None:
            break
        body += frag
        fns.append(_ALU_FUNCS.get(instr.op) if kind is OpKind.ALU else None)
        i += 1
        j += 1
    total = j + (term is not None)
    conts = (i, i + 1) if term is None else ()
    if not total:
        return None, (), conts
    if term is None:
        body += _writeback(j) + [f"return pc + {j}"]
    else:
        body += term[0]
        tail = term[1]
    if faultable:
        body = (["try:"] + _indent(body)
                + ["except Fault:",
                   "    im._group_writes = gw",
                   "    im._group_pr_writes = pw",
                   "    im._group_mem = mm",
                   "    im._group_slots = sl",
                   "    counters.instructions = ci + (ipc - pc)",
                   "    cpu._fault_pc = ipc",
                   "    raise"])
    body = (["gw = im._group_writes",
             "pw = im._group_pr_writes",
             "mm = im._group_mem",
             "sl = im._group_slots",
             "ci = counters.instructions"] + body + tail)
    return _render(body, cells), tuple(fns), conts


def _instantiate(src: str, shared: tuple, fns: tuple) -> Uop:
    code_obj = _FACTORY_CACHE.get(src)
    if code_obj is None:
        code_obj = _FACTORY_CACHE[src] = compile(src, "<predecode>", "exec")
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
