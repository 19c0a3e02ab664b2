"""Predecoded micro-op engine: compile instructions to closures once.

The reference interpreter pays a per-step tax that has nothing to do
with the guest's work: dict dispatch on the mnemonic, re-reading operand
``Reg`` objects, a ``getattr`` for cached issue metadata, and a method
call into :class:`~repro.cpu.perf.IssueModel` whose conflict masks and
config limits are re-fetched every instruction.  This module removes all
of it by *predecoding*: each :class:`Instruction` is compiled exactly
once into a specialized closure (a micro-op).  The closure body is
*generated source code* — operand indices, immediates, dependency
bitmasks, branch-target pcs and the issue-model limits are embedded as
literals, and the issue accounting is inlined straight into the body so
the hot path makes no calls besides memory/cache accesses.  Generated
factories are compiled once per unique shape (a process-wide cache), and
identical instructions share one closure.  ``CPU.run_slice`` then
just indexes a flat list and calls.

Micro-op contract: ``uop(pc) -> next_pc``.  Only break (SYS) micro-ops
can change ``halted``/``yield_requested`` (their handlers run the guest
OS), and those return ``~next_pc`` — a negative sentinel telling the run
loop to check the flags.  Every other micro-op returns the next pc
directly, so the hot loop carries no per-step flag loads.

Equivalence rules (enforced by tests/test_engine_differential.py):

* The inlined issue accounting is a literal replica of
  ``IssueModel.issue`` specialized by instruction kind, and it reads and
  writes the *same* ``IssueModel`` instance state (``_group`` and its
  bitmask friends), so reference-path execution (``CPU._execute``
  fallbacks, the reference engine's ``step()``) interleaves exactly.
* ``pair_costs`` buckets are created lazily on first execution, never at
  predecode time, so the set of (role, origin) keys matches the
  reference run bit-for-bit.
* r0 sources are folded to the constant 0 with a clear NaT — exactly
  the reference semantics (``_exec_alu`` appends a literal 0 and skips
  the NaT read; ``_exec_cmp`` goes through ``read_gr``/``read_nat``).
* Anything with an unusual shape (r0 destinations, unresolvable labels,
  malformed operand lists, unknown mnemonics) falls back to a micro-op
  that delegates to ``CPU._execute`` — slower, but by construction
  identical, and safe to interleave because ``IssueModel.issue`` shares
  the same group state the generated accounting uses.
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

#: Generated-source -> compiled code object.  Process-wide: identical
#: instruction shapes across machines share one compilation.
_FACTORY_CACHE: dict = {}

#: Shared objects every generated factory receives (becoming closure
#: variables of the micro-op).  ``fn``/``handler`` are per-instruction.
_PARAMS = ("gr, nats, pr, br, im, counters, close, pair_costs, RoleCost, "
           "mem_load, mem_store, cache_access, fwd, recent, cpu, to_signed, "
           "is_implemented, NaTConsumptionFault, Fault, "
           "IllegalInstructionFault, MemoryError_, tag_watch, "
           "spec_ranges, spec_check, group, fn, handler, fns")


def _render(lines: List[str], cells=("cost",)) -> str:
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


def _acct_lines(meta, key, cfg, taken: Optional[bool] = None,
                stall: bool = False) -> List[str]:
    """Inline replica of ``IssueModel.issue`` for one static instruction.

    ``taken`` is None for non-branch kinds, else the (static) taken
    flag; ``stall`` emits the mem-stall attribution lines (the runtime
    value must be in a local named ``stall``).
    """
    reads, writes, prw, is_mem, memkind, is_branch, slots = meta
    rw = reads | writes
    conds = []
    lines = []
    if rw:
        lines.append("gw = im._group_writes")
        if taken is not None and is_branch and cfg.cmp_branch_same_group:
            # A branch conflicting only on predicate writes may issue in
            # the same group as the compare that produced them.
            conds.append(f"gw & {hex(rw)} & ~im._group_pr_writes")
        else:
            conds.append(f"gw & {hex(rw)}")
    conds.append(f"im._group_slots + {slots} > {cfg.width}")
    if is_mem:
        conds.append(f"im._group_mem >= {cfg.mem_ports}")
    lines += [
        "if " + " or ".join(conds) + ":",
        "    close()",
        "c = cost",
        "if c is None:",
        f"    c = pair_costs.get({key!r})",
        "    if c is None:",
        f"        c = pair_costs[{key!r}] = RoleCost()",
        "    cost = c",
        "im._group.append(c)",
        f"im._group_slots += {slots}",
    ]
    if writes:
        lines.append(f"im._group_writes |= {hex(writes)}")
    if prw:
        lines.append(f"im._group_pr_writes |= {hex(prw)}")
    if is_mem:
        lines.append("im._group_mem += 1")
    lines.append("counters.instructions += 1")
    lines.append("c.slots += 1")
    if memkind == 1:
        lines.append("counters.loads += 1")
    elif memkind == 2:
        lines.append("counters.stores += 1")
    if stall:
        lines += [
            "if stall:",
            "    counters.stall_cycles += stall",
            "    c.stall_cycles += stall",
        ]
    if taken:
        lines += [
            "counters.branches_taken += 1",
            f"counters.branch_penalty_cycles += {cfg.branch_penalty!r}",
            "close()",
        ]
    return lines


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
             fn_name: str = "fn") -> Optional[List[str]]:
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


def _shared_args(cpu: CPU, fwd) -> tuple:
    """Positional args matching ``_PARAMS`` up to the per-instr slots."""
    im = cpu.issue
    counters = cpu.counters
    return (cpu.gr, cpu.nat, cpu.pr, cpu.br, im, counters, im._close_group,
            counters.pair_costs, RoleCost, cpu.memory.load, cpu.memory.store,
            cpu.caches.access, fwd, cpu._recent_stores, cpu, to_signed,
            is_implemented, NaTConsumptionFault, Fault,
            IllegalInstructionFault, MemoryError_, cpu.tag_watch,
            cpu.spec_ranges, cpu.spec_check, im._group)


def _make_fallback(cpu: CPU, instr: Instruction) -> Uop:
    """Delegate to the reference executor (identical by construction)."""
    execute = cpu._execute

    def fallback(pc):
        cpu.pc = pc
        execute(instr)
        return cpu.pc

    return fallback


def predecode(cpu: CPU) -> List[Uop]:
    """Compile every instruction of the CPU's program into a micro-op."""
    program = cpu.program
    code = program.code
    n = len(code)
    im = cpu.issue
    cfg = im.config
    counters = cpu.counters
    close = im._close_group
    fwd = _make_forwarding(cpu)
    syscall_handler = cpu.syscall_handler
    native_handler = cpu.native_handler
    label_index = program.label_index
    shared = _shared_args(cpu, fwd)
    uop_cache: dict = {}

    def resolve(label):
        try:
            return label_index(label)
        except Exception:
            return None  # fall back; the reference path reproduces the error

    def build(instr: Instruction, idx: int):
        """Return (body_lines, fn, handler) or None for fallback."""
        op = instr.op
        kind = OP_KIND[op]
        meta = _meta(instr)
        key = (instr.role, instr.origin)
        fn = handler = None
        body: Optional[List[str]] = None
        taken_none = _acct_lines(meta, key, cfg)

        if kind is OpKind.ALU:
            if not instr.outs:
                return None
            dest = instr.outs[0].index
            if op == "movl":
                imm = (instr.imm or 0) & MASK64
                body = [f"gr[{dest}] = {hex(imm)}", f"nats[{dest}] = False"]
            elif op == "settag":
                body = [f"nats[{dest}] = True"]
            elif op == "cleartag":
                body = [f"nats[{dest}] = False"]
            elif dest != 0:
                ins_idx = tuple(r.index for r in instr.ins)
                imm = instr.imm & MASK64 if instr.imm is not None else None
                body = _alu_sem(op, dest, ins_idx, imm)
                fn = _ALU_FUNCS.get(op)
            if body is None:
                return None
            body += taken_none + ["return pc + 1"]

        elif kind is OpKind.CMP:
            if len(instr.outs) != 2 or not instr.ins:
                return None
            pt, pf = instr.outs[0].index, instr.outs[1].index
            if op == "tnat":
                body = _tnat_sem(instr.ins[0].index, pt, pf)
            else:
                ins_idx = tuple(r.index for r in instr.ins)
                imm = instr.imm & MASK64 if instr.imm is not None else None
                body = _cmp_sem(op, pt, pf, ins_idx, imm)
            if body is None:
                return None
            body += taken_none + ["return pc + 1"]

        elif kind is OpKind.LOAD:
            if not instr.ins or not instr.outs:
                return None
            size = LOAD_SIZES[op]
            ia = instr.ins[0].index
            dest = instr.outs[0].index
            if dest == 0:
                return None  # reference faults in write_gr
            addr = _s(_gr_src(ia))
            nat_ia = f"nats[{ia}]" if ia else None
            if op == "ld8.s":
                defer = nat_ia + " or not is_implemented(addr)" if nat_ia \
                    else "not is_implemented(addr)"
                body = (
                    [f"addr = {addr}",
                     f"if {defer}:"]
                    + _indent([f"gr[{dest}] = 0",
                               f"nats[{dest}] = True"]
                              + _acct_lines(meta, key, cfg)
                              + ["return pc + 1"])
                    + ["if spec_ranges:",
                       f"    spec_check(addr, {size})",
                       f"value = mem_load(addr, {size})",
                       f"stall = cache_access(addr, {size})",
                       f"gr[{dest}] = value",
                       f"nats[{dest}] = False"]
                    + _acct_lines(meta, key, cfg, stall=True)
                    + ["return pc + 1"]
                )
            else:
                nat_line = (
                    [f"if {nat_ia}:",
                     "    raise NaTConsumptionFault(\"load_addr\")"]
                    if nat_ia else [])
                nat_dest = (
                    f"nats[{dest}] = bool((cpu.unat >> ((addr >> 3) & 63))"
                    " & 1)"
                    if op == "ld8.fill" else f"nats[{dest}] = False")
                body = (
                    [f"addr = {addr}"]
                    + nat_line
                    + ["if spec_ranges:",
                       f"    spec_check(addr, {size})",
                       "try:",
                       f"    value = mem_load(addr, {size})",
                       "except MemoryError_ as exc:",
                       "    raise Fault(f\"load fault: {exc}\") from exc",
                       f"stall = cache_access(addr, {size})"
                       f" + fwd(addr, {size}, counters.instructions)",
                       f"gr[{dest}] = value",
                       nat_dest]
                    + _acct_lines(meta, key, cfg, stall=True)
                    + ["return pc + 1"]
                )

        elif kind is OpKind.STORE:
            if len(instr.ins) < 2:
                return None
            size = STORE_SIZES[op]
            ia, iv = instr.ins[0].index, instr.ins[1].index
            addr = _s(_gr_src(ia))
            body = [f"addr = {addr}"]
            if ia:
                body += [f"if nats[{ia}]:",
                         "    raise NaTConsumptionFault(\"store_addr\")"]
            if op == "st8.spill":
                body.append("bit = (addr >> 3) & 63")
                if iv:
                    body += [f"if nats[{iv}]:",
                             "    cpu.unat |= 1 << bit",
                             "else:",
                             "    cpu.unat &= ~(1 << bit)"]
                else:
                    body.append("cpu.unat &= ~(1 << bit)")
            elif iv:
                body += [f"if nats[{iv}]:",
                         "    raise NaTConsumptionFault(\"store_value\")"]
            body += ["if spec_ranges:",
                     f"    spec_check(addr, {size})"]
            if cpu.tag_watch is not None:
                body += [f"if addr < {cpu.tag_limit}:",
                         f"    tag_watch(addr, {size}, {_s(_gr_src(iv))})"]
            body += [
                "try:",
                f"    mem_store(addr, {size}, {_s(_gr_src(iv))})",
                "except MemoryError_ as exc:",
                "    raise Fault(f\"store fault: {exc}\") from exc",
                f"recent.append((addr, {size}, counters.instructions))",
                "if len(recent) > 4:",
                "    recent.pop(0)",
                f"stall = cache_access(addr, {size})",
            ]
            body += _acct_lines(meta, key, cfg, stall=True)
            body += ["return pc + 1"]

        elif kind is OpKind.BRANCH:
            taken = _acct_lines(meta, key, cfg, taken=True)
            if op in ("br", "br.cond"):
                tidx = resolve(instr.target)
                if tidx is None:
                    return None
                body = taken + [f"return {tidx}"]
            elif op == "br.call":
                tidx = resolve(instr.target)
                if tidx is None or not instr.outs:
                    return None
                ob = instr.outs[0].index
                ret = code_address(idx + 1)
                body = ([f"br[{ob}] = {hex(ret)}"]
                        + taken + [f"return {tidx}"])
            elif op in ("br.call.ind", "br.ret", "br.ind"):
                if not instr.ins or (op == "br.call.ind" and not instr.outs):
                    return None
                ib = instr.ins[0].index
                body = [f"t = (br[{ib}] & {hex(IMPL_MASK)})"
                        f" // {CODE_SLOT_BYTES} - 1"]
                if op == "br.call.ind":
                    ob = instr.outs[0].index
                    ret = code_address(idx + 1)
                    body.append(f"br[{ob}] = {hex(ret)}")
                body += taken
                body += [
                    f"if 0 <= t < {n}:",
                    "    return t",
                    "raise IllegalInstructionFault("
                    "f\"indirect branch to invalid slot {t}\")",
                ]
            else:
                return None

        elif kind is OpKind.CHK:  # chk.s
            if not instr.ins:
                return None
            i0 = instr.ins[0].index
            not_taken = _acct_lines(meta, key, cfg, taken=False)
            if i0 == 0:
                body = not_taken + ["return pc + 1"]
            else:
                tidx = resolve(instr.target)
                if tidx is None:
                    return None
                body = (
                    [f"if nats[{i0}]:"]
                    + _indent(_acct_lines(meta, key, cfg, taken=True)
                              + [f"return {tidx}"])
                    + not_taken
                    + ["return pc + 1"]
                )

        elif kind is OpKind.MOVBR:
            if not instr.ins or not instr.outs:
                return None
            if op == "mov.tobr":
                i0 = instr.ins[0].index
                ob = instr.outs[0].index
                if i0:
                    body = [f"if nats[{i0}]:",
                            "    raise NaTConsumptionFault(\"branch_move\")",
                            f"br[{ob}] = gr[{i0}]"]
                else:
                    body = [f"br[{ob}] = 0"]
            else:  # mov.frombr
                ib = instr.ins[0].index
                dest = instr.outs[0].index
                if dest == 0:
                    return None
                body = [f"gr[{dest}] = br[{ib}] & {_M}",
                        f"nats[{dest}] = False"]
            body += taken_none + ["return pc + 1"]

        elif kind is OpKind.MOVAR:
            if op == "mov.toar":
                if not instr.ins:
                    return None
                i0 = instr.ins[0].index
                if i0:
                    body = [f"if nats[{i0}]:",
                            "    raise NaTConsumptionFault(\"ar_move\")",
                            f"cpu.unat = gr[{i0}]"]
                else:
                    body = ["cpu.unat = 0"]
            else:  # mov.fromar
                if not instr.outs or instr.outs[0].index == 0:
                    return None
                dest = instr.outs[0].index
                body = [f"gr[{dest}] = cpu.unat & {_M}",
                        f"nats[{dest}] = False"]
            body += taken_none + ["return pc + 1"]

        elif kind is OpKind.SYS:
            imm = instr.imm or 0
            if imm == BREAK_SYSCALL and syscall_handler is not None:
                handler = syscall_handler
                body = (["cpu.pc = pc"] + taken_none
                        + ["close()", "handler(cpu)", "return ~(pc + 1)"])
            elif imm >= BREAK_NATIVE_BASE and native_handler is not None:
                handler = native_handler
                nid = imm - BREAK_NATIVE_BASE
                body = (["cpu.pc = pc"] + taken_none
                        + ["close()", f"handler(cpu, {nid})",
                           "return ~(pc + 1)"])
            else:
                if imm == BREAK_SYSCALL:
                    msg = "no syscall handler installed"
                elif imm >= BREAK_NATIVE_BASE:
                    msg = "no native handler installed"
                else:
                    msg = f"break {imm:#x}"
                body = (["cpu.pc = pc"] + taken_none
                        + [f"raise IllegalInstructionFault({msg!r})"])

        else:  # NOP
            body = taken_none + ["return pc + 1"]

        if body is None:
            return None

        qp = instr.qp
        if qp:
            # Predicated-off: no architectural effect, but the slot is
            # still consumed with the same meta-driven accounting.
            if kind is OpKind.BRANCH or kind is OpKind.CHK:
                off = _acct_lines(meta, key, cfg, taken=False)
            else:
                off = _acct_lines(meta, key, cfg)
            body = ([f"if not pr[{qp}]:"]
                    + _indent(off + ["return pc + 1"])
                    + body)

        return [f"# {op}"] + body, fn, handler

    def compile_one(instr: Instruction, idx: int) -> Uop:
        built = build(instr, idx)
        if built is None:
            return _make_fallback(cpu, instr)
        lines, fn, handler = built
        src = _render(lines)
        uop = uop_cache.get(src)
        if uop is None:
            code_obj = _FACTORY_CACHE.get(src)
            if code_obj is None:
                code_obj = _FACTORY_CACHE[src] = compile(
                    src, "<predecode>", "exec")
            ns: dict = {}
            exec(code_obj, ns)
            uop = ns["_f"](*shared, fn, handler, None)
            uop_cache[src] = uop
        return uop

    return [compile_one(instr, idx) for idx, instr in enumerate(code)]


# -- fused basic blocks ----------------------------------------------------
#
# Second predecode tier: straight-line runs are fused into one generated
# function per block leader.  Within a block the issue-group state lives
# in plain locals (``gw``/``pw``/``mm``/``sl``), the group-close is
# inlined, and ``counters.instructions`` is batched into one store at
# block exit (members that need the live value — store-buffer sequence
# numbers — use ``ci + j`` with the member's static offset).  The shared
# ``IssueModel`` state is reloaded at entry and written back at every
# exit (including the fault path), so fused blocks interleave freely
# with per-pc micro-ops, reference steps and the thread scheduler.

_PLAIN_KINDS = frozenset((OpKind.ALU, OpKind.CMP, OpKind.LOAD, OpKind.STORE,
                          OpKind.MOVBR, OpKind.MOVAR, OpKind.NOP))
#: Maximum instructions fused into one block (a terminating branch
#: included).  CPU.run_slice uses it as its budget guard band so blocks
#: never overrun a slice.
MAX_BLOCK = 24


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


def _writeback(total: int) -> List[str]:
    """Flush block-local issue state back to the shared model."""
    return [
        "im._group_writes = gw",
        "im._group_pr_writes = pw",
        "im._group_mem = mm",
        "im._group_slots = sl",
        f"counters.instructions = ci + {total}",
    ]


def predecode_fused(cpu: CPU) -> List[Optional[Uop]]:
    """Fused-block table: ``fused[pc]`` runs the block led by ``pc``.

    Entries are ``None`` for pcs that do not lead a fusable block; the
    run loop falls back to the per-pc micro-op there, so correctness
    never depends on the leader analysis being complete (an unexpected
    indirect-branch target simply executes unfused).
    """
    program = cpu.program
    code = program.code
    n = len(code)
    im = cpu.issue
    cfg = im.config
    fwd = _make_forwarding(cpu)
    shared = _shared_args(cpu, fwd)
    label_index = program.label_index

    def resolve(label):
        try:
            return label_index(label)
        except Exception:
            return None

    leaders = set(program.labels.values())
    leaders.add(label_index(program.entry))
    for i, instr in enumerate(code):
        kind = OP_KIND[instr.op]
        if kind is OpKind.BRANCH or kind is OpKind.CHK or kind is OpKind.SYS:
            if i + 1 < n:
                leaders.add(i + 1)
            if instr.target is not None:
                t = resolve(instr.target)
                if t is not None:
                    leaders.add(t)

    def build_block(start):
        cells: List[str] = []
        key_local: dict = {}
        fns_list: list = []
        state = {"faultable": False}

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

        def acct_local(instr, taken=None, stall=False):
            meta = _meta(instr)
            reads, writes, prw, is_mem, memkind, is_branch, slots = meta
            cname, res = use_key((instr.role, instr.origin))
            rw = reads | writes
            conds = []
            if rw:
                if taken is not None and is_branch and cfg.cmp_branch_same_group:
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
                    return None
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
                    state["faultable"] = True
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
                    state["faultable"] = True
                stall = True
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
                state["faultable"] = True
                stall = True
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
                        state["faultable"] = True
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
                        state["faultable"] = True
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
                if kind is OpKind.LOAD or kind is OpKind.STORE:
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
            op = instr.op
            qp = instr.qp
            key = (instr.role, instr.origin)
            after = f"return pc + {j + 1}"
            if op in ("br", "br.cond"):
                tidx = resolve(instr.target)
                if tidx is None:
                    return None
                _, pre = use_key(key)
                taken = (acct_local(instr, taken=True)
                         + _writeback(j + 1) + [f"return {tidx}"])
                if qp:
                    return (pre + [f"if pr[{qp}]:"] + _indent(taken)
                            + acct_local(instr, taken=False)
                            + _writeback(j + 1) + [after])
                return pre + taken
            if op == "br.call":
                tidx = resolve(instr.target)
                if tidx is None or not instr.outs:
                    return None
                ob = instr.outs[0].index
                ret = code_address(i + 1)
                _, pre = use_key(key)
                taken = ([f"br[{ob}] = {hex(ret)}"]
                         + acct_local(instr, taken=True)
                         + _writeback(j + 1) + [f"return {tidx}"])
                if qp:
                    return (pre + [f"if pr[{qp}]:"] + _indent(taken)
                            + acct_local(instr, taken=False)
                            + _writeback(j + 1) + [after])
                return pre + taken
            if op == "chk.s":
                if not instr.ins:
                    return None
                i0 = instr.ins[0].index
                _, pre = use_key(key)
                nottaken = (acct_local(instr, taken=False)
                            + _writeback(j + 1) + [after])
                if i0 == 0:
                    return pre + nottaken
                tidx = resolve(instr.target)
                if tidx is None:
                    return None
                cond = f"pr[{qp}] and nats[{i0}]" if qp else f"nats[{i0}]"
                taken = (acct_local(instr, taken=True)
                         + _writeback(j + 1) + [f"return {tidx}"])
                return pre + [f"if {cond}:"] + _indent(taken) + nottaken
            return None  # indirect branches run via the per-pc micro-op

        body: List[str] = []
        i = start
        j = 0
        term = None
        while i < n and j < MAX_BLOCK:
            instr = code[i]
            kind = OP_KIND[instr.op]
            if kind in _PLAIN_KINDS:
                frag = plain_fragment(instr, j)
                if frag is None:
                    break
                body += frag
                fns_list.append(_ALU_FUNCS.get(instr.op)
                                if kind is OpKind.ALU else None)
                i += 1
                j += 1
                continue
            if kind is OpKind.BRANCH or kind is OpKind.CHK:
                term = term_fragment(instr, i, j)
            break
        total = j + (1 if term is not None else 0)
        # The continuation pc (and the pc after an unfusable member) may
        # lead a fusable run that the global leader scan cannot see.
        conts = [i, i + 1] if term is None else ()
        if total < 2:
            return None, (), conts
        if term is not None:
            body += term
        else:
            body += _writeback(j) + [f"return pc + {j}"]
        if state["faultable"]:
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
                 "ci = counters.instructions"] + body)
        return _render(body, tuple(cells)), tuple(fns_list), conts

    def instantiate(src: str, fns_list: tuple) -> Uop:
        code_obj = _FACTORY_CACHE.get(src)
        if code_obj is None:
            code_obj = _FACTORY_CACHE[src] = compile(
                src, "<predecode-block>", "exec")
        ns: dict = {}
        exec(code_obj, ns)
        return ns["_f"](*shared, None, None, fns_list)

    # Blocks are built lazily, on first execution: each leader starts as
    # a trampoline that builds (and installs) its block, then runs it.
    # Short-lived machines (most tests) thus only pay codegen for the
    # blocks they actually execute.  Generated sources are cached on the
    # program object so further machines running the same program skip
    # source construction and only re-instantiate the closures.
    src_cache = getattr(program, "_fused_src_cache", None)
    if src_cache is None:
        src_cache = program._fused_src_cache = {}
    fused: List[Optional[Uop]] = [None] * n
    seen = set(leaders)

    def _lazy(start: int) -> Uop:
        def trampoline(pc: int) -> int:
            entry = src_cache.get(start)
            if entry is None:
                entry = src_cache[start] = build_block(start)
            src, fns_list, conts = entry
            blk = instantiate(src, fns_list) if src is not None else None
            fused[start] = blk
            for c in conts:
                if 0 <= c < n and c not in seen:
                    seen.add(c)
                    fused[c] = _lazy(c)
            if blk is not None:
                return blk(pc)
            # Not fusable from here: run this pc's micro-op once so the
            # trampoline still makes progress (later visits go straight
            # to the per-pc path because fused[start] is now None).
            cpu._fault_pc = pc
            return cpu._uops[pc](pc)
        return trampoline

    for start in leaders:
        if 0 <= start < n:
            fused[start] = _lazy(start)
    return fused
