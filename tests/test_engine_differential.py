"""Differential tests: predecoded engine vs the reference step loop.

The predecoded engine (generated blocks in a per-pc and a fused table,
see ``repro.cpu.predecode``) must be *observably identical* to the
reference dispatch loop: same architectural results, bit-identical
``PerfCounters`` (including the creation order and contents of the
per-role cost buckets), the same faults at the same pcs, the same
security alerts, and the same trace-event streams.  Every test here
runs one workload under both engines and compares, except
``test_no_reference_fallback``, which checks that the predecoded engine
runs every SPEC kernel instruction as generated code.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.spec import BENCHMARKS
from repro.core.shift import build_machine
from repro.cpu import BREAK_NATIVE_BASE, CPU
from repro.cpu.faults import NaTConsumptionFault, RunawayError
from repro.cpu.perf import IssueConfig
from repro.cpu.predecode import MAX_BLOCK
from repro.isa import assemble
from repro.mem import REGION_DATA, SparseMemory, make_address
from repro.harness.runners import (
    PERF_OPTIONS,
    compiled_spec,
    compiled_webserver,
    spec_policy,
    webserver_policy,
)
from repro.apps.webserver import make_request, make_site
from repro.taint.policy import PolicyConfig
from tests.conftest import BYTE_STRICT

ENGINES = ("reference", "predecoded")

READ = "native int read(int fd, char *buf, int n);\n"

THREAD_DECLS = """
native int thread_create(int fn, int arg);
native int thread_join(int tid);
native void thread_yield();
"""


def assert_counters_identical(ref, pre):
    """Bit-identical PerfCounters, including RoleCost bucket order."""
    assert ref.snapshot() == pre.snapshot()
    assert ref.groups == pre.groups
    assert ref.branches_taken == pre.branches_taken
    # Bucket creation order is observable (dict iteration order feeds
    # the Figure 9 breakdown tables), so compare keys as lists.
    assert list(ref.pair_costs) == list(pre.pair_costs)
    for key, a in ref.pair_costs.items():
        b = pre.pair_costs[key]
        assert (a.slots, a.issue_cycles, a.stall_cycles) == (
            b.slots, b.issue_cycles, b.stall_cycles), key


def assert_alerts_identical(ref_machine, pre_machine):
    def strip(alerts):
        return [(a.policy_id, a.message, a.context, a.pc,
                 a.instruction_count) for a in alerts]
    assert strip(ref_machine.alerts) == strip(pre_machine.alerts)


def assert_traces_identical(ref_machine, pre_machine):
    def strip(machine):
        return [(type(e).__name__, vars(e))
                for e in machine.obs.tracer.events()]
    assert strip(ref_machine) == strip(pre_machine)


def count_fallbacks(machine):
    """Record every instruction the machine runs on ``CPU._execute``.

    On the predecoded engine that is the slow escape for shapes the
    block renderer does not handle; the identity checks cannot see an
    instruction kind silently taking it.
    """
    calls = []
    execute = machine.cpu._execute

    def counted(instr):
        calls.append(str(instr))
        execute(instr)

    machine.cpu._execute = counted
    return calls


def _spec_machine(bench, options, engine="predecoded", issue_config=None):
    return build_machine(
        compiled_spec(bench, options, "test"),
        policy_config=spec_policy(False),
        files={"/data": bench.make_input("test")}, engine=engine,
        issue_config=issue_config)


class TestSpecKernels:
    @pytest.mark.parametrize("config", ["none", "byte", "word-both"])
    def test_gzip_bit_identical(self, config):
        bench = BENCHMARKS["gzip"]
        results, fallbacks = {}, {}
        for engine in ENGINES:
            machine = _spec_machine(bench, PERF_OPTIONS[config], engine)
            fallbacks[engine] = count_fallbacks(machine)
            machine.run()
            results[engine] = machine
        assert fallbacks["predecoded"] == []
        ref, pre = results["reference"], results["predecoded"]
        assert ref.read_global("result") == pre.read_global("result")
        assert_counters_identical(ref.counters, pre.counters)
        assert_alerts_identical(ref, pre)

    def test_mcf_bit_identical(self):
        bench = BENCHMARKS["mcf"]
        counters, fallbacks = {}, {}
        for engine in ENGINES:
            machine = _spec_machine(bench, PERF_OPTIONS["byte"], engine)
            fallbacks[engine] = count_fallbacks(machine)
            machine.run()
            counters[engine] = machine.counters
        assert fallbacks["predecoded"] == []
        assert_counters_identical(counters["reference"],
                                  counters["predecoded"])

    @pytest.mark.parametrize("config", ["none", "byte"])
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_no_reference_fallback(self, name, config):
        machine = _spec_machine(BENCHMARKS[name], PERF_OPTIONS[config])
        fallbacks = count_fallbacks(machine)
        machine.run()
        assert fallbacks == []

    # Machines sharing one compiled program must not share generated
    # code built for another machine's issue model.
    @pytest.mark.parametrize("issue_config", [
        IssueConfig(width=1, mem_ports=1),
        IssueConfig(branch_penalty=10),
    ], ids=["width1", "penalty10"])
    def test_shared_program_honours_issue_config(self, issue_config):
        bench = BENCHMARKS["gzip"]
        _spec_machine(bench, PERF_OPTIONS["byte"]).run()
        counters = {}
        for engine in ENGINES:
            machine = _spec_machine(bench, PERF_OPTIONS["byte"], engine,
                                    issue_config)
            machine.run()
            counters[engine] = machine.counters
        assert_counters_identical(counters["reference"],
                                  counters["predecoded"])


class TestWebserver:
    def test_served_and_counters_identical(self):
        compiled = compiled_webserver(PERF_OPTIONS["byte"])
        site = make_site((2,))
        machines, fallbacks = {}, {}
        for engine in ENGINES:
            machine = build_machine(
                compiled, policy_config=webserver_policy(),
                files=dict(site), engine=engine)
            for _ in range(5):
                machine.net.add_request(make_request(2))
            fallbacks[engine] = count_fallbacks(machine)
            served = machine.run(max_instructions=100_000_000)
            assert served == 5
            machines[engine] = machine
        assert fallbacks["predecoded"] == []
        assert_counters_identical(machines["reference"].counters,
                                  machines["predecoded"].counters)
        assert_alerts_identical(machines["reference"],
                                machines["predecoded"])


ATTACK = READ + """
char src[16];
int main() {
    read(0, src, 8);
    int *p = (int *)(src[0] * 65536);
    return *p;
}
"""


class TestSecurityDetection:
    def test_alert_records_identical(self):
        machines = {}
        faults = {}
        for engine in ENGINES:
            machine = build_machine(
                ATTACK, BYTE_STRICT, policy_config=PolicyConfig(),
                stdin=b"\x42", engine_mode="record", engine=engine)
            # Record mode logs the alert; the hardware fault still
            # terminates the guest on the fault path.
            with pytest.raises(NaTConsumptionFault) as excinfo:
                machine.run(max_instructions=5_000_000)
            machines[engine] = machine
            faults[engine] = excinfo.value
        assert faults["reference"].pc == faults["predecoded"].pc
        assert faults["reference"].kind == faults["predecoded"].kind
        ref, pre = machines["reference"], machines["predecoded"]
        assert len(ref.alerts) >= 1
        assert ref.alerts[0].policy_id == "L1"
        assert_alerts_identical(ref, pre)
        assert_counters_identical(ref.counters, pre.counters)

    def test_fault_pc_identical(self):
        faults = {}
        for engine in ENGINES:
            machine = build_machine(
                ATTACK, BYTE_STRICT, policy_config=PolicyConfig().disable("L1"),
                stdin=b"\x42", engine=engine)
            with pytest.raises(NaTConsumptionFault) as excinfo:
                machine.run(max_instructions=5_000_000)
            faults[engine] = (excinfo.value, machine)
        ref_fault, ref_machine = faults["reference"]
        pre_fault, pre_machine = faults["predecoded"]
        assert ref_fault.kind == pre_fault.kind
        assert ref_fault.pc == pre_fault.pc
        assert str(ref_fault.instr) == str(pre_fault.instr)
        assert ref_machine.cpu.pc == pre_machine.cpu.pc
        assert_counters_identical(ref_machine.counters,
                                  pre_machine.counters)


class TestTraceStreams:
    def test_taint_trace_events_identical(self):
        source = READ + """
        char buf[32];
        int main() {
            read(0, buf, 16);
            int acc = 0;
            for (int i = 0; i < 16; i = i + 1) { acc = acc + buf[i]; }
            return acc & 255;
        }
        """
        machines = {}
        for engine in ENGINES:
            machine = build_machine(
                source, PERF_OPTIONS["byte"], policy_config=PolicyConfig(),
                stdin=b"taint-me-please!", tracing=True, engine=engine)
            machine.exit_code = machine.run(max_instructions=5_000_000)
            machines[engine] = machine
        ref, pre = machines["reference"], machines["predecoded"]
        assert ref.exit_code == pre.exit_code
        assert len(ref.obs.tracer) > 0
        assert_traces_identical(ref, pre)
        assert_counters_identical(ref.counters, pre.counters)


EXIT = "break 0x100000"
_STORE_ADDR = make_address(REGION_DATA, 0x100)

#: One minimal trigger per NaTConsumptionFault kind (paper Table 1's
#: L1-L3 detection paths), asserted identical across both engines.
FAULT_PROGRAMS = {
    "load_addr": f"""
    func main:
        movl r14 = {_STORE_ADDR}
        settag r14
        ld8 r15 = [r14]
        {EXIT}
    endfunc
    """,
    "store_addr": f"""
    func main:
        movl r14 = {_STORE_ADDR}
        settag r14
        st8 [r14] = r0
        {EXIT}
    endfunc
    """,
    "store_value": f"""
    func main:
        movl r13 = {_STORE_ADDR}
        movl r14 = 7
        settag r14
        st8 [r13] = r14
        {EXIT}
    endfunc
    """,
    "branch_move": f"""
    func main:
        movl r14 = 16
        settag r14
        mov b6 = r14
        {EXIT}
    endfunc
    """,
    "ar_move": f"""
    func main:
        movl r14 = 255
        settag r14
        mov ar.unat = r14
        {EXIT}
    endfunc
    """,
}


def _exit_syscall(cpu):
    cpu.halted = True
    cpu.exit_code = cpu.read_gr(32)


def _asm_cpu(text, engine):
    return CPU(assemble(text), SparseMemory(),
               syscall_handler=_exit_syscall, engine=engine)


class TestFaultKindsDifferential:
    @pytest.mark.parametrize("kind", NaTConsumptionFault.KINDS)
    def test_every_kind_identical(self, kind):
        outcomes = {}
        for engine in ENGINES:
            cpu = _asm_cpu(FAULT_PROGRAMS[kind], engine)
            with pytest.raises(NaTConsumptionFault) as excinfo:
                cpu.run(max_instructions=1_000)
            fault = excinfo.value
            assert fault.kind == kind
            # Fault.at() attached the faulting pc and instruction.
            assert fault.pc >= 0
            assert fault.instr is not None
            outcomes[engine] = (fault.pc, str(fault.instr),
                                cpu.counters.snapshot())
        assert outcomes["reference"] == outcomes["predecoded"]

    # Budgets around the fused-block guard band: a block retires up to
    # MAX_BLOCK instructions, so the slice loop switches to per-uop
    # execution near the end of the budget.
    @pytest.mark.parametrize("budget", [1, MAX_BLOCK, 63, 64, 65, 1_000])
    def test_runaway_identical(self, budget):
        text = f"""
        func main:
            movl r14 = 0
        loop:
            add r14 = r14, r14
            br loop
            {EXIT}
        endfunc
        """
        outcomes = {}
        for engine in ENGINES:
            cpu = _asm_cpu(text, engine)
            with pytest.raises(RunawayError):
                cpu.run(max_instructions=budget)
            assert cpu.counters.instructions == budget
            outcomes[engine] = (cpu.pc, cpu.counters.snapshot())
        assert outcomes["reference"] == outcomes["predecoded"]


class _HandlerError(Exception):
    pass


class TestHandlerExceptions:
    """A break ends its block; a handler that raises is located there."""

    TEXT = f"""
    func main:
        movl r14 = 5
        add r15 = r14, r14
        break {BREAK_NATIVE_BASE:#x}
        add r16 = r15, r15
        {EXIT}
    endfunc
    """

    @pytest.mark.parametrize("error", [_HandlerError, NaTConsumptionFault])
    def test_raising_handler_identical(self, error):
        def native(cpu, index):
            raise error("load_addr")

        outcomes = {}
        for engine in ENGINES:
            cpu = CPU(assemble(self.TEXT), SparseMemory(),
                      syscall_handler=_exit_syscall, native_handler=native,
                      engine=engine)
            with pytest.raises(error) as excinfo:
                cpu.run(max_instructions=1_000)
            assert str(cpu.program.code[cpu.pc]).startswith("break")
            outcomes[engine] = (cpu.pc, getattr(excinfo.value, "pc", None),
                                cpu.counters.snapshot(),
                                cpu.issue._group_slots)
        assert outcomes["reference"] == outcomes["predecoded"]


class TestCheckpointDifferential:
    def test_rollback_resume_identical_across_engines(self):
        """checkpoint -> attack -> rollback -> resume, pinned across
        engines: registers, memory, taint pages and PerfCounters."""
        from repro.apps.webserver import (
            RESIL_WEBSERVER_SOURCE, make_request, make_site,
            overflow_request)
        from repro.core.shift import compile_protected
        from repro.taint.engine import SecurityAlert

        compiled = compile_protected(RESIL_WEBSERVER_SOURCE, BYTE_STRICT)
        site = make_site((2,))
        finals = {}
        for engine in ENGINES:
            machine = build_machine(
                compiled, policy_config=webserver_policy(),
                files=dict(site), engine=engine)
            machine.net.add_request(make_request(2))
            # Checkpoint mid-way through the clean request, then let a
            # late-arriving attack abort the run, roll back, drop the
            # attack, and drain the queue.
            machine.cpu.run_slice(1_000)
            assert not machine.cpu.halted
            snapshot = machine.checkpoint()
            machine.net.add_request(overflow_request())
            with pytest.raises(SecurityAlert):
                machine.cpu.run_slice(50_000_000)
            machine.restore(snapshot)
            machine.net.pending.clear()
            machine.cpu.run_slice(50_000_000)
            assert machine.cpu.halted
            pages = {pno: bytes(pg)
                     for pno, pg in machine.memory._pages.items()
                     if any(pg)}
            finals[engine] = (
                list(machine.cpu.gr), list(machine.cpu.nat),
                list(machine.cpu.pr), machine.cpu.pc,
                machine.counters.snapshot(),
                list(machine.counters.pair_costs), pages)
            assert machine.alerts and machine.alerts[0].policy_id == "L1"
        assert finals["reference"] == finals["predecoded"]

    def test_migration_blob_identical_across_engines(self):
        """A mid-run blob carries no engine-internal state: its size
        prices a migration in simulated cycles."""
        from repro.resil.migrate import pack_worker

        compiled = compiled_webserver(PERF_OPTIONS["byte"])
        blobs = {}
        for engine in ENGINES:
            machine = build_machine(
                compiled, policy_config=webserver_policy(),
                files=dict(make_site((2,))), engine=engine,
                machine_id="worker")
            for _ in range(2):
                machine.net.add_request(make_request(2))
            machine.cpu.run_slice(30_000)
            blobs[engine] = pack_worker(machine)
        assert blobs["reference"] == blobs["predecoded"]


class TestThreads:
    def test_threaded_run_identical(self):
        source = THREAD_DECLS + """
        int work(int x) {
            int acc = 0;
            for (int i = 0; i < 200; i = i + 1) { acc = acc + x; }
            return acc;
        }
        int main() {
            int a = thread_create((int)&work, 3);
            int b = thread_create((int)&work, 5);
            return thread_join(a) + thread_join(b);
        }
        """
        machines = {}
        for engine in ENGINES:
            machine = build_machine(source, thread_quantum=97, engine=engine)
            machine.exit_code = machine.run(max_instructions=50_000_000)
            machines[engine] = machine
        ref, pre = machines["reference"], machines["predecoded"]
        assert ref.exit_code == pre.exit_code == 1600
        assert_counters_identical(ref.counters, pre.counters)


SLICED = READ + """
char buf[64];
int table[32];
int main() {
    read(0, buf, 48);
    int acc = 7;
    for (int round = 0; round < 4; round = round + 1) {
        for (int i = 0; i < 48; i = i + 1) {
            table[i & 31] = table[i & 31] + buf[i] * (round + 1);
            acc = acc * 31 + table[(i * 7) & 31];
        }
        read(0, buf, 16);
    }
    return acc & 255;
}
"""

_SLICED_STDIN = bytes(range(33, 33 + 80))


def _sliced_machine(compiled, engine):
    return build_machine(compiled, policy_config=PolicyConfig(),
                         stdin=_SLICED_STDIN, engine=engine)


def _arch_state(machine):
    cpu = machine.cpu
    pages = {pno: bytes(pg) for pno, pg in machine.memory._pages.items()
             if any(pg)}
    return (cpu.pc, list(cpu.gr), list(cpu.nat), list(cpu.pr), pages,
            machine.counters.instructions, cpu.exit_code)


@pytest.fixture(scope="module")
def sliced():
    """(compiled program, final state of one uninterrupted run)."""
    from repro.core.shift import compile_protected

    compiled = compile_protected(SLICED, BYTE_STRICT, include_libc=False)
    machine = _sliced_machine(compiled, "predecoded")
    machine.run(max_instructions=5_000_000)
    return compiled, _arch_state(machine)


_BUDGETS = st.one_of(
    st.integers(min_value=1, max_value=3 * MAX_BLOCK),
    st.sampled_from([MAX_BLOCK - 1, MAX_BLOCK, MAX_BLOCK + 1, 63, 64, 65,
                     1_000, 5_000]))


class TestSliceSchedules:
    """Any split of a run into slices is architecturally invisible.

    Each slice end flushes the issue pipeline, so cycles legitimately
    differ between schedules; across engines they must not.
    """

    @settings(max_examples=25, deadline=None)
    @given(schedule=st.lists(_BUDGETS, min_size=1, max_size=40))
    def test_sliced_run_matches_uninterrupted(self, sliced, schedule):
        compiled, uninterrupted = sliced
        machines = {}
        for engine in ENGINES:
            machine = _sliced_machine(compiled, engine)
            for budget in schedule:
                if machine.cpu.halted:
                    break
                machine.cpu.run_slice(budget)
            while not machine.cpu.halted:
                machine.cpu.run_slice(5_000_000)
            assert _arch_state(machine) == uninterrupted
            machines[engine] = machine
        assert_counters_identical(machines["reference"].counters,
                                  machines["predecoded"].counters)
