"""repro.adaptive: dual-version builds, the live-taint counter and the
runtime mode controller.

The load-bearing claims tested here:

* the track half of a dual build is *index-identical* to an always-on
  build (so alert pcs pin exactly);
* the taint map's ``live_granules`` counter stays exact under every
  mutation path (host ranges, packed imports, tag-space guest stores);
* fast mode is only ever entered from quiescence, and an adaptive run
  is observably identical to the always-on run — alerts, responses,
  console, and the data/tag memory image;
* checkpoint/rollback and the fleet driver carry the adaptive state.
"""

import pytest

from repro.adaptive import BOUNDARY_DEAD_GRS
from repro.adaptive.controller import MODE_FAST, MODE_TRACK
from repro.apps.webserver import make_request, traversal_request
from repro.compiler.instrument import ShiftOptions
from repro.compiler.pipeline import AdaptiveLayout, compile_program
from repro.core.shift import build_machine, compile_protected
from repro.cpu.faults import NaTConsumptionFault
from repro.harness.runners import (
    PERF_OPTIONS,
    backend_policy,
    build_web_machine,
)
from repro.mem.address import REGION_DATA, REGION_TAG, make_address, region_of
from repro.mem.memory import PAGE_SIZE, SparseMemory
from repro.taint.bitmap import (
    GRANULARITY_BYTE,
    GRANULARITY_WORD,
    TaintMap,
    pack_flags,
)
from repro.taint.policy import PolicyConfig

ENGINES = ("reference", "predecoded")

BYTE_STRICT = ShiftOptions(granularity=1)

SMALL = """
int helper(int x) { return x * 3 + 1; }
int main() {
    int acc = 0;
    for (int i = 0; i < 5; i = i + 1) { acc = acc + helper(i); }
    return acc;
}
"""


# -- dual-version layout ----------------------------------------------------


class TestDualLayout:
    def test_track_half_index_identical_to_always_on(self):
        always_on = compile_program(SMALL, BYTE_STRICT)
        dual = compile_program(SMALL, BYTE_STRICT, adaptive=True)
        n = len(always_on.program.code)
        assert [str(i) for i in dual.program.code[:n]] == [
            str(i) for i in always_on.program.code]
        for name, span in always_on.program.functions.items():
            assert dual.program.functions[name] == span

    def test_every_function_has_a_fast_twin(self):
        dual = compile_program(SMALL, BYTE_STRICT, adaptive=True)
        layout = dual.adaptive
        assert set(layout.anchors) == {"helper", "main"}
        for name, anchors in layout.anchors.items():
            fast = AdaptiveLayout.fast_name(name)
            f0, f1 = dual.program.functions[fast]
            assert f1 - f0 == len(anchors)
            assert list(anchors) == sorted(set(anchors))

    def test_fast_copy_carries_no_instrumentation(self):
        dual = compile_program(SMALL, BYTE_STRICT, adaptive=True)
        f0, f1 = dual.program.functions[AdaptiveLayout.fast_name("helper")]
        t0, t1 = dual.program.functions["helper"]
        assert all(i.role is None for i in dual.program.code[f0:f1])
        assert f1 - f0 < t1 - t0

    def test_adaptive_requires_shift_mode(self):
        with pytest.raises(ValueError):
            compile_program(SMALL, ShiftOptions(mode="none"), adaptive=True)


class TestControllerMaps:
    @pytest.fixture(scope="class")
    def machine(self):
        return build_machine(
            compile_protected(SMALL, BYTE_STRICT, adaptive=True),
            policy_config=PolicyConfig())

    def test_translation_roundtrip(self, machine):
        ctrl = machine.adaptive
        assert ctrl is not None
        for track_idx, fast_idx in ctrl.to_fast.items():
            assert ctrl.to_track[fast_idx] in ctrl.to_fast
        program = machine.program
        for name in machine.compiled.adaptive.anchors:
            t0 = program.functions[name][0]
            f0 = program.functions[AdaptiveLayout.fast_name(name)][0]
            assert ctrl.to_fast[t0] == f0
            assert ctrl.to_track[f0] == t0

    def test_non_code_values_do_not_translate(self, machine):
        ctrl = machine.adaptive
        assert ctrl._translate_value(
            make_address(REGION_DATA, 0x100), ctrl.to_fast) is None
        assert ctrl._translate_value(12345, ctrl.to_fast) is None

    def test_boundary_dead_set_excludes_abi_live_registers(self):
        # Callee-saved r4-r7, return r8, sp r12 can carry live taint
        # across a boundary: they must never be in the dead set.
        assert not ({4, 5, 6, 7, 8, 12} & BOUNDARY_DEAD_GRS)


class TestModeValidation:
    """One tracking-mode value, checked against the program layout."""

    @pytest.fixture(scope="class")
    def single(self):
        return compile_protected(SMALL, BYTE_STRICT)

    @pytest.fixture(scope="class")
    def dual(self):
        return compile_protected(SMALL, BYTE_STRICT, adaptive=True)

    @pytest.mark.parametrize("mode", ["on", "track", "speculate"])
    def test_dual_modes_reject_single_version_program(self, single, mode):
        with pytest.raises(ValueError):
            build_machine(single, adaptive=mode)

    def test_none_rejects_dual_version_program(self, dual):
        with pytest.raises(ValueError):
            build_machine(dual, adaptive="none")

    def test_unknown_mode_rejected(self, single, dual):
        for sources in (SMALL, single, dual):
            with pytest.raises(ValueError):
                build_machine(sources, BYTE_STRICT, adaptive="always")

    @pytest.mark.parametrize("mode,switching,speculating", [
        ("none", False, False), ("on", True, False),
        ("track", False, False), ("speculate", True, True)])
    def test_source_builds_honour_mode(self, mode, switching, speculating):
        machine = build_machine(SMALL, BYTE_STRICT, adaptive=mode)
        assert (machine.compiled.adaptive is not None) == (mode != "none")
        assert (machine.adaptive is not None) == switching
        assert (machine.spec is not None) == speculating


# -- the O(1) live-taint counter (satellites 1 and 2) -----------------------


@pytest.fixture(params=[GRANULARITY_BYTE, GRANULARITY_WORD],
                ids=["byte", "word"])
def tmap(request):
    return TaintMap(SparseMemory(), request.param)


def _addr(offset):
    return make_address(REGION_DATA, 0x2000 + offset)


def _granules(tainted_offsets, granularity):
    if granularity == GRANULARITY_BYTE:
        return len(tainted_offsets)
    return len({o >> 3 for o in tainted_offsets})


class TestLiveCounter:
    def test_counter_tracks_every_host_mutation(self, tmap):
        tainted = set()

        def mark(start, length, flag):
            tmap.set_range(_addr(start), length, flag)
            span = set(range(start, start + length))
            if tmap.granularity == GRANULARITY_WORD:
                # Word granularity rounds the range out to whole words.
                span = {o for w in {s >> 3 for s in span}
                        for o in range(w * 8, w * 8 + 8)}
            if flag:
                tainted.update(span)
            else:
                tainted.difference_update(span)
            assert tmap.live_granules == _granules(tainted, tmap.granularity)

        mark(0, 16, True)
        mark(4, 4, True)       # overlap: no double count
        mark(8, 4, False)      # partial clear
        mark(100, 3, True)
        mark(0, 128, False)    # full clear
        assert tmap.live_granules == 0

    def test_set_taint_toggles_counter(self, tmap):
        tmap.set_taint(_addr(5), True)
        assert tmap.live_granules == 1
        tmap.set_taint(_addr(5), True)   # idempotent
        assert tmap.live_granules == 1
        tmap.set_taint(_addr(5), False)
        assert tmap.live_granules == 0

    def test_live_bytes_scales_with_granularity(self, tmap):
        tmap.set_taint(_addr(0), True)
        assert tmap.live_bytes == tmap.granularity

    def test_import_range_lands_exact_count(self, tmap):
        # Pre-existing taint in the window must be replaced, not added.
        tmap.set_range(_addr(0), 8, True)
        flags = [True, False] * 8
        tmap.import_range(_addr(0), 16, pack_flags(flags))
        expected = set()
        for i, f in enumerate(flags):
            if f:
                expected.add(i)
        if tmap.granularity == GRANULARITY_WORD:
            expected = {o for w in {e >> 3 for e in expected}
                        for o in range(w * 8, w * 8 + 8)}
        assert tmap.live_granules == _granules(expected, tmap.granularity)
        assert tmap.taint_flags(_addr(0), 16) == [
            bool(tmap.granularity == GRANULARITY_WORD and (i >> 3) in {0, 1})
            or flags[i] for i in range(16)]

    def test_copy_taint_updates_counter(self, tmap):
        tmap.set_range(_addr(0), 8, True)
        tmap.copy_taint(_addr(64), _addr(0), 8)
        assert tmap.live_granules == 2 * _granules(set(range(8)),
                                                   tmap.granularity)

    def test_counter_authoritative_short_circuits(self, tmap):
        tmap.counter_authoritative = True
        assert not tmap.any_tainted(_addr(0), 4096)

    def test_guest_tag_store_path_keeps_counter_exact(self):
        """End-to-end: instrumented guest stores drive the counter."""
        source = """
        native int read(int fd, char *buf, int n);
        char buf[16];
        char dst[16];
        int main() {
            read(0, buf, 8);
            for (int i = 0; i < 8; i = i + 1) { dst[i] = buf[i]; }
            return 0;
        }
        """
        machine = build_machine(source, PERF_OPTIONS["byte"],
                                policy_config=PolicyConfig(),
                                stdin=b"12345678")
        machine.run(max_instructions=5_000_000)
        tm = machine.taint_map
        assert tm.counter_authoritative
        flags = tm.taint_flags(machine.address_of("buf"), 16)
        flags += tm.taint_flags(machine.address_of("dst"), 16)
        assert sum(flags) == 16
        assert tm.live_granules == 16

    def test_guest_overwrite_drains_counter(self):
        source = """
        native int read(int fd, char *buf, int n);
        char buf[16];
        int main() {
            read(0, buf, 8);
            for (int i = 0; i < 8; i = i + 1) { buf[i] = 0; }
            return 0;
        }
        """
        machine = build_machine(source, PERF_OPTIONS["byte"],
                                policy_config=PolicyConfig(),
                                stdin=b"12345678")
        machine.run(max_instructions=5_000_000)
        assert machine.taint_map.live_granules == 0


# -- mode switching ---------------------------------------------------------


def _backend_machine(adaptive="on", engine="predecoded", tracing=False):
    return build_web_machine(
        "backend", BYTE_STRICT,
        policy_config=backend_policy(),
        sizes=(4, 8),
        engine=engine,
        engine_mode="alert",
        tracing=tracing,
        adaptive=adaptive,
    )


def _tagged(machine, payload, tainted):
    machine.net.add_request(payload,
                            taint_mask=pack_flags([tainted] * len(payload)))


class TestSwitching:
    def test_clean_run_drops_to_fast_mode(self):
        machine = _backend_machine()
        for _ in range(4):
            _tagged(machine, make_request(4), False)
        served = machine.run(max_instructions=500_000_000)
        assert served == 4
        assert not machine.alerts
        ctrl = machine.adaptive
        assert ctrl.switches_to_fast >= 1
        assert ctrl.mode == MODE_FAST

    def test_tainted_request_forces_track_and_detects(self):
        machine = _backend_machine()
        _tagged(machine, make_request(4), False)
        _tagged(machine, traversal_request(), True)
        _tagged(machine, make_request(4), False)
        machine.run(max_instructions=500_000_000)
        ctrl = machine.adaptive
        assert ctrl.switches_to_track >= 1
        assert [a.policy_id for a in machine.alerts] == ["H2"]

    def test_switch_events_reach_the_tracer(self):
        from repro.obs.events import AdaptiveSwitchEvent

        machine = _backend_machine(tracing=True)
        _tagged(machine, make_request(4), False)
        _tagged(machine, traversal_request(), True)
        machine.run(max_instructions=500_000_000)
        events = [e for e in machine.obs.tracer.events()
                  if isinstance(e, AdaptiveSwitchEvent)]
        assert events, "mode switches must be traced"
        directions = [e.direction for e in events]
        assert directions[0] == "adaptive.enter_fast"
        assert "adaptive.enter_track" in directions
        for event in events:
            if event.direction == "adaptive.enter_fast":
                assert event.live_bytes == 0

    def test_switch_counts_surface_in_metrics(self):
        from repro.obs.metrics import collect_machine

        machine = _backend_machine()
        _tagged(machine, make_request(4), False)
        machine.run(max_instructions=500_000_000)
        registry = collect_machine(machine)
        rendered = registry.render()
        assert "adaptive.switches_to_fast" in rendered
        assert "taint.live_bytes" in rendered

    def test_pinned_track_build_has_no_controller(self):
        machine = _backend_machine(adaptive="track")
        assert machine.adaptive is None
        _tagged(machine, make_request(4), False)
        assert machine.run(max_instructions=500_000_000) == 1

    def test_controller_state_roundtrips_through_checkpoint(self):
        machine = _backend_machine()
        for _ in range(3):
            _tagged(machine, make_request(4), False)
        machine.cpu.run_slice(2_000)
        snapshot = machine.checkpoint()
        saved = machine.adaptive.capture()
        machine.cpu.run_slice(2_000_000)
        machine.restore(snapshot)
        assert machine.adaptive.capture() == saved


# -- differential: adaptive must be observably always-on --------------------


def _data_image(machine):
    """Digest-ready image of the data + tag regions (stacks excluded:
    dead red-zone laundering slots legitimately differ between modes)."""
    pages = {}
    for pno, page in machine.memory._pages.items():
        if not any(page):
            continue
        if region_of(pno * PAGE_SIZE) in (REGION_DATA, REGION_TAG):
            pages[pno] = bytes(page)
    return pages


def _strip_alerts(machine, with_counts=True):
    return [(a.policy_id, a.message, a.context, a.pc,
             a.instruction_count if with_counts else None,
             tuple(o.describe() for o in a.origins))
            for a in machine.alerts]


class TestDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_adaptive_matches_always_on(self, engine):
        outcomes = {}
        for arm in ("none", "track", "on"):
            machine = _backend_machine(adaptive=arm, engine=engine)
            for i in range(4):
                _tagged(machine, make_request(4), False)
                if i == 1:
                    _tagged(machine, traversal_request(), True)
            served = machine.run(max_instructions=500_000_000)
            outcomes[arm] = (machine, served)
        base, base_served = outcomes["none"]
        for arm in ("track", "on"):
            machine, served = outcomes[arm]
            assert served == base_served == 4
            assert ([bytes(c.outbound) for c in machine.net.completed]
                    == [bytes(c.outbound) for c in base.net.completed])
            assert machine.console.text == base.console.text
            # Alert pcs pin exactly because the track half is
            # index-identical to the always-on build; instruction
            # counts only pin for the arms that never run fast code.
            counts = arm == "track"
            assert (_strip_alerts(machine, counts)
                    == _strip_alerts(base, counts))
            assert _data_image(machine) == _data_image(base)
        # The adaptive arm must actually have exercised fast mode —
        # otherwise this differential proves nothing.
        assert outcomes["on"][0].adaptive.switches_to_fast >= 1

    @pytest.mark.parametrize("kind", NaTConsumptionFault.KINDS)
    def test_fault_kinds_report_identically(self, kind):
        records = {}
        for arm in ("none", "on"):
            machine = _backend_machine(adaptive=arm)
            machine.engine.on_fault(
                machine.cpu, NaTConsumptionFault(kind).at(77, None))
            records[arm] = [(a.policy_id, a.message, a.context, a.pc)
                            for a in machine.alerts]
        assert records["none"] == records["on"]
        assert len(records["none"]) == 1

    def test_attack_mix_identical_under_adaptive(self):
        from repro.harness.resilbench import attack_mix

        base = attack_mix(engine="predecoded", clean_requests=4)
        results = {arm: attack_mix(engine="predecoded", clean_requests=4,
                                   adaptive=arm)
                   for arm in ("on", "track")}
        for arm, mix in results.items():
            assert mix["exact"], arm
            assert mix["incidents"] == base["incidents"]
            assert mix["served"] == base["served"]
            assert mix["quarantined"] == base["quarantined"]
        assert results["on"]["adaptive_stats"] is not None


# -- fleet integration ------------------------------------------------------


class TestFleetAdaptive:
    def test_workers_run_adaptive(self):
        from repro.fleet.driver import FleetConfig, FleetDriver

        config = FleetConfig(variant="backend", options=BYTE_STRICT,
                             policy=backend_policy(), sizes=(4, 8),
                             engine_mode="raise", adaptive="on")
        driver = FleetDriver(config, workers=2)
        result = driver.run([make_request(4)] * 6)
        assert result.served == 6
        for machine in result.machines.values():
            ctrl = machine.adaptive
            assert ctrl is not None
            assert ctrl.mode in (MODE_FAST, MODE_TRACK)
            assert ctrl.switches_to_fast >= 1
