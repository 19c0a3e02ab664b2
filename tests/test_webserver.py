"""Web-server app tests (the Figure 6 workload)."""

import hashlib

import pytest

from repro.apps.webserver import (
    FILE_SIZES_KB,
    WEBSERVER_SOURCE,
    make_request,
    make_site,
)
from repro.core.shift import build_machine
from repro.harness.runners import (
    PERF_OPTIONS,
    compiled_webserver,
    run_webserver,
    webserver_policy,
)
from repro.taint.engine import SecurityAlert


def serve(requests, options=PERF_OPTIONS["none"], files=None, policy=None):
    machine = build_machine(
        compiled_webserver(options),
        policy_config=policy or webserver_policy(),
        files=files or make_site((4,)),
    )
    for request in requests:
        machine.net.add_request(request)
    served = machine.run(max_instructions=200_000_000)
    return machine, served


class TestServing:
    def test_serves_file_with_200(self):
        machine, served = serve([make_request(4)])
        assert served == 1
        response = bytes(machine.net.completed[0].outbound)
        assert response.startswith(b"HTTP/1.0 200 OK")
        assert len(response) > 4096

    def test_body_matches_file(self):
        files = make_site((4,))
        machine, _ = serve([make_request(4)], files=files)
        response = bytes(machine.net.completed[0].outbound)
        body = response.split(b"\r\n\r\n", 1)[1]
        assert body == files["/www/file4k.bin"]

    def test_missing_file_404(self):
        machine, served = serve([b"GET /nope.bin HTTP/1.0\r\n\r\n"])
        assert served == 0
        assert b"404" in bytes(machine.net.completed[0].outbound)

    def test_bad_method_400(self):
        machine, _ = serve([b"POST /x HTTP/1.0\r\n\r\n"])
        assert b"400" in bytes(machine.net.completed[0].outbound)

    def test_multiple_requests(self):
        machine, served = serve([make_request(4)] * 5)
        assert served == 5

    def test_instrumented_server_same_behaviour(self):
        base, _ = serve([make_request(4)])
        inst, served = serve([make_request(4)], PERF_OPTIONS["byte"])
        assert served == 1
        assert bytes(inst.net.completed[0].outbound) == \
            bytes(base.net.completed[0].outbound)


class TestProtection:
    def test_traversal_attack_detected(self):
        files = dict(make_site((4,)))
        files["/etc/secret"] = b"topsecret"
        machine = build_machine(
            compiled_webserver(PERF_OPTIONS["byte"]),
            policy_config=webserver_policy(),
            files=files,
        )
        machine.net.add_request(b"GET /../etc/secret HTTP/1.0\r\n\r\n")
        with pytest.raises(SecurityAlert) as excinfo:
            machine.run()
        assert excinfo.value.policy_id == "H2"

    def test_benign_requests_raise_nothing(self):
        machine, served = serve([make_request(4)] * 3, PERF_OPTIONS["byte"])
        assert served == 3
        assert not machine.alerts


class TestOverheadShape:
    def test_overhead_is_small(self):
        base = run_webserver(PERF_OPTIONS["none"], 4, requests=6)
        byte = run_webserver(PERF_OPTIONS["byte"], 4, requests=6)
        ratio = byte.total_cycles / base.total_cycles
        assert 1.0 <= ratio < 1.10, f"server overhead should be tiny, got {ratio:.3f}"

    def test_larger_files_have_lower_overhead(self):
        def overhead(kb):
            base = run_webserver(PERF_OPTIONS["none"], kb, requests=4)
            byte = run_webserver(PERF_OPTIONS["byte"], kb, requests=4)
            return byte.total_cycles / base.total_cycles
        assert overhead(64) <= overhead(4)

    def test_io_dominates(self):
        run = run_webserver(PERF_OPTIONS["none"], 16, requests=4)
        assert run.io_cycles > 0.8 * run.total_cycles


def site_sha(site):
    h = hashlib.sha256()
    for path in sorted(site):
        h.update(path.encode() + b"\0" + site[path])
    return h.hexdigest()


class TestMakeSite:
    #: The open-loop serving benchmark's twelve file sizes (KB).
    SERVE_SIZES_KB = (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32)

    def test_calls_return_equal_but_distinct_dicts(self):
        first = make_site((4, 8))
        second = make_site((4, 8))
        assert first == second
        assert first is not second
        first["/etc/secret"] = b"planted"
        first["/www/file4k.bin"] = b"clobbered"
        assert make_site((4, 8)) == second
        assert "/etc/secret" not in make_site((4, 8))

    def test_sizes_may_be_any_sequence(self):
        assert make_site([4, 8]) == make_site((4, 8))

    def test_bytes_are_pinned(self):
        assert site_sha(make_site(FILE_SIZES_KB)) == (
            "5650a0e6f7be4263830e33ed2f23c81f8ba9d0591eb1767e1cc663e37f84604f")
        assert site_sha(make_site(self.SERVE_SIZES_KB)) == (
            "3e08a3e1fe33e13391a38b60936fc0e73ea2442f2487f251d74ff4ba42a30b0c")
