"""The simulation service: sessions, the fleet, and the load test.

Three layers under test (DESIGN.md 5.9):

* :class:`repro.service.Session` -- sliced execution equals one-shot
  execution, suspend/resume round-trips byte-identically, supervised
  faulted sessions converge to the clean trajectory, metering survives
  migration.
* :class:`repro.service.Fleet` -- the host protocol, LRU eviction to
  spool files, warm-restore migration onto other workers, and the
  invariant that none of it is visible in session results.
* the load test -- fleet execution at any worker count is byte-identical
  to serial in-process execution of the same script.
"""

import asyncio
import json
import pathlib
import tracemalloc

import pytest

from repro.config import PRODUCTION
from repro.errors import EmulatorError, ServiceError
from repro.perf.workloads import mesa_loop_sum
from repro.service import (
    Fleet,
    Frontend,
    Session,
    SessionHost,
    config_from_signature,
    loadtest_json,
    run_loadtest,
)
from repro.service.loadtest import build_script
from repro.state import canonical_json, config_signature, parse_canonical_json

MESA_CYCLES = json.loads(
    (pathlib.Path(__file__).parent / "goldens.json").read_text()
)["matrix_cycles"]["mesa_loop_sum@production"]

#: The known-recoverable demo fault plan (see DESIGN.md 5.5 and the
#: recovery CI job): one ECC double-bit error plus one spurious map
#: fault inside the first checkpoint intervals.
DEMO_FAULT = {
    "seed": 39,
    "storage_uncorrectable": 1,
    "map_faults": 1,
    "first_cycle": 0,
    "last_cycle": 2200,
}


def run_to_halt(session, slice_cycles=1000, max_slices=1000):
    """Drive a session with uniform slices; return total granted cycles."""
    total = 0
    for _ in range(max_slices):
        result = session.run_slice(slice_cycles)
        total += result.cycles
        if result.halted:
            return total
    raise AssertionError("session did not halt within the slice budget")


# --------------------------------------------------------------------------
# the Workload slice primitive (satellite: run over run_slice)
# --------------------------------------------------------------------------

def test_workload_run_slice_reports_budget_exhaustion():
    workload = mesa_loop_sum()
    first = workload.run_slice(500)
    assert first.cycles == 500 and first.exhausted and not first.halted
    rest = workload.run_slice(5_000_000)
    assert rest.halted and not rest.exhausted
    assert 500 + rest.cycles == MESA_CYCLES
    assert workload.verify()


def test_workload_run_still_allornothing():
    with pytest.raises(EmulatorError, match="did not halt"):
        mesa_loop_sum().run(max_cycles=100)


# --------------------------------------------------------------------------
# sessions
# --------------------------------------------------------------------------

def test_sliced_session_equals_oneshot_run():
    oneshot = Session.build("mesa_loop_sum")
    assert oneshot.run() == MESA_CYCLES

    sliced = Session.build("mesa_loop_sum")
    run_to_halt(sliced, slice_cycles=700)
    assert sliced.status == "halted"
    assert sliced.verify()
    assert sliced.cpu.counters.cycles == MESA_CYCLES
    assert sliced.arch_hash() == oneshot.arch_hash()
    # Slices granted after HALT are zero-cycle no-ops.
    spare = sliced.run_slice(1000)
    assert spare.cycles == 0 and spare.halted


def test_session_run_budget_failure_is_recorded():
    session = Session.build("mesa_loop_sum")
    with pytest.raises(EmulatorError, match="did not halt"):
        session.run(max_cycles=100)
    assert session.status == "failed"
    assert "did not halt" in session.failure
    # A failed session stays failed; no further cycles are granted.
    assert session.run_slice(1000).cycles == 0


def test_session_rejects_bad_names_and_workloads():
    with pytest.raises(ServiceError, match="invalid session name"):
        Session.build("mesa_loop_sum", name="../escape")
    with pytest.raises(ServiceError, match="unknown workload"):
        Session.build("nonesuch")
    with pytest.raises(ServiceError, match="slice budget"):
        Session.build("mesa_loop_sum").run_slice(0)
    for budget in ("x", True, 2.5):
        with pytest.raises(ServiceError, match="slice budget"):
            Session.build("mesa_loop_sum").run_slice(budget)
    with pytest.raises(ServiceError, match="bad workload args"):
        Session.build("mesa_loop_sum", args={"bogus": 1})


def test_suspend_resume_roundtrip_is_byte_identical():
    session = Session.build("mesa_loop_sum", name="alice")
    session.run_slice(1500)
    envelope = session.suspend()
    resumed = Session.resume(envelope)
    assert resumed.name == "alice"
    assert resumed.suspend() == envelope  # save -> load -> save identity

    # Both lives converge on the same machine trajectory.
    run_to_halt(session)
    run_to_halt(resumed)
    assert resumed.cpu.counters.cycles == session.cpu.counters.cycles
    assert resumed.arch_hash() == session.arch_hash()
    assert resumed.verify() and session.verify()
    # Metering rode along: the resumed life still meters from admission.
    assert resumed.meter()["cycles"] == MESA_CYCLES


def test_resume_rejects_malformed_envelopes():
    session = Session.build("mesa_loop_sum")
    envelope = parse_canonical_json(session.suspend())
    envelope["service_version"] = 99
    with pytest.raises(ServiceError, match="version"):
        Session.resume(envelope)
    with pytest.raises(ServiceError):
        Session.resume("[1, 2, 3]")
    del envelope["service_version"]
    with pytest.raises(ServiceError):
        Session.resume(envelope)


_WORDS = PRODUCTION.storage_words


@pytest.mark.parametrize("runs", [
    [["junk", _WORDS]],
    [[-7, _WORDS]],
    [[0x10000, 16], [0, _WORDS - 16]],
    [[True, 16], [0, _WORDS - 16]],
    [[0, True], [0, _WORDS - 1]],
    [[0, 2.0], [0, _WORDS - 2]],
    [[5, 0], [0, _WORDS]],
    [[5, -16], [0, _WORDS + 16]],
    [[0, _WORDS - 16]],
    [[0, _WORDS], [1, 16]],
    [[0]],
    [[0, 2 ** 63]],
    [[0, 10 ** 15]],
    "junk",
])
def test_resume_rejects_malformed_storage_images(runs):
    """Storage runs in an envelope are outside input: refused, not loaded."""
    envelope = json.loads(Session.build("mesa_loop_sum").suspend())
    envelope["machine"]["mem"]["storage"]["data"]["__rle__"] = runs
    with pytest.raises(ServiceError):
        Session.resume(json.dumps(envelope))


def test_resume_rejects_out_of_range_dense_storage_words():
    envelope = parse_canonical_json(Session.build("mesa_loop_sum").suspend())
    storage = envelope["machine"]["mem"]["storage"]
    # A parsed envelope keeps the image as runs; spell it out as a dense
    # list so every bad word goes through the dense path.
    words = [
        value for value, count in storage["data"]["__rle__"] for _ in range(count)
    ]
    assert len(words) == _WORDS
    storage["data"] = words
    for bad in (-7, 0x10000, "junk", None, 1.5, True):
        words[0x4321] = bad
        with pytest.raises(ServiceError):
            Session.resume(envelope)
    words[0x4321] = 0
    assert Session.resume(envelope).arch_hash() == Session.build(
        "mesa_loop_sum").arch_hash()


def _resume_peak_bytes(envelope):
    """Resume *envelope* expecting refusal; the peak bytes traced meanwhile."""
    tracemalloc.start()
    try:
        with pytest.raises(ServiceError):
            Session.resume(envelope)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("path", [("regs", "rm"), ("stack", "memory")])
@pytest.mark.parametrize("runs", [
    [[0, 10 ** 9]],
    [[1, 2 ** 63]],
    [[0, 255]],
    [[0, 257]],
    [[0, 200], [7, 10 ** 12]],
    [[True, 256]],
    [[0, True], [0, 255]],
    [[0, 256.0]],
    "junk",
])
def test_resume_checks_register_runs_before_allocating(path, runs):
    """RM and the stack memory are 256 words: no run count may exceed that."""
    envelope = parse_canonical_json(Session.build("mesa_loop_sum").suspend())
    section, field = path
    assert "__rle__" in envelope["machine"]["core"][section][field]
    envelope["machine"]["core"][section][field] = {"__rle__": runs}
    assert _resume_peak_bytes(canonical_json(envelope)) < 16 * 2 ** 20


@pytest.mark.parametrize("field, value", [
    ("im_size", 1 << 20),
    ("cache_lines", 1 << 16),
    ("num_base_registers", 1 << 22),
    ("base_register_bits", 1 << 27),
])
def test_resume_checks_config_sizes_before_allocating(field, value):
    """A config signature sizing a huge IM, cache, base-register file or
    base-register mask is refused before the machine is built."""
    envelope = parse_canonical_json(Session.build("mesa_loop_sum").suspend())
    envelope["machine"]["config"][field] = value
    assert _resume_peak_bytes(canonical_json(envelope)) < 16 * 2 ** 20


def test_resume_refuses_storage_beyond_the_real_machine():
    """A config claiming 2**40 words is refused before anything is built."""
    envelope = parse_canonical_json(Session.build("mesa_loop_sum").suspend())
    envelope["machine"]["config"]["storage_words"] = 2 ** 40
    with pytest.raises(ServiceError, match="storage_words"):
        Session.resume(envelope)
    assert _resume_peak_bytes(canonical_json(envelope)) < 16 * 2 ** 20


def test_config_signature_roundtrip_rebuilds_config():
    import dataclasses

    from repro.fault.plan import FaultConfig

    assert config_from_signature(config_signature(PRODUCTION)) == PRODUCTION
    faulted = dataclasses.replace(
        PRODUCTION, fault_injection=FaultConfig(**DEMO_FAULT)
    )
    assert config_from_signature(config_signature(faulted)) == faulted
    with pytest.raises(ServiceError, match="config signature"):
        config_from_signature({"nonesuch": 1})


def test_faulted_session_supervises_by_default_and_converges():
    clean = Session.build("mesa_loop_sum")
    clean.run()

    session = Session.build(
        "mesa_loop_sum", fault=DEMO_FAULT, checkpoint_interval=600,
    )
    assert session.supervise and session.faulted
    run_to_halt(session, slice_cycles=1200)
    result = session.result()
    assert result["recovered"] is True
    assert result["verified"]
    # Recovery converges byte-identically to the clean trajectory.
    assert result["cycles"] == MESA_CYCLES
    assert result["arch_hash"] == clean.arch_hash()
    assert session.cpu.counters.rollbacks > 0


def test_faulted_session_survives_midrun_migration():
    """Suspend/resume mid-recovery changes nothing about the outcome."""
    straight = Session.build(
        "mesa_loop_sum", fault=DEMO_FAULT, checkpoint_interval=600,
    )
    run_to_halt(straight, slice_cycles=1200)

    migrated = Session.build(
        "mesa_loop_sum", fault=DEMO_FAULT, checkpoint_interval=600,
    )
    migrated.run_slice(1200)
    migrated = Session.resume(migrated.suspend())  # the migration
    run_to_halt(migrated, slice_cycles=1200)

    assert migrated.arch_hash() == straight.arch_hash()
    assert migrated.cpu.counters.cycles == straight.cpu.counters.cycles
    assert migrated.verify()


def test_many_live_sessions_share_one_boot_template():
    """Interleaved sessions of one workload never see each other."""
    a = Session.build("mesa_loop_sum", name="a")
    b = Session.build("mesa_loop_sum", name="b")
    assert a.cpu is not b.cpu
    a.run_slice(1000)
    b.run_slice(2000)  # interleave: b overtakes a on the shared workload
    a.run_slice(1000)
    assert a.cpu.counters.cycles == 2000
    assert b.cpu.counters.cycles == 2000
    run_to_halt(a)
    run_to_halt(b)
    assert a.verify() and b.verify()
    assert a.arch_hash() == b.arch_hash()


def test_session_meter_is_a_delta_not_a_total(tmp_path):
    donor = Session.build("mesa_loop_sum")
    donor.run_slice(3000)
    path = tmp_path / "mid.json"
    donor.cpu.snapshot().save(path)

    from repro.state import MachineState

    session = Session.build("mesa_loop_sum")
    session.load(MachineState.load(path))
    run_to_halt(session)
    assert session.cpu.counters.cycles == MESA_CYCLES
    # Metering re-based at the restore: only this life's work counts.
    assert session.meter()["cycles"] == MESA_CYCLES - 3000


# --------------------------------------------------------------------------
# the host protocol and the fleet
# --------------------------------------------------------------------------

def test_sessionhost_protocol_errors_are_data():
    host = SessionHost()
    assert host.handle({"op": "open", "name": "s1",
                        "workload": "mesa_loop_sum"})["ok"]
    duplicate = host.handle({"op": "open", "name": "s1",
                             "workload": "mesa_loop_sum"})
    assert not duplicate["ok"] and "already live" in duplicate["error"]
    missing = host.handle({"op": "run", "name": "ghost", "cycles": 100})
    assert not missing["ok"] and "not live" in missing["error"]
    unknown = host.handle({"op": "teleport"})
    assert not unknown["ok"]

    reply = host.handle({"op": "run", "name": "s1", "cycles": 600})
    assert reply["ok"] and reply["status"] == "running"
    assert reply["cycles"] == 600
    suspended = host.handle({"op": "suspend", "name": "s1"})
    assert suspended["ok"] and "s1" not in host.sessions
    assert host.handle({"op": "resume",
                        "envelope": suspended["envelope"]})["ok"]
    assert host.handle({"op": "stats"})["sessions"] == ["s1"]


def test_host_reports_run_failure_as_data_not_error():
    host = SessionHost()
    # Unsupervised faults corrupt the answer: the run halts, but the
    # oracle rejects it -- recorded, not raised.
    host.handle({"op": "open", "name": "hurt", "workload": "mesa_loop_sum",
                 "fault": DEMO_FAULT, "supervise": False})
    reply = host.handle({"op": "run", "name": "hurt", "cycles": 200_000})
    assert reply["ok"] and reply["status"] == "halted"
    result = host.handle({"op": "result", "name": "hurt"})["result"]
    assert result["verified"] is False
    assert result["recovered"] is False

    # A supervised session with no retry budget exhausts recovery: the
    # DoradoError becomes data on the reply, not a protocol error.
    host.handle({"op": "open", "name": "doomed", "workload": "mesa_loop_sum",
                 "fault": DEMO_FAULT, "supervise": True,
                 "checkpoint_interval": 600, "max_retries": 0})
    reply = host.handle({"op": "run", "name": "doomed", "cycles": 200_000})
    assert reply["ok"] and reply["status"] == "failed"
    assert reply["failure"]
    result = host.handle({"op": "result", "name": "doomed"})["result"]
    assert result["recovered"] is False and result["failure"]


def test_fleet_evicts_and_migrates_invisibly(tmp_path):
    """Capacity 2, five sessions, two workers: constant churn, same answers."""
    reference = {}
    for index in range(5):
        session = Session.build("mesa_loop_sum", name=f"s{index}")
        run_to_halt(session, slice_cycles=900)
        reference[f"s{index}"] = session.result()

    results = {}
    with Fleet(workers=2, capacity=2, spool_dir=str(tmp_path)) as fleet:
        for index in range(5):
            fleet.open_session(f"s{index}", "mesa_loop_sum")
        active = [f"s{index}" for index in range(5)]
        while active:
            replies = fleet.run_round(active, 900)
            for name in list(active):
                if replies[name]["status"] != "running":
                    results[name] = fleet.result(name)
                    fleet.close_session(name)
                    active.remove(name)
        stats = fleet.stats()

    assert stats["evictions"] > 0
    assert stats["migrations"] > 0  # warm-restores landed on other workers
    assert results == reference  # placement/eviction left no trace


def test_fleet_api_validation(tmp_path):
    with Fleet(workers=1, capacity=2, spool_dir=str(tmp_path)) as fleet:
        fleet.open_session("s1", "mesa_loop_sum")
        with pytest.raises(ServiceError, match="already exists"):
            fleet.open_session("s1", "mesa_loop_sum")
        with pytest.raises(ServiceError, match="invalid session name"):
            fleet.open_session("bad/name", "mesa_loop_sum")
        with pytest.raises(ServiceError, match="unknown session"):
            fleet.run_slice("ghost", 100)
        # Forced suspend spools the envelope; any access resumes it.
        path = fleet.suspend("s1")
        assert pathlib.Path(path).exists()
        assert fleet.stats()["live"] == []
        assert fleet.run_slice("s1", 500)["cycles"] == 500
        assert fleet.stats()["live"] == ["s1"]
    with pytest.raises(ServiceError):
        Fleet(workers=0)


def test_fleet_refuses_malformed_requests_without_losing_the_worker(tmp_path):
    """A bad budget or bad workload args is the client's error: the
    worker answers it, so no crash, respawn or degrade follows."""
    with Fleet(workers=1, capacity=2, spool_dir=str(tmp_path)) as fleet:
        fleet.open_session("a", "mesa_loop_sum")
        for budget in ("x", 0):
            with pytest.raises(ServiceError, match="slice budget"):
                fleet.run_slice("a", budget)
        with pytest.raises(ServiceError, match="bad workload args"):
            fleet.open_session("b", "mesa_loop_sum", args={"bogus": 1})
        assert fleet.run_slice("a", 500)["cycles"] == 500
        stats = fleet.stats()
    assert stats["worker_crashes"] == 0
    assert stats["respawns"] == 0
    assert stats["degrades"] == 0


# --------------------------------------------------------------------------
# the load test: the byte-identity gate, in miniature
# --------------------------------------------------------------------------

def test_build_script_mixes_clean_and_faulted():
    script = build_script(9, seed=17, fault_every=3)
    assert [entry["fault"] is not None for entry in script] == (
        [False, False, True] * 3
    )
    seeds = {entry["fault"]["seed"] for entry in script if entry["fault"]}
    assert len(seeds) == 3  # per-session derived seeds


@pytest.mark.slow
def test_loadtest_fleet_matches_serial_byte_for_byte():
    serial, _ = run_loadtest(sessions=6, capacity=2, serial=True)
    fleet, stats = run_loadtest(sessions=6, capacity=2, workers=2)
    assert loadtest_json(fleet) == loadtest_json(serial)
    assert stats["evictions"] > 0
    counts = {r["status"] for r in fleet["results"].values()}
    assert counts == {"halted"}


# --------------------------------------------------------------------------
# the asyncio front end
# --------------------------------------------------------------------------

def test_frontend_roundtrip(tmp_path):
    async def scenario():
        fleet = Fleet(workers=1, capacity=2, spool_dir=str(tmp_path))
        frontend = Frontend(fleet)
        bound = asyncio.get_running_loop().create_future()
        server = asyncio.create_task(
            frontend.serve("127.0.0.1", 0, ready=bound.set_result)
        )
        host, port = await bound
        reader, writer = await asyncio.open_connection(host, port)

        async def call(request):
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())

        try:
            assert (await call({"op": "ping"}))["pong"]
            assert (await call({"op": "open", "name": "alice",
                                "workload": "mesa_loop_sum"}))["ok"]
            reply = await call({"op": "run", "name": "alice",
                                "cycles": 1000})
            assert reply["ok"] and reply["status"] == "running"
            rows = await call({"op": "round", "names": ["alice"],
                               "cycles": 5_000_000})
            assert rows["sessions"]["alice"]["status"] == "halted"
            result = await call({"op": "result", "name": "alice"})
            assert result["result"]["verified"]
            assert result["result"]["cycles"] == MESA_CYCLES
            bad = await call({"op": "open", "name": "alice",
                              "workload": "mesa_loop_sum"})
            assert not bad["ok"] and "already exists" in bad["error"]
            garbage = await call({"op": "warp"})
            assert not garbage["ok"]
            assert (await call({"op": "shutdown"}))["stopping"]
        finally:
            writer.close()
            if not server.done():
                server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            fleet.close()

    asyncio.run(scenario())


# --------------------------------------------------------------------------
# the CLI
# --------------------------------------------------------------------------

def test_service_cli_loadtest_and_bench_smoke(tmp_path, capsys):
    from repro.service.__main__ import main as service_main

    out_fleet = tmp_path / "fleet.json"
    out_serial = tmp_path / "serial.json"
    base = ["loadtest", "--sessions", "4", "--capacity", "2",
            "--slice-cycles", "1500"]
    assert service_main(base + ["--workers", "2",
                                "--output", str(out_fleet)]) == 0
    assert service_main(base + ["--serial",
                                "--output", str(out_serial)]) == 0
    assert out_fleet.read_bytes() == out_serial.read_bytes()
    artifact = parse_canonical_json(out_fleet.read_text())
    assert len(artifact["results"]) == 4
    capsys.readouterr()


# --------------------------------------------------------------------------
# robustness satellites (DESIGN.md 5.10): crash detection, request
# idempotence, and a front end nothing a client sends can kill
# --------------------------------------------------------------------------

def test_process_host_reports_crash_with_context():
    """A dead child surfaces as WorkerCrashed, not an eternal hang.

    The exception carries the worker slot, the in-flight op, and the
    session names it addressed -- everything the fleet's recovery path
    needs without a live process to ask.
    """
    import multiprocessing

    from repro.errors import CallTimeout, WorkerCrashed
    from repro.service import ProcessHost

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs a forking platform")

    host = ProcessHost(index=3)
    try:
        assert host.call({"op": "open", "name": "s1",
                          "workload": "mesa_loop_sum"})["ok"]
        host.kill()
        with pytest.raises(WorkerCrashed) as info:
            host.call({"op": "run", "name": "s1", "cycles": 100})
        assert info.value.worker == 3
        assert info.value.op == "run"
        assert info.value.sessions == ("s1",)
    finally:
        host.reap()

    # A live-but-silent worker is a timeout, not a hang.
    quiet = ProcessHost(index=0)
    try:
        quiet.last_request = {"op": "run", "name": "ghost"}
        with pytest.raises(CallTimeout, match="no reply"):
            quiet.recv(timeout=0.2)
    finally:
        quiet.close()


def test_host_request_dedup_and_checkpoint():
    """Duplicate req ids replay the cached reply; checkpoint is a
    non-destructive suspend."""
    host = SessionHost()
    host.handle({"op": "open", "name": "s1", "workload": "mesa_loop_sum",
                 "req": 1})
    first = host.handle({"op": "run", "name": "s1", "cycles": 300, "req": 2})
    assert first["ok"] and first["cycles"] == 300 and first["req"] == 2
    replayed = host.handle({"op": "run", "name": "s1", "cycles": 300,
                            "req": 2})
    assert replayed == first  # cached: the slice was NOT granted twice
    second = host.handle({"op": "run", "name": "s1", "cycles": 300, "req": 3})
    assert second["cycles"] == 600

    snapshot = host.handle({"op": "checkpoint", "name": "s1", "req": 4})
    assert snapshot["ok"] and "s1" in host.sessions  # still live
    twin = Session.resume(snapshot["envelope"])
    assert twin.cpu.counters.cycles == 600

    # Messages without a req id keep the legacy fire-and-forget shape.
    bare = host.handle({"op": "stats"})
    assert bare["sessions"] == ["s1"] and "req" not in bare


def test_frontend_survives_hostile_lines(tmp_path):
    """Malformed JSON, non-objects, unknown ops, and oversized lines all
    earn structured error replies -- and the connection loop survives."""
    async def scenario():
        fleet = Fleet(workers=1, capacity=2, spool_dir=str(tmp_path))
        frontend = Frontend(fleet, max_line=512)
        bound = asyncio.get_running_loop().create_future()
        server = asyncio.create_task(
            frontend.serve("127.0.0.1", 0, ready=bound.set_result)
        )
        host, port = await bound
        reader, writer = await asyncio.open_connection(host, port)

        async def send_line(raw):
            writer.write(raw + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())

        try:
            bad = await send_line(b"this is not json")
            assert not bad["ok"] and "bad request" in bad["error"]
            array = await send_line(b"[1, 2, 3]")
            assert not array["ok"] and "JSON object" in array["error"]
            unknown = await send_line(json.dumps({"op": "warp"}).encode())
            assert not unknown["ok"] and "unknown op" in unknown["error"]
            missing = await send_line(json.dumps({"op": "run"}).encode())
            assert not missing["ok"] and "KeyError" in missing["error"]

            # An oversized line: the reply stream may interleave extra
            # bad-request replies for the discarded tail, but the loop
            # survives and a well-formed ping still gets its pong.
            writer.write(b'{"op": "ping", "pad": "' + b"x" * 2048 + b'"}\n')
            await writer.drain()
            oversize = json.loads(await reader.readline())
            assert not oversize["ok"] and "exceeds" in oversize["error"]
            writer.write(json.dumps({"op": "ping"}).encode() + b"\n")
            await writer.drain()
            while True:
                reply = json.loads(await reader.readline())
                if reply.get("pong"):
                    break  # the loop outlived every hostile line
            assert (await send_line(
                json.dumps({"op": "shutdown"}).encode()
            ))["stopping"]
        finally:
            writer.close()
            if not server.done():
                server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            fleet.close()

    asyncio.run(scenario())
