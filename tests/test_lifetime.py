"""Object lifetime: a dropped machine is freed by reference counting.

Nothing a :class:`~repro.core.processor.Processor` owns refers back to
it strongly (DESIGN.md 5.12), and the boot cache's shared workload
context does not pin a session's machine between operations.  So a
machine dies the moment its last owner lets go, with no help from the
cyclic garbage collector -- which every test here switches off -- and
forked workers keep what they inherit out of the collector's way.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.config import PRODUCTION
from repro.core.processor import Processor
from repro.perf.tracing import PipelineTracer
from repro.perf.workloads import mesa_loop_sum
from repro.service import Session
from repro.service.fleet import Fleet, SessionHost
from repro.service.loadtest import FAULT_TEMPLATE, ROTATION
from repro.service.session import _BOOT_CACHE, clear_boot_cache
from repro.workers import Worker, can_fork

#: fleet_churn-sized arguments: a few 1200-cycle slices each.
SIZES = {
    "mesa_loop_sum": {"n": 160},
    "lisp_list_sum": {"n": 27},
    "bcpl_loop_sum": {"n": 240},
    "smalltalk_counter": {"sends": 48},
    "mesa_mul_kernel": {"iters": 80},
}
SLICE = 1200


@pytest.fixture(autouse=True)
def no_collector():
    """Only reference counting frees anything while a test runs."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _build(workload, faulted):
    fault = dict(FAULT_TEMPLATE, seed=101) if faulted else None
    return Session.build(workload, args=SIZES[workload], fault=fault)


def _rotate(workload, faulted):
    """Weak references to both machines of one rotated session's life:
    ``run_slice`` -> ``suspend`` -> ``Session.resume`` -> ``run_slice``,
    then the session is dropped."""
    session = _build(workload, faulted)
    session.run_slice(SLICE)
    envelope = session.suspend()
    first = weakref.ref(session.cpu)
    del session
    session = Session.resume(envelope)
    session.run_slice(SLICE)
    assert session.supervise is faulted
    if faulted:
        assert session.supervisor.sanitizer.sweeps > 0
    second = weakref.ref(session.cpu)
    del session
    return first, second


@pytest.mark.parametrize("workload", ROTATION)
def test_dropped_clean_session_frees_its_machines(workload):
    first, second = _rotate(workload, faulted=False)
    assert first() is None, "the suspended machine outlived its session"
    assert second() is None, "the resumed machine outlived its session"


def test_dropped_supervised_faulted_session_frees_its_machines():
    first, second = _rotate("mesa_loop_sum", faulted=True)
    assert first() is None, "the suspended machine outlived its session"
    assert second() is None, "the resumed machine outlived its session"


@pytest.mark.parametrize("op", ["suspend", "close"])
@pytest.mark.parametrize("faulted", [False, True])
def test_session_host_frees_what_it_lets_go(op, faulted):
    """Neither the host nor the boot cache's shared workload keeps a
    suspended or closed session's machine alive."""
    host = SessionHost()
    fault = dict(FAULT_TEMPLATE, seed=101) if faulted else None
    assert host.handle({"op": "open", "name": "a", "workload": "mesa_loop_sum",
                        "args": SIZES["mesa_loop_sum"], "fault": fault})["ok"]
    assert host.handle({"op": "run", "name": "a", "cycles": SLICE})["ok"]
    machine = weakref.ref(host.sessions["a"].cpu)
    assert host.handle({"op": op, "name": "a"})["ok"]
    assert host.sessions == {}
    assert machine() is None, f"a {op}ed session's machine is still alive"


def test_machine_with_a_fault_task_is_freed():
    machine = Processor(dataclasses.replace(PRODUCTION, fault_task=9))
    ref = weakref.ref(machine)
    del machine
    assert ref() is None


def test_instrumented_machine_is_freed():
    """The bus does not refer back to the machine strongly, and a
    detached tracer leaves no edge behind."""
    machine = mesa_loop_sum(20).ctx.cpu
    tracer = PipelineTracer(machine).install()
    machine.run(200)
    assert tracer.records
    tracer.uninstall()
    ref = weakref.ref(machine)
    del machine, tracer
    assert ref() is None, "the machine's observers kept it alive"


def test_fleet_prewarm_forks_no_machine_and_pins_none(monkeypatch):
    """Prewarming fills the boot cache with pristine templates only: no
    template is forked, and no cached context holds a machine that the
    fleet's workers would inherit."""
    forks = 0
    fork = Processor.fork

    def counting_fork(self, state=None):
        nonlocal forks
        forks += 1
        return fork(self, state)

    clear_boot_cache()
    monkeypatch.setattr(Processor, "fork", counting_fork)
    fleet = Fleet(workers=1, prewarm=[(w, SIZES[w], None) for w in ROTATION])
    try:
        assert forks == 0
        assert len(_BOOT_CACHE) == len(ROTATION)
        assert all(w.ctx.cpu is None for w, _ in _BOOT_CACHE.values())
    finally:
        fleet.close()
        clear_boot_cache()


def _freeze_count(message):
    return gc.get_freeze_count()


@pytest.mark.skipif(not can_fork(), reason="needs the fork start method")
def test_worker_freezes_what_it_inherits():
    worker = Worker(_freeze_count)
    try:
        inherited = worker.call({"op": "count"})
    finally:
        worker.close()
    assert inherited > gc.get_freeze_count(), (
        "the worker's collector still tracks the heap it inherited"
    )
