"""``python -m repro``: the observability command line.

With no arguments, prints every paper-versus-measured table (the
historical behaviour).  With a workload selected, runs it with the
requested observers attached through the instrumentation bus::

    python -m repro --workload mesa_loop_sum --profile
    python -m repro --workload lisp_list_sum --trace --metrics-json -
    python -m repro --workload mesa_fib --profile --metrics-json run.json

``--trace`` renders the per-task pipeline timeline, ``--profile`` the
section-7-style per-opcode-class cost table, and ``--metrics-json``
writes the structured counters/holds/tasks snapshot (``-`` for stdout).
Tracer and profiler ride the same bus, so any combination composes; the
observers are detached afterwards, leaving the machine's hooks pristine.

The self-healing mode (DESIGN.md section 5.5)::

    python -m repro --workload mesa_loop_sum --supervise --fault-plan plan.json

``--fault-plan`` enables deterministic fault injection from a JSON file
of :class:`~repro.fault.plan.FaultConfig` fields, and ``--supervise``
runs the workload under the recovery supervisor -- periodic
checkpoints, machine-check sweeps, rollback-and-replay on detected
corruption -- printing the recovery report afterwards.  Failures are
diagnosed (machine context plus the fault trace), not dumped as
tracebacks.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .errors import DoradoError


def _print_failure(exc: DoradoError, cpu) -> None:
    """Diagnose a failed run: error, machine context, fault trace.

    The recovery exceptions (and ``HoldTimeout``) carry the machine
    context they were raised with; anything they lack is read off the
    live machine, and the injector's trace -- the ground truth of what
    was injected when -- is printed through ``format_fault_trace``
    instead of letting the exception escape as a bare traceback.
    """
    from .perf.tracing import format_fault_trace

    print(f"FAILED: {type(exc).__name__}: {exc}")
    task = getattr(exc, "task", None)
    pc = getattr(exc, "pc", None)
    cycle = getattr(exc, "cycle", None)
    context = [
        f"task {task if task is not None else cpu.pipe.this_task}",
        f"upc {(pc if pc is not None else cpu.this_pc):#o}",
        f"cycle {cycle if cycle is not None else cpu.now}",
    ]
    hold_cause = getattr(exc, "hold_cause", None)
    if hold_cause is not None:
        context.append(f"hold cause {hold_cause}")
    print("  at " + ", ".join(context))
    if cpu.fault_injector is not None:
        print("  fault trace:")
        for line in format_fault_trace(cpu.fault_injector.trace).splitlines():
            print(f"    {line}")


def main(argv: Optional[List[str]] = None) -> int:
    from .perf.instrument import metrics_snapshot
    from .perf.measure import OpcodeProfiler
    from .perf.report import format_opcode_costs
    from .perf.tracing import PipelineTracer
    from .perf.workloads import ALL_WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables, or instrument one workload.",
    )
    parser.add_argument(
        "--workload", choices=sorted(ALL_WORKLOADS), default=None,
        help="run one emulator workload instead of the full report",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record every cycle and print the per-task timeline",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-opcode-class cost table (section 7 style)",
    )
    parser.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write the structured metrics snapshot as JSON ('-' = stdout)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=5_000_000,
        help="simulated-cycle budget for the workload",
    )
    parser.add_argument(
        "--save-state", default=None, metavar="PATH",
        help="write the machine's snapshot (canonical JSON) after the run",
    )
    parser.add_argument(
        "--load-state", default=None, metavar="PATH",
        help="restore a snapshot into the workload's machine before running",
    )
    parser.add_argument(
        "--supervise", action="store_true",
        help="run under the recovery supervisor (checkpoints, machine "
             "checks, rollback-and-replay)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=int, default=2000, metavar="CYCLES",
        help="cycles between supervisor checkpoints",
    )
    parser.add_argument(
        "--max-retries", type=int, default=3, metavar="N",
        help="rollback-and-replay budget per checkpoint",
    )
    parser.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="enable fault injection from a JSON file of FaultConfig fields",
    )
    parser.add_argument(
        "--no-trace", action="store_true",
        help="run on the plan tier instead of the compiled-trace tier: "
             "the PLAN_ONLY configuration, for tier isolation and debugging",
    )
    args = parser.parse_args(argv)

    wants_instruments = args.trace or args.profile or args.metrics_json is not None
    wants_state = args.save_state is not None or args.load_state is not None
    wants_supervision = args.supervise or args.fault_plan is not None
    if args.workload is None:
        if wants_instruments or wants_state or wants_supervision or args.no_trace:
            parser.error(
                "--trace/--profile/--metrics-json/--save-state/--load-state/"
                "--supervise/--fault-plan/--no-trace need --workload"
            )
        from .perf.report import main as report_main
        report_main()
        return 0

    from .config import PLAN_ONLY, PRODUCTION

    config = PLAN_ONLY if args.no_trace else PRODUCTION
    if args.fault_plan is not None:
        import dataclasses

        from .fault.plan import FaultConfig

        try:
            with open(args.fault_plan) as f:
                fields = json.load(f)
            fault_config = FaultConfig(**fields)
        except (OSError, TypeError, ValueError) as exc:
            parser.error(f"cannot read fault plan {args.fault_plan}: {exc}")
        config = dataclasses.replace(config, fault_injection=fault_config)

    from .service.session import Session

    session = Session.build(
        args.workload,
        config=config,
        supervise=args.supervise,
        checkpoint_interval=args.checkpoint_interval,
        max_retries=args.max_retries,
    )
    cpu = session.cpu
    if args.load_state is not None:
        from .state import MachineState

        try:
            session.load(MachineState.load(args.load_state))
        except (OSError, DoradoError, KeyError, TypeError, ValueError) as exc:
            print(f"FAILED: cannot load state {args.load_state}: "
                  f"{type(exc).__name__}: {exc}")
            return 1
        print(f"restored {args.load_state} (cycle {cpu.now})")
    tracer = profiler = None
    if args.trace:
        tracer = PipelineTracer(cpu).install()
    if args.profile:
        profiler = OpcodeProfiler(cpu)

    # Observers come off the bus whatever the run did -- success,
    # diagnosed failure, or a verify oracle blowing up.  Timelines and
    # cost tables survive uninstall (the recorded data is retained), so
    # detaching first is safe.
    try:
        try:
            cycles = session.run(max_cycles=args.max_cycles)
        except DoradoError as exc:
            _print_failure(exc, cpu)
            return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        if profiler is not None:
            profiler.uninstall()
    print(f"{session.workload.name}: {cycles} cycles, verified")
    if session.supervisor is not None:
        from .perf.report import format_recovery_report

        print()
        print(format_recovery_report(cpu, session.supervisor.log))

    if args.save_state is not None:
        cpu.snapshot().save(args.save_state)
        print(f"saved {args.save_state} (cycle {cpu.now})")

    if tracer is not None:
        print()
        print(tracer.timeline())
    if profiler is not None:
        print()
        print(format_opcode_costs(
            profiler.table(),
            title=f"per-opcode-class costs: {session.workload.name}",
        ))
    if args.metrics_json is not None:
        snapshot = metrics_snapshot(cpu)
        snapshot["workload"] = {
            "name": session.workload.name, "cycles": cycles,
        }
        text = json.dumps(snapshot, indent=2)
        if args.metrics_json == "-":
            print()
            print(text)
        else:
            with open(args.metrics_json, "w") as f:
                f.write(text + "\n")
            print(f"wrote {args.metrics_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
