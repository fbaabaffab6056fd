"""Command-line driver for the service: ``python -m repro.service``.

``serve`` starts the asyncio front end over a worker fleet; ``loadtest``
replays the scripted session stream and writes the canonical-JSON
results artifact CI compares byte-for-byte across worker counts;
``chaos`` runs the same loadtest under a seeded service-fault storm
(the artifact must still ``cmp`` clean against the serial ground
truth).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from .chaos import CHAOS_TEMPLATE
from .fleet import Fleet
from .frontend import Frontend
from .loadtest import ROTATION, loadtest_json, run_loadtest, summarize


def _cmd_serve(args: argparse.Namespace) -> int:
    fleet = Fleet(
        workers=args.workers,
        capacity=args.capacity,
        prewarm=[(workload, {}, None) for workload in ROTATION],
        checkpoint_interval=args.checkpoint_interval,
        max_retries=args.max_retries,
    )
    frontend = Frontend(fleet)

    def ready(addr) -> None:
        print(f"repro.service listening on {addr[0]}:{addr[1]}", flush=True)

    try:
        asyncio.run(frontend.serve(args.host, args.port, ready=ready))
    except KeyboardInterrupt:
        pass
    finally:
        fleet.close()
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    artifact, stats = run_loadtest(
        sessions=args.sessions,
        workers=args.workers,
        capacity=args.capacity,
        slice_cycles=args.slice_cycles,
        max_cycles=args.max_cycles,
        seed=args.seed,
        fault_every=args.fault_every,
        checkpoint_interval=args.checkpoint_interval,
        max_retries=args.max_retries,
        serial=args.serial,
    )
    seconds = time.perf_counter() - start
    text = loadtest_json(artifact)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"loadtest artifact -> {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    counts = summarize(artifact)
    report = dict(counts, seconds=round(seconds, 3), **stats)
    print(f"loadtest: {json.dumps(report, sort_keys=True)}", file=sys.stderr)
    # Unrecovered *faulted* sessions are measurements; a clean session
    # failing (or not verifying) is a real defect.
    clean_ok = all(
        r["verified"] for r in artifact["results"].values() if not r["faulted"]
    )
    return 0 if clean_ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    chaos = {
        "seed": args.chaos_seed,
        "worker_crashes": args.worker_crashes,
        "message_drops": args.message_drops,
        "reply_garbles": args.reply_garbles,
        "worker_stalls": args.worker_stalls,
        "spool_corruptions": args.spool_corruptions,
        "spool_truncations": args.spool_truncations,
        "first_op": args.first_op,
        "last_op": args.last_op,
        "first_spool": args.first_spool,
        "last_spool": args.last_spool,
    }
    start = time.perf_counter()
    artifact, stats = run_loadtest(
        sessions=args.sessions,
        workers=args.workers,
        capacity=args.capacity,
        slice_cycles=args.slice_cycles,
        max_cycles=args.max_cycles,
        seed=args.seed,
        fault_every=args.fault_every,
        checkpoint_interval=args.checkpoint_interval,
        max_retries=args.max_retries,
        chaos=chaos,
        checkpoint_every=args.checkpoint_every,
        max_respawns=args.max_respawns,
    )
    seconds = time.perf_counter() - start
    text = loadtest_json(artifact)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"chaos artifact -> {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    counts = summarize(artifact)
    report = dict(counts, seconds=round(seconds, 3), **stats)
    print(f"chaos: {json.dumps(report, sort_keys=True)}", file=sys.stderr)
    ok = all(
        r["verified"] for r in artifact["results"].values() if not r["faulted"]
    )
    if args.require_counters:
        for counter in args.require_counters.split(","):
            counter = counter.strip()
            if not stats.get(counter):
                print(f"chaos: required counter {counter!r} is zero",
                      file=sys.stderr)
                ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="multi-tenant Dorado simulation service",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser("serve", help="asyncio front end over a fleet")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=0,
                         help="0 picks an ephemeral port (printed on start)")
    serve_p.add_argument("--workers", type=int, default=2)
    serve_p.add_argument("--capacity", type=int, default=8,
                         help="global live-session budget (LRU beyond it)")
    serve_p.add_argument("--checkpoint-interval", type=int, default=2000)
    serve_p.add_argument("--max-retries", type=int, default=3)
    serve_p.set_defaults(func=_cmd_serve)

    load_p = sub.add_parser(
        "loadtest", help="scripted determinism/throughput harness"
    )
    load_p.add_argument("--sessions", type=int, default=60)
    load_p.add_argument("--workers", type=int, default=1)
    load_p.add_argument("--capacity", type=int, default=12,
                        help="kept far below --sessions to force "
                             "evictions and migrations")
    load_p.add_argument("--slice-cycles", type=int, default=1200)
    load_p.add_argument("--max-cycles", type=int, default=240_000)
    load_p.add_argument("--seed", type=int, default=17)
    load_p.add_argument("--fault-every", type=int, default=3,
                        help="every Nth session gets a seeded fault plan "
                             "(0 disables)")
    load_p.add_argument("--checkpoint-interval", type=int, default=600)
    load_p.add_argument("--max-retries", type=int, default=4)
    load_p.add_argument("--serial", action="store_true",
                        help="plain in-process sessions, no fleet: the "
                             "byte-identity ground truth")
    load_p.add_argument("--output", default=None,
                        help="write the canonical artifact here instead "
                             "of stdout")
    load_p.set_defaults(func=_cmd_loadtest)

    chaos_p = sub.add_parser(
        "chaos",
        help="loadtest under a seeded service-fault storm; the artifact "
             "must still match the clean serial run byte-for-byte",
    )
    chaos_p.add_argument("--sessions", type=int, default=60)
    chaos_p.add_argument("--workers", type=int, default=1)
    chaos_p.add_argument("--capacity", type=int, default=12)
    chaos_p.add_argument("--slice-cycles", type=int, default=1200)
    chaos_p.add_argument("--max-cycles", type=int, default=240_000)
    chaos_p.add_argument("--seed", type=int, default=17,
                         help="loadtest script seed (not the storm seed)")
    chaos_p.add_argument("--fault-every", type=int, default=3)
    chaos_p.add_argument("--checkpoint-interval", type=int, default=600)
    chaos_p.add_argument("--max-retries", type=int, default=4)
    chaos_p.add_argument("--chaos-seed", type=int, default=1)
    chaos_p.add_argument("--worker-crashes", type=int,
                         default=CHAOS_TEMPLATE["worker_crashes"])
    chaos_p.add_argument("--message-drops", type=int,
                         default=CHAOS_TEMPLATE["message_drops"])
    chaos_p.add_argument("--reply-garbles", type=int,
                         default=CHAOS_TEMPLATE["reply_garbles"])
    chaos_p.add_argument("--worker-stalls", type=int,
                         default=CHAOS_TEMPLATE["worker_stalls"])
    chaos_p.add_argument("--spool-corruptions", type=int,
                         default=CHAOS_TEMPLATE["spool_corruptions"])
    chaos_p.add_argument("--spool-truncations", type=int,
                         default=CHAOS_TEMPLATE["spool_truncations"])
    chaos_p.add_argument("--first-op", type=int,
                         default=CHAOS_TEMPLATE["first_op"])
    chaos_p.add_argument("--last-op", type=int,
                         default=CHAOS_TEMPLATE["last_op"])
    chaos_p.add_argument("--first-spool", type=int,
                         default=CHAOS_TEMPLATE["first_spool"])
    chaos_p.add_argument("--last-spool", type=int,
                         default=CHAOS_TEMPLATE["last_spool"])
    chaos_p.add_argument("--checkpoint-every", type=int, default=8,
                         help="background-checkpoint a hot session every "
                              "N acknowledged slices (0 disables)")
    chaos_p.add_argument("--max-respawns", type=int, default=2,
                         help="per-slot crash budget before the slot "
                              "degrades to an inline host")
    chaos_p.add_argument("--require-counters", default=None,
                         help="comma-separated recovery counters that must "
                              "be nonzero (exit 1 otherwise)")
    chaos_p.add_argument("--output", default=None,
                         help="write the canonical artifact here instead "
                              "of stdout")
    chaos_p.set_defaults(func=_cmd_chaos)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
