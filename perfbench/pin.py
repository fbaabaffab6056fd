"""Write or check ``reference.json``: the serial ground truth of every
session spec the load generator can emit.

    python3 perfbench/pin.py            # rewrite reference.json
    python3 perfbench/pin.py --check    # recompute, compare, exit 1 on a diff

Each spec runs alone in this process -- ``Session.build``, then
``run_slice`` at its profile's slice size until HALT, then ``result`` --
and must verify and, when faulted, recover.  Its simulated cycles, its
cycle count at admission (``base``) and its ``arch_hash`` are pinned;
every benchmark run checks each session it completes against them.
Corebench stages pin the cycles their run returns and the hash of the
machine's end state.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from load import PROFILES, SIZE_ARG, all_specs, fault_for, spec_key  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def reference_of(profile, workload, size, fault_seed):
    from repro.config import PRODUCTION
    from repro.perf.corebench import SCENARIOS
    from repro.service.session import Session, arch_hash, clear_boot_cache

    from drivers import stage_machine

    if size is None:
        run = SCENARIOS[workload](PRODUCTION)()
        cycles = run()
        return {"cycles": cycles, "base": 0,
                "arch_hash": arch_hash(stage_machine(run))}
    session = Session.build(
        workload, name="reference", args={SIZE_ARG[workload]: size},
        fault=fault_for(fault_seed),
        checkpoint_interval=profile.checkpoint_interval,
        max_retries=profile.max_retries,
    )
    while True:
        step = session.run_slice(profile.slice_cycles)
        if step.halted or step.cycles == 0:
            break
    result = session.result()
    clear_boot_cache()
    if (result["status"] != "halted" or not result["verified"]
            or result["recovered"] is False):
        raise SystemExit(f"{workload} size {size} fault {fault_seed}: "
                         f"no clean serial reference ({result['status']}, "
                         f"failure {result['failure']})")
    return {"cycles": result["cycles"],
            "base": result["cycles"] - result["meter"]["cycles"],
            "arch_hash": result["arch_hash"]}


def compute():
    specs = {}
    for profile in PROFILES.values():
        for tiny in (False, True):
            for workload, size, fault_seed in all_specs(profile, tiny):
                key = spec_key(workload, size, fault_seed,
                               profile.slice_cycles)
                if key not in specs:
                    specs[key] = reference_of(profile, workload, size,
                                              fault_seed)
                    print(key, specs[key], flush=True)
    return {"format": 1, "specs": specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="compare with reference.json instead of writing")
    args = parser.parse_args(argv)
    table = compute()
    if args.check:
        with open(REFERENCE) as f:
            pinned = json.load(f)
        if pinned != table:
            print("reference.json differs from a fresh serial run")
            return 1
        print("reference.json matches a fresh serial run")
        return 0
    with open(REFERENCE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(table['specs'])} specs to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
