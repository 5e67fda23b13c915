"""One workload repetition in a fresh interpreter; started by ``run.py``.

Usage (internal)::

    python3 paperbench/child.py --workload NAME --seed N --t0 T \\
        --deadline D --trace 0|1 --tmp DIR --out FILE [--setup-only | --prefill]

``--t0`` is the parent's ``time.monotonic()`` just before it started
this interpreter, or the prefill interpreter before it, so ``setup_s``
covers interpreter start, the prefill, imports and the workload's
untimed preparation, up to the first timed call.  Every interpreter,
pool workers included, samples the host's speed from its first lines
(``speed.py``); ``setup_s`` and each record's ``wall_ref_s`` are read
from those samples in reference seconds.  With ``--setup-only`` the
child stops there; with ``--prefill`` it only runs the workload's
prefill into ``--tmp`` and writes no result.  Otherwise the result is
written to ``--out`` as JSON.
Everything runs under the ``__main__`` guard: the sweep's spawn-started
pool workers import this file again and must not re-run the workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional

import speed

# The sweep's spawn-started pool workers import this file as
# ``__mp_main__``: they sample too.
if __name__ in ("__main__", "__mp_main__"):
    speed.start()

#: Environment variables the pipeline reads; ``run.py`` removes them.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_RUN_STAGE_DELAY_S", "REPRO_PROCFAULT")


def _check_scrubbed_names() -> None:
    """The scrubbed names must be the ones the package actually reads."""
    from repro.cache import CACHE_DIR_ENV
    from repro.chaos.procfault import PROCFAULT_ENV
    from repro.supervise.runner import STAGE_DELAY_ENV

    if {CACHE_DIR_ENV, PROCFAULT_ENV, STAGE_DELAY_ENV} != set(SCRUBBED_ENV):
        raise SystemExit(
            f"SCRUBBED_ENV {SCRUBBED_ENV} is stale: the package reads "
            f"{CACHE_DIR_ENV}, {PROCFAULT_ENV}, {STAGE_DELAY_ENV}"
        )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--prefill", action="store_true")
    args = parser.parse_args(argv)
    leaked = [name for name in SCRUBBED_ENV if name in os.environ]
    if leaked:
        raise SystemExit(f"environment not scrubbed: {leaked}")

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if args.prefill:
        workload.prefill(args.tmp)
        speed.stop()
        _check_scrubbed_names()
        return 0
    t_import = time.perf_counter()
    for module in workload.modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - t_import
    workload.setup(args.seed, args.tmp)
    setup_end = time.monotonic()
    records: list[dict[str, Any]] = []
    if not args.setup_only:
        tracer: Any = tracing.Tracer() if args.trace else tracing.NullTracer()
        if args.trace:
            tracer.install()
        try:
            records = workload.run(tracer, args.deadline)
        finally:
            tracer.uninstall()
    speed.stop()
    traces = speed.read_samples(args.tmp)
    result: dict[str, Any] = {
        "setup_s": speed.ref_seconds(traces, args.t0, setup_end),
        "setup_wall_s": setup_end - args.t0,
    }
    if not args.setup_only:
        for record in records:
            refs = [speed.ref_seconds(traces, t0, t1)
                    for t0, t1 in record["intervals"]]
            record["wall_ref_s"] = statistics.fmean(refs) if refs else None
            if record["layers"]:
                record["layers"]["startup.import_s"] = import_s
                record["layers"]["trace.host_speed"] = (
                    record["wall_ref_s"] / record["wall_s"])
        result.update(records=records, input_seed=workload.input_seed,
                      calibration_s=speed.median_kernel_s(traces))
    _check_scrubbed_names()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
