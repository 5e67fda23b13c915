"""The repository benchmark: run one workload, check it, print its metrics.

Usage::

    python3 paperbench/run.py --workload paper-cold
    python3 paperbench/run.py --workload sweep-sensitivity --seed 7 --seconds 40
    python3 paperbench/run.py --workload paper-reanalyze --trace 1

Workloads, metrics and units are defined in ``BENCHMARK.json`` at the
repository root and documented in ``paperbench/README.md``.  Every
repetition runs in a fresh interpreter (``child.py``), after a prefill
interpreter of its own where the workload has one, with the pipeline's
environment variables removed and its own temporary artifact store under
``.paperbench-tmp/``, removed afterwards.  Repetitions
start while the next one is expected to end within ``--seconds``, and
cycle over six input seeds derived from ``--seed``.

Times are read in reference seconds: wall time scaled by the host speed
that each interpreter sampled while it ran (``speed.py``), so that the
shared host's slow phases cancel.  Raw wall times are printed too.

With ``--trace 0`` the end-to-end metrics are reported (medians); with
``--trace 1`` the per-layer metrics of a traced run (means over its
repetitions).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every operation was correct.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

import hostinfo  # noqa: E402
import speed  # noqa: E402
from child import SCRUBBED_ENV  # noqa: E402
from workloads import GOLDEN_SEED, WORKLOADS  # noqa: E402

#: Every run ends within this many seconds, children included.
HARD_LIMIT_S = 170.0
#: Extra set-up-only interpreters for workloads whose set-up is cheap.
SETUP_ONLY_CHILDREN = 5
#: Repetitions cycle over this many input seeds derived from ``--seed``,
#: so that a run's median spans several inputs of a seed-dependent
#: workload rather than one draw, while repetitions of one input still
#: check each other's digests.
INPUTS_PER_RUN = 6
TMP_DIRNAME = ".paperbench-tmp"


def load_catalog() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def input_seed(seed: int, repetition: int) -> int:
    """The input seed of a run's ``repetition``-th repetition."""
    return (seed * INPUTS_PER_RUN + repetition % INPUTS_PER_RUN) % 2**31


def child_env(tmp: Path) -> dict[str, str]:
    """This environment minus the pipeline's knobs, with ``src`` importable
    and temporary files and speed samples kept in the child's own
    directory."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env["TMPDIR"] = str(tmp)
    env[speed.DIR_ENV] = str(tmp)
    return env


def _stop_group(pgid: int) -> None:
    """SIGKILL whatever is left of a child's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _interpreter(argv: list[str], tmp: Path, timeout_s: float) -> str:
    """Run ``child.py argv`` to its end; the error, or ``""``.

    Whatever ends the wait, the child's process group (the sweep's pool
    workers included) is killed and the child reaped before returning.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv], cwd=ROOT,
        env=child_env(tmp), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _stdout, stderr = proc.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        return f"child exceeded the {HARD_LIMIT_S:.0f} s limit"
    finally:
        _stop_group(proc.pid)
        proc.communicate()
    if proc.returncode != 0:
        return f"child exited {proc.returncode}:\n{stderr[-4000:]}"
    return ""


def run_child(
    argv: list[str], tmp_root: Path, limit_s: float, prefill: bool = False
) -> tuple[Optional[dict[str, Any]], str]:
    """(result, error) of one fresh-interpreter repetition, preceded by a
    prefill interpreter when ``prefill`` is set."""
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    out = tmp / "result.json"
    end = time.monotonic() + limit_s
    common = [*argv, "--tmp", str(tmp), "--out", str(out),
              "--t0", repr(time.monotonic())]
    try:
        for extra in (["--prefill"], []) if prefill else ([],):
            error = _interpreter([*common, *extra], tmp, end - time.monotonic())
            if error:
                return None, error
        if not out.is_file():
            return None, "child wrote no result"
        return json.loads(out.read_text()), ""
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _spread(values: list[float]) -> str:
    return f"n={len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    launched = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"paperbench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    catalog = load_catalog()
    seconds = float(args.seconds or catalog["run_seconds"])
    wanted = catalog["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]

    # Byte-compile up front so no repetition pays for it.
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
    tmp_root = ROOT / TMP_DIRNAME
    tmp_root.mkdir(exist_ok=True)
    start = time.monotonic()
    common = ["--workload", args.workload, "--trace", str(args.trace),
              "--deadline", repr(time.time() + seconds)]

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - launched)

    errors: list[str] = []
    setup_children: list[dict[str, Any]] = []
    children: list[dict[str, Any]] = []
    try:
        if not workload.prefills and not args.trace:
            for i in range(SETUP_ONLY_CHILDREN):
                seed = ["--seed", str(input_seed(args.seed, i))]
                result, error = run_child([*common, *seed, "--setup-only"],
                                          tmp_root, remaining())
                if result is None:
                    errors.append(error)
                    break
                setup_children.append(result)
        while not errors:
            t0 = time.monotonic()
            seed = ["--seed", str(input_seed(args.seed, len(children)))]
            result, error = run_child([*common, *seed], tmp_root, remaining(),
                                      prefill=workload.prefills)
            if result is None:
                errors.append(error)
                break
            children.append(result)
            if time.monotonic() - start + (time.monotonic() - t0) > seconds:
                break
    finally:
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    records = [r for c in children for r in c["records"]]
    walls = [r["wall_s"] for r in records if r["wall_s"] is not None]
    attempted = sum(r["attempted"] for r in records) + len(errors)
    failed = sum(r["failed"] for r in records) + len(errors)
    problems = [p for r in records for p in r["problems"]] + errors
    # Every repetition of one input must reproduce the first one's digest.
    first: dict[int, str] = {}
    for child in children:
        for record in child["records"]:
            identity, key = record["identity"], child["input_seed"]
            if not identity:
                continue
            if key not in first:
                first[key] = identity
                continue
            attempted += 1
            if identity != first[key]:
                failed += 1
                problems.append(f"repetition digest {identity} != {first[key]}")
    for problem in problems:
        print(f"paperbench: FAILED {problem}", file=sys.stderr)
    if not walls:
        print("paperbench: no repetition completed", file=sys.stderr)
        return 1

    setup_children += children
    samples: dict[str, list[float]] = {}
    # Raw wall times, printed beside the metrics but not among them.
    raw = {"wall_s": walls,
           "setup_wall_s": [c["setup_wall_s"] for c in setup_children]}
    if args.trace:
        for record in records:
            for name, value in record["layers"].items():
                samples.setdefault(name, []).append(float(value))
    else:
        samples = {
            "wall_ref_s": [r["wall_ref_s"] for r in records
                           if r["wall_ref_s"] is not None],
            "setup_s": [c["setup_s"] for c in setup_children],
            "peak_rss_mib": [r["peak_rss_mib"] for r in records
                             if r["peak_rss_mib"] is not None],
        }
    empty = sorted(name for name, v in samples.items() if not v)
    if empty:
        print(f"paperbench: no samples of {empty}", file=sys.stderr)
        return 1
    missing = {m["name"] for m in wanted} ^ set(samples)
    if missing:
        print(f"paperbench: metrics do not match BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 1
    reduce = statistics.fmean if args.trace else _median
    values = {name: reduce(v) for name, v in samples.items()}

    host = {**hostinfo.fingerprint(),
            "calibration_s": _median([c["calibration_s"] for c in children])}
    print(f"# paperbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={seconds:g}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    kind = "mean" if args.trace else "median"
    for metric in wanted:
        name = metric["name"]
        print(f"{name:32s} {values[name]:14.6f} {metric['unit']:6s} "
              f"{kind} ({_spread(samples[name])})")
    if not args.trace:
        for name, values_s in raw.items():
            print(f"{name:32s} {_median(values_s):14.6f} {'s':6s} "
                  f"median, wall clock, not a metric ({_spread(values_s)})")
    print(f"{'error_rate':32s} {failed / attempted:14.6f} {'ratio':6s} "
          f"({failed} failed of {attempted} attempted)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
