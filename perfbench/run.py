"""Run one benchmark workload of qident and print its metrics.

    python3 perfbench/run.py --workload series-max --seed 1 --seconds 30 --trace 0

Run from the root of a source tree: the package is imported from ``src/``.
One process runs the workload serially.  It repeats passes over the
workload's operations while another pass fits in ``--seconds`` (making at
least MIN_PASSES), checks every output outside the timed region, and prints
one JSON object as the last line of standard output:

    {"correct": true, "attempted": 38, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are setup_s, wall_s and peak_rss_mb, each a
median over the run's samples except the high-water peak_rss_mb.  With
``--trace 1`` the first half of the time runs untraced passes and the rest
traced ones; the metrics are the per-layer numbers of the traced passes and
trace.overhead_s, and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 2
# Set-up samples taken before each pass and after the last one, so that the
# median of setup_s spans the whole run as wall_s does.
SETUP_REPS = 2

# Run in a fresh interpreter per sample, so that each import is a cold one
# that also loads the standard-library modules the package needs.
SETUP_CODE = """
import sys, time
src = sys.argv[1]
sys.path.insert(0, src)
start = time.perf_counter()
import qident, qident.cli
qident.identities.registry_ids(include_negative=True)
elapsed = time.perf_counter() - start
if not qident.__file__.startswith(src):
    sys.exit(3)
print(elapsed)
"""


def measure_setup() -> list[float]:
    """Seconds to import qident and build its registry, one per fresh process."""
    samples = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(done.stdout))
    return samples


def import_package():
    sys.path.insert(0, str(SRC))
    import qident
    import qident.cli

    if not Path(qident.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"qident imported from {qident.__file__}, not from {SRC}")
    return qident


def run_pass(ops) -> tuple[float, dict, list[str], dict]:
    """Time one pass over the operations.

    Returns the pass's wall seconds, the outputs, the errors of the operations
    that failed, and the seconds of each operation.
    """
    gc.collect()
    outputs, errors, op_seconds = {}, [], {}
    start = perf_counter()
    for name, call in ops:
        t = perf_counter()
        try:
            outputs[name] = call()
        except (Exception, SystemExit) as exc:  # argparse exits on a bad command line
            errors.append(f"{name}: {exc!r}")
        op_seconds[name] = perf_counter() - t
    return perf_counter() - start, outputs, errors, op_seconds


def room_for_another(begin: float, until: float, walls: list[float]) -> bool:
    """Whether one more pass, as long as the median one so far, ends by ``until``."""
    return perf_counter() - begin + statistics.median(walls) <= until


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="fixes the order of the operations in a pass")
    parser.add_argument("--seconds", type=int, required=True, help="how long to repeat passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not (SRC / "qident" / "__init__.py").is_file():
        print(f"no qident sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setup = [] if args.trace else measure_setup()
        pkg = import_package()
    except (subprocess.SubprocessError, ValueError, ImportError) as exc:
        print(f"cannot set up qident: {exc!r}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](pkg)
    ops = list(workload.ops)
    random.Random(args.seed).shuffle(ops)

    attempted = failed = 0
    problems: list[str] = []
    walls: list[float] = []
    op_seconds: list[dict] = []
    traced: list[tuple[float, dict, dict]] = []  # wall, layer metrics, span record

    def account(outputs: dict, errors: list[str]) -> None:
        nonlocal attempted, failed
        attempted += len(ops)
        failed += len(errors)
        problems.extend(workload.check_pass(outputs))
        for e in errors:
            print(f"failed: {e}", file=sys.stderr)

    begin = perf_counter()
    if args.trace:
        untraced_until, min_passes = args.seconds / 2, 1
    else:
        untraced_until, min_passes = args.seconds, MIN_PASSES
    while len(walls) < min_passes or room_for_another(begin, untraced_until, walls):
        if walls and not args.trace:
            setup += measure_setup()
        wall, outputs, errors, seconds = run_pass(ops)
        walls.append(wall)
        op_seconds.append(seconds)
        account(outputs, errors)
    if not args.trace:
        setup += measure_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        while not traced or room_for_another(begin, args.seconds, [w for w, _, _ in traced]):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                wall, outputs, errors, _ = run_pass(ops)
            finally:
                tracer.uninstall()
            account(outputs, errors)
            metrics = tracing.layer_metrics(tracer.spans, tracer.labels, tracer.counts)
            record = {"wall_s": wall, "spans": tracer.spans, "verify_ids": tracer.labels}
            traced.append((wall, metrics, record))

    try:
        problems.extend(workload.check_once())
    except (Exception, SystemExit) as exc:
        problems.append(f"reference check raised {exc!r}")

    if args.trace:
        units = tracing.metric_units()
        values = {
            name: statistics.median(m[name] for _, m, _ in traced)
            for name in units if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = statistics.median(w for w, _, _ in traced) - statistics.median(walls)
        metrics = {name: {"value": values[name], "unit": units[name][0]} for name in units}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "result": result,
        "python": platform.python_version(),
        "order": [name for name, _ in ops],
        "setup_samples_s": setup,
        "untraced_walls_s": walls,
        "untraced_op_seconds": op_seconds,
        "traced_walls_s": [w for w, _, _ in traced],
        "problems": problems,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if args.trace:
        spans = {"workload": args.workload, "seed": args.seed, "passes": [r for _, _, r in traced]}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")

    for p in problems[:20]:
        print(f"incorrect: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
