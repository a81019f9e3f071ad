"""pptgeo benchmark: one command for the `claim`, `landscape` and `witness` workloads.

Run from the root of a checkout:

    python3 pptbench/run.py --workload claim --seed 0 --seconds 30 --trace 0

Each run is one process with one caller in a closed loop: the next op
starts when the previous one has returned and been checked.  The run sets
up several times (fresh import of pptgeo from ./src, input generation, one
untimed warm-up op) and reports the median as `setup_s`; then it runs
ops until `--seconds` have passed and the current cycle of the workload is
whole.  Every op's output is checked (see workloads.py) and digested with
SHA-256.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates an untraced
and a traced pass over the first cycle of ops until `--seconds` have
passed, and prints the per-layer metrics: counts and ratios from the first
traced cycle (they repeat exactly for a seed), times as the median over the
traced cycles, and `trace.overhead_ratio` as the median of traced over
untraced ops per second.  The spans go to pptbench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Without ./src/pptgeo the
benchmark exits with code 2 and prints no result.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
BASELINE = BENCH_DIR / "baseline.json"
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("ratio", "per_attempt")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def load_pptgeo() -> SimpleNamespace:
    """Import pptgeo afresh from ./src and return its modules."""
    for name in [n for n in sys.modules if n == "pptgeo" or n.startswith("pptgeo.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{
        name: importlib.import_module(f"pptgeo.{name}")
        for name in ("cli", "harness", "distill", "states", "bipartite")
    })
    origin = Path(sys.modules["pptgeo"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"pptgeo was imported from {origin}, not from {SRC}")
    return mods


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')}-{blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Tally:
    """Attempted and failed ops, the latencies of ops that passed, and digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.digests: dict[int, str] = {}
        self.first_error: str | None = None

    def fail(self, i: int, message: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = f"op {i}: {message}"


def run_op(wl, i: int, tally: Tally, tracer=None) -> float:
    """Run, time and check op i.  Returns its latency in seconds."""
    from workloads import CheckFailed

    tally.attempted += 1
    start = time.perf_counter()
    try:
        if tracer is None:
            output = wl.op(i)
        else:
            with tracer.op_span(i):
                output = wl.op(i)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        latency = time.perf_counter() - start
        tally.fail(i, f"raised {type(exc).__name__}: {exc}")
        return latency
    latency = time.perf_counter() - start
    try:
        material = wl.check(i, output)
    except CheckFailed as exc:
        tally.fail(i, f"check failed: {exc}")
        return latency
    tally.latencies.append(latency)
    tally.digests.setdefault(i, hashlib.sha256(material).hexdigest())
    return latency


def set_up(workload: str, seed: int, tiny: bool):
    """Import, generate inputs and warm up, at least SETUP_REPEATS times and
    for at least SETUP_SECONDS, so a cheap set-up is sampled often enough.

    Returns the last workload object and the median set-up time.
    """
    from workloads import WORKLOADS

    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        gc.collect()  # free the previous import, so memory does not grow with repeats
        start = time.perf_counter()
        mods = load_pptgeo()
        wl = WORKLOADS[workload](mods, seed, tiny, OUT)
        wl.op(wl.warmup)
        times.append(time.perf_counter() - start)
    return wl, statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) at the highest percentile with at
    least TAIL_BEYOND ops beyond it; the maximum when there are too few ops."""
    xs = sorted(latencies)
    n = len(xs)
    j = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return xs[j], 100.0 * (j + 1) / n, n - 1 - j


def timed_run(wl, seconds: float, tally: Tally) -> tuple[dict, str | None]:
    from workloads import MAX_OPS

    busy = 0.0
    start = time.perf_counter()
    i = 0
    while i < MAX_OPS:
        busy += run_op(wl, i, tally)
        i += 1
        if i % wl.cycle == 0 and time.perf_counter() - start >= seconds:
            break
    passed = len(tally.latencies)
    if passed == 0:
        return {name: 0.0 for name in ("ops_per_s", "op_p50_ms", "op_tail_ms")}, None
    value, pct, beyond = tail(tally.latencies)
    metrics = {
        "ops_per_s": passed / busy,
        "op_p50_ms": statistics.median(tally.latencies) * 1e3,
        "op_tail_ms": value * 1e3,
    }
    note = f"p{pct:.1f} of {passed} ops, {beyond} beyond"
    return metrics, note


def traced_run(wl, seconds: float, tally: Tally, trace_path: Path) -> tuple[dict, str]:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    cycles = []
    hook_errors = 0
    start = time.perf_counter()
    while True:
        untraced = sum(run_op(wl, i, tally) for i in range(wl.cycle))
        tracer.reset()
        tracer.install()
        try:
            traced = sum(run_op(wl, i, tally, tracer) for i in range(wl.cycle))
        finally:
            tracer.uninstall()
        cycles.append((untraced / traced, layer_metrics(tracer.stats, tracer.counters)))
        hook_errors += tracer.counters.get("trace.hook_errors", 0)
        if time.perf_counter() - start >= seconds:
            break
    tracer.save(trace_path)

    first = cycles[0][1]
    metrics = {}
    unsteady = []
    for name, value in first.items():
        values = [layers[name] for _, layers in cycles]
        if layer_unit(name) == "ms":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = value
            if any(v != value for v in values):
                unsteady.append(name)
    metrics["trace.overhead_ratio"] = statistics.median(r for r, _ in cycles)
    note = f"{len(cycles)} traced cycles of {wl.cycle} ops"
    if unsteady:
        note += "; counts differ between cycles: " + ", ".join(unsteady)
    if hook_errors:
        note += f"; {hook_errors} results had an unexpected type and were not counted"
    return metrics, note


def digest_report(workload: str, seed: int, wl, tally: Tally, tiny: bool) -> str:
    """Digest the first cycle's outputs and compare with the recorded reference."""
    first = [tally.digests.get(i) for i in range(wl.cycle)]
    if None in first:
        return "digest: unavailable (an op of the first cycle failed)"
    digest = hashlib.sha256("".join(first).encode()).hexdigest()
    path = OUT / f"{workload}-seed{seed}-digests.json"
    path.write_text(json.dumps({"workload": digest, "ops": tally.digests}, indent=1) + "\n")
    reference = None
    if not tiny and BASELINE.is_file():
        reference = json.loads(BASELINE.read_text()).get("digests", {}).get(workload, {}).get(str(seed))
    if reference is None:
        status = "no reference for this seed"
    elif reference == digest:
        status = "matches the reference"
    else:
        status = f"CHANGED from reference {reference}"
    return f"digest: {digest} ({status})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pptgeo benchmark")
    parser.add_argument("--workload", required=True, choices=("claim", "landscape", "witness"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every op, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "pptgeo" / "__init__.py").is_file():
        print(f"error: no pptgeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tiny = args.size == "tiny"

    env = environment()
    print(f"# pptbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))

    wl, setup_s = set_up(args.workload, args.seed, tiny)
    tally = Tally()
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        metrics, note = traced_run(wl, args.seconds, tally, trace_path)
        units = {name: layer_unit(name) for name in metrics}
        print(f"# traced: {note}; spans in {trace_path.relative_to(ROOT)}")
    else:
        timed, note = timed_run(wl, args.seconds, tally)
        metrics = {
            "setup_s": setup_s,
            **timed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
        }
        units = END_TO_END_UNITS
        print(f"# ops attempted={tally.attempted} failed={tally.failed}; op_tail_ms is {note}")
    print("# " + digest_report(args.workload, args.seed, wl, tally, tiny))
    if tally.first_error:
        print(f"# first failure: {tally.first_error}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>14.6g} {units[name]}")
    if not args.trace:
        # Printed for reading only: the result carries it as pass_ratio, since
        # a metric that is 0 on every good run has no spread to bound.
        print(f"{'fail_ratio':32s} {tally.failed / tally.attempted:>14.6g} ratio")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
