"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; heinegas is imported from ``src/``. The run
times its set-up once, from the process's start; runs one untimed warm-up
repetition (the same calls at a smaller size); then times repetitions until ``--seconds`` of task time have
passed, and reports their median. With ``--trace 1`` the repetitions run
with every layer's public functions wrapped and the metrics are the
per-layer ones (medians over repetitions); the spans are written to
``.perfbench_out/``. The outputs of the last repetition are checked
against computations made apart from heinegas. Metric names and units
come from BENCHMARK.json.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# one BLAS thread, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def process_age() -> float:
    """Seconds since this process started (interpreter start-up included)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0
    return age if 0.0 < age < 3600.0 else time.perf_counter() - _T0


def layer_metrics(tracer, task_s: float) -> dict:
    """Per-layer numbers of one traced repetition."""
    out = {name + ".s": t for name, t in tracer.self_times().items()}
    out.update(tracer.counts)
    out["trace.task_s"] = task_s
    out["trace.unaccounted.s"] = task_s - tracer.covered()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    sys.path[:0] = [SRC, HERE]
    try:
        import heinegas
    except ImportError as exc:
        print(f"error: cannot import heinegas from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(heinegas.__file__))) != SRC:
        print(f"error: heinegas was imported from {heinegas.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        setup_s = process_age()

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()

        def repetition(warmup=False):
            gc.collect()
            if tracer is not None:
                tracer.reset()
            t0 = time.perf_counter()
            try:
                return wl.task(warmup), time.perf_counter() - t0
            except Exception:
                traceback.print_exc()
                return None, time.perf_counter() - t0

        repetition(warmup=True)
        times, layers, spans = [], [], []
        attempted = failed = 0
        while not times or sum(times) < args.seconds:
            result = outputs = None  # release the last outputs before the next repetition
            result, dt = repetition()
            attempted += wl.ops
            if result is None:
                failed += wl.ops
            else:
                outputs = result
            times.append(dt)
            if tracer is not None:
                layers.append(layer_metrics(tracer, dt))
                spans.append({"task_s": dt, "spans": tracer.spans})
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.reset()  # the checks' calls go to a list that is dropped

        fails = []
        if outputs is not None:
            try:
                fails = wl.check(outputs)
            except Exception as exc:
                traceback.print_exc()
                fails = [f"check raised {exc!r}"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer is not None:
        keys = set().union(*layers)
        values = {k: statistics.median(row.get(k, 0) for row in layers) for k in keys}
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "repetitions": spans}, fh)
    else:
        values = {"setup_s": setup_s, "task_s": statistics.median(times), "peak_rss_mb": peak_rss_mb}
    metrics = {w["name"]: {"value": values.get(w["name"], 0), "unit": w["unit"]} for w in wanted}

    print(
        f"{args.workload}: {len(times)} timed repetitions "
        f"({', '.join(f'{t:.3f}' for t in times)} s), "
        f"checks {'passed' if not fails else 'FAILED'}"
    )
    for msg in fails:
        print(f"  check failed: {msg}")
    result = {"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
