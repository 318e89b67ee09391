"""Benchmark of the relumhe pipeline, end to end and per module.

    python3 bench/run.py --workload synthetic-mhe --seed 1 --seconds 30 --trace 0

Runs from the source tree next to this directory (``src/``), one process,
one BLAS thread.  A run makes its inputs from ``--seed``, does one untimed
warm-up op, then repeats whole rounds of ops until ``--seconds`` have
passed, checking every op's output with the benchmark's own computation.
A fixed reference kernel runs after every op; ``op_cost_ref`` divides the
mean op time by the mean kernel time, so contention and CPU speed, which
slow both, cancel out.  Set-up is scaled the same way: the kernel also runs
at three points of set-up, and ``setup_s`` is the set-up time, less those
calls, on a host where one kernel call takes ``KERNEL_NOMINAL_S``.

With ``--trace 1`` the package's functions are wrapped (see ``tracer.py``),
per-module metrics are reported instead of the end-to-end ones, and every
op is then repeated untraced to check that tracing left its outputs
byte-identical.

The last line of standard output is the result: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (per-op
times, failures, the trace) go to ``.bench_out/`` in the checkout.
"""

import time

_T_START = time.perf_counter()  # set-up is timed from here

import os  # noqa: E402

# Fixed before numpy loads: one process, one BLAS / OpenMP thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("synthetic-mhe", "bias-geometry", "wine-regularized")
# Reference-kernel calls after each op, so the kernel takes a tenth to a
# fifth of the timed part on every workload.  A larger share was tried and
# made op_cost_ref spread more, not less.
REF_CALLS = {"synthetic-mhe": 3, "bias-geometry": 40, "wine-regularized": 9}
# Reference-kernel calls at each of the three calibration points of set-up.
CAL_CALLS = 5
# One reference-kernel call on the host the bounds were set on (README).
# setup_s is set-up time scaled to that host's speed.
KERNEL_NOMINAL_S = 0.0065


def parse_args(argv):
    p = argparse.ArgumentParser(description="relumhe pipeline benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import relumhe from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "relumhe" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}/relumhe")
    sys.path.insert(0, str(SRC))
    import relumhe

    if Path(relumhe.__file__).resolve().parent != (SRC / "relumhe").resolve():
        raise SystemExit(f"error: relumhe imported from {relumhe.__file__}, not {SRC}")


def make_reference_kernel():
    """Benchmark-owned kernel: SVDs of 18x20 matrices, as the package runs
    them, and a pure-Python loop of dictionary updates over tuple keys, as
    its interpreter-bound part does."""
    matrices = np.random.default_rng(20260101).standard_normal((24, 18, 20))
    keys = [tuple(range(i % 50)) for i in range(12000)]

    def kernel() -> int:
        for A in matrices:
            np.linalg.svd(A, full_matrices=False)
        table: dict = {}
        for key in keys:
            table[key] = table.get(key, 0) + len(key)
        return len(table)

    return kernel


class Calibration:
    """Reference-kernel calls made during set-up, to measure the host's speed
    there.  Their time is not set-up time: ``spent_s`` is taken off it."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.times: list[float] = []
        self.marks: list[float] = []  # seconds from the start at each point
        self.spent_s = 0.0

    def point(self) -> None:
        self.marks.append(time.perf_counter() - _T_START)
        for _ in range(CAL_CALLS):
            t0 = time.perf_counter()
            self.kernel()
            self.times.append(time.perf_counter() - t0)
        self.spent_s += sum(self.times[-CAL_CALLS:])

    @property
    def mean_call_s(self) -> float:
        # The first call is the kernel's own cold start; it is spent, not a sample.
        return sum(self.times[1:]) / (len(self.times) - 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import tracer as tracing
    import wine_csv
    import workloads as wl

    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    op_dir = work / "op"
    op_dir.mkdir(parents=True)

    if args.workload == "synthetic-mhe":
        def next_round(rng):
            return wl.synthetic_round(rng, op_dir)
    elif args.workload == "bias-geometry":
        next_round = wl.geometry_round
    else:
        csv_path = work / "wine.csv"
        wine_csv.write_wine_csv(csv_path, args.seed)
        targets = wine_csv.read_targets(csv_path)

        def next_round(rng):
            return wl.wine_round(rng, csv_path, targets, op_dir)

    kernel = make_reference_kernel()
    ref_calls = REF_CALLS[args.workload]
    calibration = Calibration(kernel)
    calibration.point()
    # The warm-up op is the same in every run, so set-up time does not
    # depend on the seed.
    warm = next_round(np.random.default_rng(0))[0]
    calibration.point()
    warmup_error = None
    try:
        warm.call()
        warm.check()
    except Exception:  # the timed ops count failures; set-up goes on
        warmup_error = traceback.format_exc(limit=3)
    calibration.point()
    setup_wall_s = time.perf_counter() - _T_START - calibration.spent_s
    setup_s = setup_wall_s * KERNEL_NOMINAL_S / calibration.mean_call_s

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    op_times: list[float] = []
    passed = 0
    # Traced run: (op, digest, op time, kernel call time after the op).
    replay: list[tuple[object, tuple, float, float]] = []
    # Traced run, per op: traced time, kernel call after it, untraced time,
    # kernel call after that, so that the overhead can be read in kernel units.
    paired_s: list[tuple[float, float, float, float]] = []
    failures: list[str] = []
    errors: list[str] = []
    ref_times: list[float] = []  # kernel time after each op, all calls
    reached = 0
    rounds = 0
    rng = np.random.default_rng(args.seed)
    clock = time.perf_counter
    t_begin = clock()
    while rounds == 0 or clock() - t_begin < args.seconds:
        ops = next_round(rng)
        # Each round, and each seed, starts with another op of the mix.
        shift = (rounds + args.seed) % len(ops)
        for op in ops[shift:] + ops[:shift]:
            if tracer:
                tracer.op = len(op_times)
            t0 = clock()
            try:
                op.call()
                ok = True
            except Exception:
                ok = False
                failures.append(f"{op.kind} call: {traceback.format_exc(limit=3)}")
            t1 = clock()
            for _ in range(ref_calls):
                kernel()
            ref_times.append(clock() - t1)
            op_times.append(t1 - t0)
            ref_s = ref_times[-1] / ref_calls
            if not ok:
                continue
            try:
                op.check()
            except Exception as exc:  # a check that cannot run fails the op too
                failures.append(f"{op.kind} check: {type(exc).__name__}: {exc}")
                continue
            passed += 1
            reached += getattr(op, "reached_in_first_epoch", False)
            if tracer:
                replay.append((op, op.digest(), t1 - t0, ref_s))
        rounds += 1
    timed_s = clock() - t_begin
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(op_times)
    failed = len(failures)
    mean_op = sum(op_times) / attempted
    mean_ref = sum(ref_times) / (attempted * ref_calls)
    if args.workload == "synthetic-mhe" and reached < 0.95 * passed:
        errors.append(f"only {reached} of {passed} seeds reached 5e-3 in the first epoch")

    if tracer:
        tracer.uninstall()
        metrics, tallies = layer_metrics(
            tracer, args.workload, attempted, [op for op, *_ in replay], failed, errors
        )
        for op, digest, traced_s, traced_ref_s in replay:
            t0 = clock()
            try:
                op.call()
            except Exception:
                errors.append(f"{op.kind} untraced repeat: {traceback.format_exc(limit=3)}")
                continue
            t1 = clock()
            for _ in range(ref_calls):
                kernel()
            paired_s.append((traced_s, traced_ref_s, t1 - t0, (clock() - t1) / ref_calls))
            if op.digest() != digest:
                errors.append(f"{op.kind}: traced and untraced outputs differ")
        tracer.write(work / "trace.json", {"workload": args.workload, "ops": attempted,
                                           "tallies": tallies})
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_cost_ref": {"value": mean_op / mean_ref, "unit": "ref"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_wall_s": setup_wall_s, "calibration_s": calibration.times,
        "calibration_marks_s": calibration.marks,
        "rounds": rounds, "timed_s": timed_s, "ops_per_s": passed / sum(op_times),
        "op_times_s": op_times,
        "ref_times_s": ref_times, "ref_calls_per_op": ref_calls,
        "traced_untraced_s": paired_s,
        "warmup_error": warmup_error, "failures": failures, "errors": errors,
    }
    (work / "result.json").write_text(json.dumps(details, indent=1) + "\n")
    for line in [warmup_error] * bool(warmup_error) + failures + errors:
        print(line, file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


def layer_metrics(tracer, workload, attempted, passed, failed, errors):
    """Per-module metrics per attempted op, plus the tallies they must match."""
    import tracer as tracing
    import workloads as wl

    calls = tracer.calls_of
    counters = tracer.counters
    cert_calls = calls("orthant_geo.observability_certificate")
    values = {f"{layer}.self_s": (tracer.layer_self_s(layer), "s/op")
              for layer in tracing.LAYERS}
    values.update({
        "orthant_geo.enumerations": (calls("orthant_geo._tope_enumeration"), "count/op"),
        "orthant_geo.topes": (counters.get("orthant_geo.topes", 0), "count/op"),
        "orthant_geo.certificate_calls": (cert_calls, "count/op"),
        "pe_design.design_calls": (calls("pe_design.design_pe_input",
                                         "pe_design.design_pe_input_bias",
                                         "pe_design.design_pe_batches"), "count/op"),
        "pe_design.verify_calls": (calls("pe_design.verify_pe"), "count/op"),
        "pe_design.balance_calls": (calls("pe_design._balance_rows"), "count/op"),
        "neighborhood.membership_calls": (calls("neighborhood.membership"), "count/op"),
        "neighborhood.retract_calls": (calls("neighborhood.retract"), "count/op"),
        "neighborhood.retract_shortened": (counters.get("neighborhood.retract_shortened", 0),
                                           "count/op"),
        "mhe_train.steps": (calls("mhe_train.mhe_step", "mhe_train.regularized_mhe_step"),
                            "count/op"),
        "mhe_train.report_calls": (calls("mhe_train.convergence_report"), "count/op"),
        "relu_net.jacobian_calls": (calls("relu_net.observability_jacobian"), "count/op"),
        "relu_net.map_calls": (calls("relu_net.observability_map"), "count/op"),
        "numlin.calls": (tracer.layer_calls("numlin"), "count/op"),
        "experiment_cli.load_csv_s": (tracer.time_of("experiment_cli.load_csv"), "s/op"),
    })
    metrics = {name: {"value": v / attempted, "unit": unit} for name, (v, unit) in values.items()}
    ratio = counters.get("orthant_geo.certified", 0) / cert_calls if cert_calls else 0.0
    metrics["orthant_geo.certified_ratio"] = {"value": ratio, "unit": "ratio"}

    # Counts that must equal tallies derived apart from the trace.
    tallies = {}
    if workload == "synthetic-mhe":
        steps = sum(op.config.epochs * op.config.k for op in passed)
        tallies["mhe_train.steps"] = (values["mhe_train.steps"][0], steps)
    elif workload == "bias-geometry":
        generic = 0
        for key, count in counters.items():
            if key.startswith("enumeration_shape:"):
                r, n = map(int, key.split(":")[1].split("x"))
                generic += count * wl.region_count(r, n, affine=False)
        tallies["orthant_geo.topes"] = (values["orthant_geo.topes"][0], generic)
    else:
        tallies["orthant_geo.calls"] = (tracer.layer_calls("orthant_geo"), 0)
        tallies["neighborhood.calls"] = (tracer.layer_calls("neighborhood"), 0)
    # A failed op may stop part-way, so the tallies hold only when none failed.
    for name, (seen, expected) in tallies.items():
        if not failed and seen != expected:
            errors.append(f"trace tally {name}: {seen} != {expected}")
    return metrics, tallies


if __name__ == "__main__":
    sys.exit(main())
