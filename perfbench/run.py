"""The wtc benchmark.

    python3 perfbench/run.py --workload cli|descent|words --seed N \
        --seconds S --trace 0|1

Runs one workload in this process as a closed loop with one client.  The
loop runs whole rounds of the workload's operation mix until the operations
have kept the engine busy for ``--seconds`` seconds.  Every output is checked
after its round, outside the timed region.  Every reported time is scaled to
a reference machine speed by a calibration kernel timed between operations
(see ``calibrate.py``); the table also prints the unscaled timings.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the engine's
layers (see ``tracer.py``), runs every round once untraced and once traced,
and prints the per-layer metrics.  Either way the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, Calibrator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
CALIBRATION_BURST = 5  # samples around each set-up and after the last operation
CALIBRATE_EVERY_S = 0.02
MIN_OPS = 100  # p90 needs at least ten samples beyond it
WALL_LIMIT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# traced layer functions, by the statistics reported for each
CALLS_AND_SELF = (
    "abelian.smith_normal_form", "abelian.solve_linear",
    "f2.coset_min", "f2.F2Map.solve",
    "module.lax_product", "module.apply_registered",
    "module.PieceStore.canonical_transport",
)
CALLS_AND_TOTAL = (
    "abelian.canonical_sqrt", "abelian.two_torsion", "abelian.hom_analyze",
    "abelian.cokernel_of", "align.pull_alignment",
    "descent.certify_smpic", "descent.descend_alignment", "descent.relative_class_mod2",
    "expr.normalize", "expr.ExprParser.parse",
    "module.eval_expr", "module.validate_registered_map",
    "basis.check_total_basis", "basis.check_localization", "basis.transfer_basis",
    "workspace.loads", "workspace.workspace_from_dict", "workspace.serialize",
    "cli.main", "cli.emit_report",
)
CALLS_ONLY = ("align.compose",)
DESCENT_SIZES = ("r2k0", "r6k0", "r10k0", "r12k0", "r2k6", "r2k10", "r2k12")
WORD_LENGTHS = ("L8", "L32", "L64")
THETA_COUNTERS = ("basis.theta.cells", "basis.theta.choices_checked")


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for fn in CALLS_AND_SELF:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms")]
    for fn in CALLS_AND_TOTAL:
        out += [(f"{fn}.calls", "count"), (f"{fn}.total_ms", "ms")]
    out += [(f"{fn}.calls", "count") for fn in CALLS_ONLY]
    out += [(f"descent.descend_alignment.{s}.p50_ms", "ms") for s in DESCENT_SIZES]
    out += [(f"expr.normalize.{n}.p50_ms", "ms") for n in WORD_LENGTHS]
    out += [(c, "count") for c in THETA_COUNTERS]
    out.append(("trace.overhead_frac", "ratio"))
    return out


def workload_class(name):
    if name == "cli":
        from cli_workload import CliWorkload
        return CliWorkload
    if name == "descent":
        from descent_workload import DescentWorkload
        return DescentWorkload
    from words_workload import WordsWorkload
    return WordsWorkload


def fresh_setup(cls, seed, calibrator):
    """Import the engine afresh, build the workload and warm it up.

    Returns the workload and the set-up time scaled to reference speed, by
    calibration samples taken just before and just after.
    """
    for name in [n for n in sys.modules if n == "wtc" or n.startswith("wtc.")]:
        del sys.modules[name]
    before = calibrator.sample(CALIBRATION_BURST)
    start = time.perf_counter()
    importlib.import_module("wtc.cli")
    workload = cls(seed)
    workload.warm_up()
    elapsed = time.perf_counter() - start
    calibrator.sample(CALIBRATION_BURST)
    return workload, elapsed * calibrator.scale(before)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Loop:
    """Runs rounds of operations one after another and checks their outputs.

    Per operation it keeps the label, the raw time and the calibration sample
    in force when it ran; a calibration sample is taken whenever the
    operations have been busy for ``CALIBRATE_EVERY_S`` since the last one.
    """

    def __init__(self, workload, calibrator):
        self.workload = workload
        self.calibrator = calibrator
        self.labels = []
        self.times = []
        self.cal_at = []
        self.failures = []
        self._since_sample = 0.0

    @property
    def attempted(self):
        return len(self.times)

    def scale(self, op_id):
        """Factor that brings operation ``op_id``'s time to reference speed."""
        return self.calibrator.scale(self.cal_at[op_id])

    def scaled(self, ids):
        """Times of operations ``ids`` at reference speed."""
        return [self.times[i] * self.scale(i) for i in ids]

    def run_round(self, ops, tracer=None):
        """Run ``ops`` in order and return their ids.

        With a ``tracer``, spans are recorded around each operation only and
        tagged with its id.  Outputs are checked after the whole round.
        """
        clock = time.perf_counter
        run = self.workload.run
        outs = []
        for op in ops:
            if self._since_sample >= CALIBRATE_EVERY_S or not self.calibrator.samples:
                self.calibrator.sample()
                self._since_sample = 0.0
            op_id = len(self.times)
            if tracer is not None:
                tracer.op = op_id
                tracer.on = True
            start = clock()
            try:
                out, err = run(op), None
            except Exception as exc:  # an unexpected engine error is a failed op
                out, err = exc, f"{op.label}: raised {exc!r}"
            elapsed = clock() - start
            if tracer is not None:
                tracer.on = False
            self.labels.append(op.label)
            self.times.append(elapsed)
            self.cal_at.append(len(self.calibrator.samples) - 1)
            self._since_sample += elapsed
            outs.append((op, out, err))
        for op, out, err in outs:
            if err is None:
                try:
                    err = self.workload.check(op, out)
                except Exception as exc:  # a check that cannot run is a failure
                    err = f"{op.label}: check raised {exc!r}"
            if err is not None:
                self.failures.append(err)
        first = len(self.times) - len(ops)
        return range(first, len(self.times))

    def finish(self):
        """Samples after the last operation, so that its window is full."""
        self.calibrator.sample(CALIBRATION_BURST)


def measure(loop, seconds):
    """Untraced closed loop; returns the timing metrics, scaled and unscaled."""
    wall_start = time.perf_counter()
    busy = 0.0
    i = 0
    while (busy < seconds or loop.attempted < MIN_OPS) and (
        time.perf_counter() - wall_start < WALL_LIMIT_S
    ):
        ids = loop.run_round(loop.workload.round(i))
        busy += sum(loop.times[j] for j in ids)
        i += 1
    loop.finish()
    scaled = loop.scaled(range(loop.attempted))
    return timing_metrics(sorted(scaled)), timing_metrics(sorted(loop.times))


def timing_metrics(times):
    return {
        "ops_per_s": len(times) / sum(times),
        "p50_ms": percentile(times, 0.5) * 1e3,
        "p90_ms": percentile(times, 0.9) * 1e3,
    }


def measure_traced(loop, seconds):
    """Each round once untraced and once traced, alternating which goes first.

    Returns the per-layer metrics, per round of the mix.
    """
    from tracer import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    ids = {False: [], True: []}
    wall_start = time.perf_counter()
    busy = 0.0
    i = 0
    try:
        while (busy < seconds or i < 2) and (time.perf_counter() - wall_start < WALL_LIMIT_S):
            ops = loop.workload.round(i)
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                done = loop.run_round(ops, tracer if traced else None)
                ids[traced] += done
                busy += sum(loop.times[j] for j in done)
            i += 1
    finally:
        tracer.uninstall()
    loop.finish()
    scale = {j: loop.scale(j) for j in ids[True]}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{loop.workload.name}.json.gz", loop.labels, scale)
    overhead = 1.0 - sum(loop.scaled(ids[False])) / sum(loop.scaled(ids[True]))
    return layer_metrics(tracer, loop.labels, scale, rounds=i, overhead=overhead)


def layer_metrics(tracer, labels, scale, rounds, overhead):
    """Per-layer metrics; span times are scaled like their operation's time."""
    per_name = tracer.per_name(scale)

    def stat(fn, kind):
        calls, total, self_time = per_name.get(fn, (0, 0.0, 0.0))
        value = {"calls": calls, "total_ms": total * 1e3, "self_ms": self_time * 1e3}[kind]
        return value / rounds

    def p50_by_label(fn, label):
        durations = [
            d * scale[op] for op, ds in tracer.durations(fn).items() if labels[op] == label
            for d in ds
        ]
        return statistics.median(durations) * 1e3 if durations else 0.0

    values = {}
    for fn in CALLS_AND_SELF:
        values[f"{fn}.calls"] = stat(fn, "calls")
        values[f"{fn}.self_ms"] = stat(fn, "self_ms")
    for fn in CALLS_AND_TOTAL:
        values[f"{fn}.calls"] = stat(fn, "calls")
        values[f"{fn}.total_ms"] = stat(fn, "total_ms")
    for fn in CALLS_ONLY:
        values[f"{fn}.calls"] = stat(fn, "calls")
    for size in DESCENT_SIZES:
        values[f"descent.descend_alignment.{size}.p50_ms"] = p50_by_label(
            "descent.descend_alignment", size
        )
    for length in WORD_LENGTHS:
        values[f"expr.normalize.{length}.p50_ms"] = p50_by_label("expr.normalize", length)
    for counter in THETA_COUNTERS:
        values[counter] = tracer.counters.get(counter, 0) / rounds
    values["trace.overhead_frac"] = overhead
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description="wtc benchmark")
    parser.add_argument("--workload", required=True, choices=("cli", "descent", "words"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wtc" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no engine sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    cls = workload_class(args.workload)

    calibrator = Calibrator()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        try:
            workload, elapsed = fresh_setup(cls, args.seed, calibrator)
        except Exception as exc:  # the engine failed while loading or warming up
            sys.stderr.write(f"perfbench: set-up of {args.workload} failed: {exc!r}\n")
            return 1
        setup_times.append(elapsed)
    engine = Path(sys.modules["wtc"].__file__).resolve()
    if SRC.resolve() not in engine.parents:
        sys.stderr.write(f"perfbench: imported wtc from {engine}, not from {SRC}\n")
        return 2
    gc.collect()

    loop = Loop(workload, calibrator)
    if args.trace:
        values = measure_traced(loop, args.seconds)
        spec = per_layer_metrics()
    else:
        values, unscaled = measure(loop, args.seconds)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        spec = END_TO_END

    failed = len(loop.failures)
    for message in loop.failures[:20]:
        sys.stderr.write(f"perfbench: FAIL {message}\n")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{loop.attempted} operations, {failed} failed; times at reference speed, "
          f"calibration median {statistics.median(calibrator.samples) * 1e3:.3f} ms "
          f"(reference {REFERENCE_S * 1e3:.3f} ms)")
    for name, unit in spec:
        print(f"  {name:<52} {values[name]:>14.6g} {unit}")
    print(f"  {'fail_frac':<52} {failed / max(loop.attempted, 1):>14.6g} ratio")
    if not args.trace:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    result = {
        "correct": failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
