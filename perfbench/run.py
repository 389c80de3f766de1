"""Benchmark of gjmsdet: one run of one workload at one seed.

    python3 perfbench/run.py --workload {diagonal,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src``.
Prints one JSON line with the run's record (provenance, the inputs drawn,
sample counts, failures by cause and every per-layer number), then, as the
last line, the result ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` the per-layer ones, from a run that alternates traced and
untraced passes.  ``failed`` and ``correct`` count only unexpected failures:
the known defects listed in ``workloads.py`` are counted apart, by cause.
All load comes from this process and at most one child process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import points

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("diagonal", "cli")
SETUP_REPEATS = 5
PROBE_REPEATS = 3
MIN_PASSES = 3
TAIL_BEYOND = 10
# The package's METHODS, spelled out: the package is imported only once its
# source has been found beside the benchmark.
METHODS = ("direct", "sum", "chebyshev", "product_rule")
FAIL_CAUSES = ("typed_error", "raw_exception", "off_oracle", "bad_exit")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "quadrature.calls": "count",
    "quadrature.abscissas": "count",
    "quadrature.useful_ratio": "1",
    "quadrature.accuracy_errors": "count",
    "quadrature.self_s": "s",
    "quadrature.self_us_per_call": "us",
    "spectral.integrand_s": "s",
    "spectral.integrand_ns_per_abscissa": "ns",
    **{f"spectral.route_s.{m}": "s" for m in METHODS},
    **{f"spectral.integrals_per_call.{m}": "count" for m in METHODS},
    "spectral.zeta_odd_s": "s",
    "spectral.max_abs_err": "1",
    "spectral.err_underestimates": "count",
    "chebyshev.v_coefficients_s": "s",
    "cli.import_s": "s",
    **{f"cli.exit_code.{n}": "count" for n in range(5)},
    "fail_frac": "1",
    **{f"fail.{cause}": "count" for cause in FAIL_CAUSES},
    "fail.known_defect": "count",
    "trace.overhead_frac": "1",
}


def load_package():
    """Import gjmsdet from the checkout's ``src``, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "gjmsdet", "__init__.py")):
        raise SystemExit(f"error: no package source at {SRC}")
    sys.path.insert(0, SRC)
    import gjmsdet

    if not os.path.realpath(gjmsdet.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: gjmsdet was imported from {gjmsdet.__file__}")
    return gjmsdet


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples beyond it, or the
    largest sample when there are no more than TAIL_BEYOND: its value and the
    percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    """One workload at one seed: its inputs, its pass and its tally."""

    def __init__(self, workload: str, seed: int, out_dir: str) -> None:
        import workloads

        self.wl = workloads
        self.workload, self.seed = workload, seed
        self.env = workloads.child_env(SRC)
        self.oracle = points.load_oracle()
        self.tally = workloads.Tally()
        self.import_args = ["-c", workloads.IMPORT_PROBE]
        if workload == "cli":
            self.inputs = [list(argv) for argv in workloads.CLI_CALLS]
            self.setup_args = self.import_args
        else:
            self.inputs = points.WORKLOAD_POINTS[workload](seed)
            self.setup_args = [os.path.join(HERE, "setup_child.py"), workload, str(seed)]
        self._out_dir = out_dir
        self.passes = 0

    def child_seconds(self, args) -> float:
        """Run a probe interpreter that prints seconds; its failure ends the run."""
        _, code, stdout = self.wl.run_child(args, self.env, ROOT)
        if code != 0:
            raise SystemExit(f"error: probe {args} exited {code}")
        return float(stdout)

    def one_pass(self, in_process_cli: bool = False, new_call=lambda: None):
        wl = self.wl
        self.passes += 1
        if self.workload != "cli":
            run = wl.IN_PROCESS_PASSES[self.workload]
            return run(self.inputs, self.oracle, self.tally, new_call)
        run_one = wl.in_process_cli if in_process_cli else wl.subprocess_cli(self.env, ROOT)
        return wl.cli_pass(run_one, self._out_dir, self.oracle, self.tally, new_call)

    def warm_up(self) -> None:
        """The in-process workload's first, untimed pass fills the caches;
        ``cli`` pays its cold costs on every invocation and has none."""
        if self.workload != "cli":
            self.one_pass()

    def plain(self, seconds: float):
        """Untraced timed passes.  The set-up probes, each in a fresh
        interpreter, are spread evenly over the same window, so that set-up
        and passes see the same load on a shared machine."""
        self.warm_up()
        setup, walls, latencies, ok_calls = [], [], [], 0
        pass_medians, pass_tails = [], []
        start = time.perf_counter()
        while (len(walls) < MIN_PASSES or len(setup) < SETUP_REPEATS
               or time.perf_counter() < start + seconds):
            due = len(setup) * seconds / SETUP_REPEATS
            if len(setup) < SETUP_REPEATS and time.perf_counter() - start >= due:
                setup.append(self.child_seconds(self.setup_args))
                continue
            t0 = time.perf_counter()
            lat, ok = self.one_pass()
            walls.append(time.perf_counter() - t0)
            pass_medians.append(statistics.median(lat))
            pass_tails.append(tail(lat)[0])
            latencies += lat
            ok_calls += ok
        who = resource.RUSAGE_CHILDREN if self.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "calls_per_s": ok_calls / sum(walls),
            "call_p50_ms": 1e3 * statistics.median(pass_medians),
            "call_tail_ms": 1e3 * statistics.median(pass_tails),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        n = len(self.inputs)
        samples = {
            "setup_s": len(setup),
            "passes": len(walls),
            "calls_per_pass": n,
            "call_tail_percentile_per_pass": tail(range(n))[1],
            "call_tail_beyond_per_pass": TAIL_BEYOND if n > TAIL_BEYOND else 0,
        }
        by_input = [
            [self.inputs[i], 1e3 * statistics.median(latencies[i::n])] for i in range(n)
        ]
        return metrics, {"samples": samples,
                         "setup_samples_s": setup, "pass_walls_s": walls,
                         "call_p50_ms_by_input": by_input}

    def traced(self, seconds: float):
        """Traced passes alternate with untraced ones; per-layer numbers are
        medians over the traced passes.  ``cli`` runs ``cli.main`` in this
        process here, so its layers can be traced."""
        import spans
        from gjmsdet import chebyshev, spectral

        tracer = spans.Tracer()
        in_process = self.workload == "cli"
        self.warm_up()
        plain, traced, per_pass = [], [], []
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
            start = time.perf_counter()
            self.one_pass(in_process)
            plain.append(time.perf_counter() - start)
            mark = len(tracer)
            with spans.installed(tracer):
                start = time.perf_counter()
                self.one_pass(in_process, tracer.new_call)
                traced.append(time.perf_counter() - start)
            per_pass.append(spans.summarize(tracer, mark, len(tracer)))

        def cold(fn, *caches):
            times = []
            for _ in range(PROBE_REPEATS):
                for cached in caches:
                    cached.cache_clear()
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return statistics.median(times)

        tally, passes = self.tally, self.passes
        layers = {
            key: statistics.median(p.get(key, 0.0) for p in per_pass)
            for key in sorted(set().union(*per_pass))
        }
        layers.update({
            # closed-form needs zeta(3), zeta(5) and zeta(7); `rules --k 511`
            # and the top of the diagonal need v_coefficients(511).
            "spectral.zeta_odd_s": cold(
                lambda: [spectral.zeta_odd(n) for n in (3, 5, 7)], spectral.zeta_odd),
            "chebyshev.v_coefficients_s": cold(
                lambda: chebyshev.v_coefficients(511),
                chebyshev.u_coefficients, chebyshev.v_coefficients),
            "cli.import_s": statistics.median(
                self.child_seconds(self.import_args) for _ in range(PROBE_REPEATS)),
            "spectral.max_abs_err": tally.max_abs_err,
            "spectral.err_underestimates": tally.err_underestimates / passes,
            "fail_frac": tally.fail_frac,
            "fail.known_defect": sum(tally.known.values()) / passes,
            "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1,
        })
        for cause in FAIL_CAUSES:
            layers[f"fail.{cause}"] = (tally.failed[cause] + tally.known[cause]) / passes
        for n in range(5):
            layers[f"cli.exit_code.{n}"] = tally.exit_codes[n] / passes
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{self.workload}-seed{self.seed}.jsonl.gz")
        tracer.write(spans_path)
        metrics = {name: layers[name] for name in PER_LAYER}
        return metrics, {"traced_passes": len(traced),
                         "samples": {"calls_per_pass": len(self.inputs)},
                         "layers": layers, "spans": os.path.relpath(spans_path, ROOT)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gjmsdet = load_package()
    import numpy

    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=OUT)
    try:
        run = Run(args.workload, args.seed, out_dir)
        if args.trace:
            metrics, detail = run.traced(args.seconds)
            units = PER_LAYER
        else:
            metrics, detail = run.plain(args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    tally = run.tally
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "gjmsdet": gjmsdet.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
        "inputs": run.inputs,
        "operations": {
            "attempted": tally.attempted,
            "failed_unexpected": dict(tally.failed),
            "failed_known_defect": dict(tally.known),
            "known_defect_passed": tally.known_passed,
            "passes": run.passes,
            "fail_frac": tally.fail_frac,
            "exit_codes": {str(code): n for code, n in sorted(tally.exit_codes.items())},
        },
        **detail,
        "metrics": metrics,
    }
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.unexpected,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    path = os.path.join(OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
