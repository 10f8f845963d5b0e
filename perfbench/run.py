"""landersim benchmark: closed-loop solve latency, throughput and solver
budget, end to end and layer by layer.

    python3 perfbench/run.py --workload reference_mix --seed 1 \
        --seconds 36 --trace 0

Run from the repository root; the package is imported from ./src. The last
line of stdout is one JSON object {correct, attempted, failed, metrics}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
lines before it print the same metrics as a table, plus diagnostics. Exit
status is 0 when every output checked out, 1 when one was wrong, 2 when
the package cannot be found. See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("reference_mix", "mocap_loop")
SETUP_PROBES = 4    # extra set-ups in fresh processes; median of these + own


def pin_blas_threads():
    """One BLAS thread for numpy and scipy. Must run before numpy loads:
    the solver's iteration counts and floating-point results depend on
    the BLAS thread count."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads() -> list:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes
    found = []
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower()
                           and line.rstrip().endswith(".so")})
    except OSError:     # no procfs: the thread count is reported unknown
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append((Path(path).name, fn()))
                break
    return found


def environment() -> str:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{n}={t}" for n, t in blas_threads())
    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__} "
            f"({blas['name']} {blas['version']}), scipy {scipy.__version__} "
            f"({sblas['name']} {sblas['version']}), blas threads: "
            f"{threads or 'unknown'}, nproc {os.cpu_count()}")


class PackageMissing(RuntimeError):
    """The checkout holds no importable landersim source tree."""


def import_package():
    """Import landersim from ./src, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "landersim" / "__init__.py").is_file():
        raise PackageMissing(f"no landersim package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import landersim
    if Path(landersim.__file__).resolve().parent != src / "landersim":
        raise PackageMissing(f"imported landersim from "
                             f"{landersim.__file__}, not from {src}")


def set_up(args, scratch):
    """Import, load and validate the scenarios and run one untimed warm-up
    solve, then make the inputs. Returns the workload and the seconds the
    set-up took, input generation excluded."""
    t0 = perf_counter()
    import_package()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, args.seconds, scratch)
    wl.setup()
    took = perf_counter() - t0
    wl.make_inputs()
    return wl, took


def probe_setup(args) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def interquartile_mean(x) -> float:
    """Mean of the samples between the 25th and 75th percentiles.

    Used for typical solve latency instead of the median: warm re-solves
    take 1 or 2 inner iterations in near-equal shares, so the median sits
    in the valley between those two modes and jumps between them from
    seed to seed, while this mean moves smoothly with the mix.
    """
    import numpy as np
    lo, hi = np.percentile(x, [25, 75])
    return float(x[(x >= lo) & (x <= hi)].mean())


def end_to_end(res, setup_s) -> dict:
    import numpy as np
    ms = np.array([r[0] for r in res.solves]) * 1e3
    done = [r for r in res.solves if r[1] >= 0]
    return {
        "setup_s": (setup_s, "s"),
        "solve_ms_iqm": (interquartile_mean(ms), "ms"),
        "solve_ms_p95": (float(np.percentile(ms, 95)), "ms"),
        "ops_per_s": (res.ops / res.wall_s, "1/s"),
        "budget_hit_rate":
            (sum(r[1] >= r[4] for r in done) / len(res.solves), "share"),
        "converged_rate":
            (sum(bool(r[3]) for r in done) / len(res.solves), "share"),
        "inner_iters_mean":
            (sum(r[1] for r in done) / max(len(done), 1), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def diagnostics(res) -> list:
    import numpy as np
    ms = np.array([r[0] for r in res.solves]) * 1e3
    lines = [f"operations: {res.ops} in {res.wall_s:.3f} s "
             f"({res.trials} closed-loop trials); solves timed: {ms.size}, "
             f"{int((ms > np.percentile(ms, 95)).sum())} beyond p95",
             f"solve ms: p50 {np.percentile(ms, 50):.3f}, p99 "
             f"{np.percentile(ms, 99):.3f}, max {ms.max():.3f}"
             f" (diagnostics, not metrics)",
             f"failed_rate: {len(res.failures)}/{res.attempted} = "
             f"{len(res.failures) / res.attempted:.4f}"]
    lines += [f"  failed: {f}" for f in res.failures]
    return lines


def table(metrics) -> list:
    return [f"  {name:<36} {value:>14.6g} {unit}"
            for name, (value, unit) in metrics.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=36,
                    help="run length; sets the work per pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    pin_blas_threads()

    out_dir = ROOT / ".bench_out"
    scratch = out_dir / f"run-{os.getpid()}"
    try:
        try:
            wl, own_setup = set_up(args, scratch)
        except PackageMissing as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup_s = statistics.median(
            [own_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)])

        from tracing import Tracer, per_layer
        from workloads import SolveProbe
        errors = []
        tracer = Tracer() if args.trace else None
        with SolveProbe() as probe:
            res, traced = wl.run(probe, tracer)
        metrics = end_to_end(res, setup_s)
        errors += res.errors
        if traced is not None:
            errors += traced.errors
            if traced.digest != res.digest:
                errors.append("traced pass: report digest differs from the "
                              "untraced pass")
            if traced.counts() != res.counts() \
                    or traced.ops != res.ops \
                    or len(traced.failures) != len(res.failures):
                errors.append("traced pass: solver counts differ from the "
                              "untraced pass")
            layers = per_layer(tracer, traced, res.ops / res.wall_s)
            if layers["ocp.solve_calls"][0] != len(traced.solves):
                errors.append("traced pass: ocp.solve spans do not match "
                              "the solves timed")
            spans = out_dir / f"spans-{args.workload}-{args.seed}.json"
            out_dir.mkdir(exist_ok=True)
            tracer.write(spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"landersim benchmark: workload {args.workload}, seed {args.seed},"
          f" seconds {args.seconds}, trace {args.trace}")
    print(f"environment: {environment()}")
    print(f"report digest: {res.digest}")
    paired = "" if traced is None else ", run alternately with the traced one"
    print(f"end-to-end (untraced pass{paired}):")
    print("\n".join(table(metrics)))
    print("\n".join(diagnostics(res)))
    shown = metrics
    if traced is not None:
        print(f"per-layer (traced pass; spans in {spans.relative_to(ROOT)}):")
        print("\n".join(table(layers)))
        shown = layers
    for e in errors:
        print(f"WRONG OUTPUT: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": res.attempted,
        "failed": len(res.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in shown.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
