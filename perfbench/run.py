"""ampo benchmark: one seeded workload, its metrics, and its output checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {book,studies,validate,cli} \
        --seed N --seconds S --trace {0,1}

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. Metric names, units and bounds are listed in BENCHMARK.json;
README.md next to this file explains what each one measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import inputs

CPUS = sorted(os.sched_getaffinity(0))
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
GAUGE_EVERY = 0.02  # seconds of ops between two gauge readings
PICK_EVERY = 0.5  # seconds between moves to the CPU where the gauge runs fastest
GAUGE_SLACK = 1.15  # a window is steady when its two gauge readings differ by at most 15%
REF_GAUGE_S = 1.6e-3  # the gauge's reading on an undisturbed CPU of the reference machine
IMPORT_PROBES = 3
PERCENTILE_RULE = (
    "linear interpolation between closest ranks (statistics.quantiles, method="
    "'inclusive'); a tail quantile q is reported only with >= 10 samples beyond "
    "it, so a run lasts at least ceil(10/(1-q)) ops"
)


def quantile(xs, q: float) -> float:
    """The q-quantile, q a whole percent, by the rule in PERCENTILE_RULE."""
    return statistics.quantiles(xs, n=100, method="inclusive")[round(100 * q) - 1]


_GAUGE_RNG = inputs.rng_for("gauge", 0)
_GAUGE_CONTRACTS = [inputs.sample_contract(_GAUGE_RNG) for _ in range(600)]


def gauge() -> float:
    """Seconds a fixed piece of Python takes: how fast this CPU runs right now.

    About a fifth integer loop and four fifths the benchmark's own
    closed-form pricing (float math, calls, small objects). Under outside
    load the loop alone slows ~1.3x and the pricing ~1.75x, the package's
    ops ~1.5-1.7x; this mix slows about as much as they do.
    """
    t0 = time.perf_counter()
    s = 0
    for k in range(5_000):
        s += k * k
    for c in _GAUGE_CONTRACTS:
        inputs.premium(inputs.Contract(c.spot, c.rate, c.vol, c.amort, c.kind))
        inputs.boundary(c.rate, c.vol, c.amort, c.kind)
    return time.perf_counter() - t0


def pick_cpu() -> float:
    """Move this process to the usable CPU where the gauge runs fastest now.

    Processes started afterwards inherit the choice. Returns the reading
    on the chosen CPU.
    """
    best = None
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        g = min(gauge(), gauge())
        if best is None or g < best[0]:
            best = (g, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[0]


def scaled_ops(lat, gauges: list[tuple[int, float]], need: int) -> list[float]:
    """Op times rescaled to a CPU on which the gauge reads REF_GAUGE_S.

    The ops used are those of the quiet windows (both gauge readings
    around the window within GAUGE_SLACK of the run's fastest) if they
    number at least `need`; else those of the steady windows (readings
    within GAUGE_SLACK of each other, so no change of speed inside); in
    both cases each op is scaled by REF_GAUGE_S over the lower reading.
    Otherwise all ops are used, each scaled by the median of the six
    readings nearest its window: when the speed flips faster than the
    readings come, that tracks the op's own speed best, and a reading
    hit by a stray pause cannot skew it.
    """
    fastest = min(g for _, g in gauges)
    quiet, steady, every = [], [], []
    for k, ((lo, g0), (hi, g1)) in enumerate(zip(gauges, gauges[1:])):
        ops = lat[lo : min(hi, len(lat))]
        if max(g0, g1) <= GAUGE_SLACK * min(g0, g1):
            part = [t * REF_GAUGE_S / min(g0, g1) for t in ops]
            steady += part
            if max(g0, g1) <= GAUGE_SLACK * fastest:
                quiet += part
        near = statistics.median(g for _, g in gauges[max(0, k - 2) : k + 4])
        every += [t * REF_GAUGE_S / near for t in ops]
    for ops in (quiet, steady):
        if len(ops) >= need:
            return ops
    return every


def measure(wl, api, tracer, seconds: float, min_ops: int, exact: bool = False) -> dict:
    """Closed loop over ops, reading the gauge at least every GAUGE_EVERY seconds.

    Runs until `seconds` have passed and at least `min_ops` ops are done,
    stopping on a whole cycle; with `exact`, runs exactly `min_ops` ops.
    """
    lat, gauges, failed, first_failures = array("d"), [], 0, []
    t_end = time.perf_counter() + seconds
    last_gauge = last_pick = -math.inf
    i = 0
    while True:
        now = time.perf_counter()
        if now - last_pick >= PICK_EVERY:
            gauges.append((i, pick_cpu()))
            last_pick = last_gauge = time.perf_counter()
        elif now - last_gauge >= GAUGE_EVERY:
            gauges.append((i, gauge()))
            last_gauge = time.perf_counter()
        sid = None
        if tracer is not None:
            tracer.op_id = i
            sid = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            res = wl.op(api, i)
            err = None
        except Exception:  # a failed op is counted and reported, the run goes on
            err = traceback.format_exc()
        t1 = time.perf_counter()
        if sid is not None:
            tracer.close(sid)
        lat.append(t1 - t0)
        if err is None:
            try:
                problems = wl.check(api, i, res)
            except Exception:  # a check that cannot run fails the op
                problems = [traceback.format_exc()]
        else:
            problems = [err]
        if problems:
            failed += 1
            if len(first_failures) < 5:
                first_failures.append(f"op {i}: {problems[0]}")
        i += 1
        if i >= min_ops and (exact or (i % wl.cycle == 0 and time.perf_counter() >= t_end)):
            break
    gauges.append((i, gauge()))
    return {"lat": lat, "gauges": gauges, "failed": failed, "failures": first_failures}


def e2e(run: dict, wl) -> dict:
    """ops_per_s, p50 and tail latency of a run, from its rescaled op times.

    On a cloud VM whose cores are shared with other tenants, the gauge
    and every op can run ~1.3-1.8x slower for seconds to many minutes.
    Raw times would then measure the neighbours; rescaled times move
    only with the program. A workload with a fixed mix of ops (cycle > 1)
    keeps every op, so the mix stays whole.
    """
    lat, gauges = run["lat"], run["gauges"]
    used = scaled_ops(lat, gauges, len(lat) if wl.cycle > 1 else wl.min_ops)
    return {
        "ops_per_s": len(used) / sum(used),
        "p50_ms": 1e3 * quantile(used, 0.5),
        "tail_ms": 1e3 * quantile(used, wl.tail),
        "ops": len(lat),
        "used_ops": len(used),
        "raw_p50_ms": 1e3 * quantile(lat, 0.5),
        "gauge_fastest_ms": 1e3 * min(g for _, g in gauges),
        "gauge_median_ms": 1e3 * statistics.median(g for _, g in gauges),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports ampo, builds the inputs and warms up."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    dt = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.decode(errors='replace')}")
    return dt


def setup_times(workload: str, seed: int) -> list[float]:
    """SETUP_PROBES setup probes, rescaled like op times."""
    times, gauges = [], []
    for k in range(SETUP_PROBES):
        gauges.append((k, pick_cpu()))
        times.append(setup_probe(workload, seed))
    gauges.append((SETUP_PROBES, gauge()))
    return scaled_ops(times, gauges, SETUP_PROBES)


def make_workload(name: str, seed: int, api):
    import workloads

    cls = workloads.WORKLOADS[name]
    return cls(seed, api, ROOT) if name == "cli" else cls(seed, api)


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.decode().strip() if done.returncode == 0 else None


def cache_size(level: int) -> int | None:
    try:
        done = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True, timeout=10)
        return int(done.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def provenance(args, samples: dict) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "l2_cache_bytes": cache_size(2),
        "l3_cache_bytes": cache_size(3),
        "percentile_rule": PERCENTILE_RULE,
        "samples": samples,
    }


# ------------------------------------------------------------------ per layer

FUNCTIONS = {
    # name: unit of its median
    "pricing.price": "us",
    "pricing.compute_exponents": "us",
    "greeks.greeks_report": "us",
    "statics.statics_report": "us",
    "analysis.effective_notional_curve": "ms",
    "analysis.ratio_study": "ms",
    "analysis.positional_vega": "us",
    "analysis.optimize_q": "ms",
    "oracle.lattice_price": "ms",
    "oracle.pde_residual": "us",
    "oracle.finite_difference": "us",
}
MODULES = ("bench", "params", "pricing", "greeks", "statics", "analysis", "oracle", "cli")
SCALE = {"us": 1e6, "ms": 1e3}
BYTES_PER_NODE_UPDATE = 32  # three float64 loads and one store per lattice node


def lattice_node_updates(steps: int) -> int:
    """Nodes visited by lattice_price with a convergence check: inductions at N, N+1, N/2, N/2+1."""
    return sum(n * (n + 1) // 2 for n in (steps, steps + 1, steps // 2, steps // 2 + 1))


def layer_metrics(tr, untraced: dict, traced: dict, extra: dict) -> tuple[dict, dict]:
    import workloads

    durs = tr.durations()
    self_t = tr.self_time()
    m: dict[str, tuple[float, str]] = {}
    samples: dict[str, int] = {}

    def stats(name):
        d = durs.get(name, [])
        return d, (statistics.median(d) if d else 0.0)

    for name, unit in FUNCTIONS.items():
        d, med = stats(name)
        m[f"{name}.calls"] = (len(d), "count")
        m[f"{name}.busy_s"] = (sum(d), "s")
        m[f"{name}.p50_{unit}"] = (med * SCALE[unit], unit)
        m[f"{name}.errors"] = (tr.errors.get(name, 0), "count")
        samples[f"{name}.p50_{unit}"] = len(d)

    curve, _ = stats("analysis.effective_notional_curve")
    solves = len(curve) * len(workloads.QS20)
    m["analysis.effective_maturity.per_solve_us"] = (1e6 * sum(curve) / solves if solves else 0.0, "us")
    opt_calls = len(durs.get("analysis.optimize_q", []))
    refined = extra["refined"]
    m["analysis.optimize_q.refined_ratio"] = (refined / opt_calls if opt_calls else 0.0, "ratio")
    samples["analysis.optimize_q.refined_ratio"] = opt_calls

    fd_self = self_t.get("oracle.finite_difference", 0.0)
    m["oracle.finite_difference.self_s"] = (fd_self, "s")
    lat, _ = stats("oracle.lattice_price")
    per_call = lattice_node_updates(workloads.LATTICE.steps) if lat else 0
    m["oracle.lattice.node_updates"] = (per_call, "count")
    m["oracle.lattice.node_updates_per_s"] = (per_call * len(lat) / sum(lat) if lat else 0.0, "1/s")
    m["oracle.lattice.computed_bytes"] = (per_call * BYTES_PER_NODE_UPDATE, "bytes")

    for key in ("cli.interpreter_ms", "cli.import_numpy_ms", "cli.import_scipy_optimize_ms", "cli.import_ampo_ms"):
        m[key] = (extra[key], "ms")
    for sub in workloads.CLI_SUBS:
        d, med = stats(f"cli.main.{sub}")
        m[f"cli.main.{sub}_ms"] = (1e3 * med, "ms")
        samples[f"cli.main.{sub}_ms"] = len(d)

    d, med = stats("params.construct")
    m["params.construct.calls"] = (len(d), "count")
    m["params.construct_us"] = (1e6 * med, "us")

    per_module = dict.fromkeys(MODULES, 0.0)
    for name, t in self_t.items():
        per_module[name.split(".", 1)[0]] += t
    for mod in MODULES:
        m[f"{mod}.self_s"] = (per_module[mod], "s")

    m["bench.gauge_ms"] = (traced["gauge_median_ms"], "ms")
    m["trace.overhead.p50_ms"] = (traced["p50_ms"] - untraced["p50_ms"], "ms")
    m["trace.overhead.tail_ms"] = (traced["tail_ms"] - untraced["tail_ms"], "ms")
    m["trace.overhead.ops_per_s"] = (traced["ops_per_s"] - untraced["ops_per_s"], "1/s")
    m["trace.spans"] = (len(tr.start), "count")
    return m, samples


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["book", "studies", "validate", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "ampo" / "__init__.py").is_file():
        print(f"error: no ampo sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    os.environ.pop("AMPO_OUTPUT", None)

    if args.setup_only:
        import workloads

        make_workload(args.workload, args.seed, workloads.Api())
        return 0

    # One CPU at a time for this process and the interpreters it starts, so
    # the gauge reads the CPU the measured work runs on.
    pick_cpu()
    setup = [] if args.trace else setup_times(args.workload, args.seed)

    import ampo
    import workloads
    from tracer import Tracer

    if Path(ampo.__file__).resolve().parent != (SRC / "ampo").resolve():
        print(f"error: imported ampo from {ampo.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    raw = workloads.Api()
    wl = make_workload(args.workload, args.seed, workloads.Api(tracer) if tracer else raw)

    golden = wl.golden()
    problems = list(golden)
    missed = wl.self_test()
    if missed:
        problems.append(f"checks failed to flag: {missed}")

    if args.trace:
        half = args.seconds / 2.0
        base = measure(wl, raw, None, half, wl.cycle)
        wl.refined = 0
        traced_api = workloads.Api(tracer)
        # the traced pass repeats exactly the ops of the untraced one
        traced_run = measure(wl, traced_api, tracer, 0.0, len(base["lat"]), exact=True)
        tracer.op_id = -1
        rounds = IMPORT_PROBES if args.workload == "cli" else 1
        extra = workloads.census(traced_api, set(tracer.names), ROOT, rounds)
        extra["refined"] += wl.refined
        metrics, samples = layer_metrics(tracer, e2e(base, wl), e2e(traced_run, wl), extra)
        runs = (base, traced_run)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        run = measure(wl, raw, None, args.seconds, wl.min_ops)
        runs = (run,)
        # read before e2e() builds its own lists of op times
        rss_kib = wl.peak_rss_kib if args.workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        e = e2e(run, wl)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
            "ops_per_s": (e["ops_per_s"], "1/s"),
            "p50_ms": (e["p50_ms"], "ms"),
            "tail_ms": (e["tail_ms"], "ms"),
        }
        samples = {"setup_s": len(setup), "setup_probes": SETUP_PROBES, "tail_quantile": wl.tail,
                   **{k: v for k, v in e.items() if k not in metrics}}

    attempted = sum(len(r["lat"]) for r in runs) + 1  # +1: the golden reference op
    failed = sum(r["failed"] for r in runs) + (1 if golden else 0)
    for r in runs:
        problems += r["failures"]
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)

    prov = provenance(args, samples)
    if args.workload == "validate":
        # prices and payoffs on the 2N+1 log grid, plus one level of values
        steps = workloads.LATTICE.steps
        prov["lattice_working_set_bytes"] = 8 * (2 * (2 * steps + 1) + steps + 1)
        prov["lattice_convergence_refusals"] = wl.refusals
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:16.6f} {unit}")
    print("provenance " + json.dumps(prov))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
