"""Benchmark of the randomout engine on three sweep workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload crater-paired --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The engine is imported from ``src/`` and driven only through its public
functions. With ``--trace 0`` the run measures the end-to-end metrics of
BENCHMARK.json with tracing off; with ``--trace 1`` it alternates untraced
and traced sweeps and reports the per-layer metrics. Either way every
training run is checked (fresh run store, byte-identical repeats, tau=0
equals base, per-epoch loss and accuracy against ``reference.json``).
Every reported time is scaled to a fixed machine speed with the reference
kernel of ``calibrate.py``, timed right before and after each measurement.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details, the
environment and (traced) all spans go to ``.perfbench/`` at the root.
"""

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibrate import REFERENCE_S, kernel_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# Interpreter starts measured for setup_s. Start-up time on a shared machine
# drifts over seconds, so they run two after each sweep, spread over the
# measured stretch, and any still missing at the end.
SETUP_PROBES = 8
# A kernel that only reorders floating-point sums moves the per-epoch loss of
# these short runs by far less than this; a wrong kernel moves it by >1e-3.
LOSS_RTOL = 1e-6
# run_s_tail is this percentile of the untraced runs; every run of the
# benchmark measures at least MIN_RUNS of them, so ten or more lie beyond it.
TAIL_PERCENTILE = 75
MIN_RUNS = 40


@dataclass
class Run:
    cfg: object
    wall_s: float
    summary: dict
    run_dir: str
    epoch_loss: list
    reused: bool
    pid: int
    kernel_s: list  # reference kernel passes timed right before and after the run


@dataclass
class Sweep:
    traced: bool
    wall_s: float  # without the reference kernel passes
    runs: list

    @property
    def kernel_s(self):
        return [k for r in self.runs for k in r.kernel_s]


def at_reference(wall_s, kernel_s):
    """``wall_s`` scaled to the machine speed at which one reference kernel
    pass takes ``REFERENCE_S``, from the passes timed around it."""
    return wall_s * REFERENCE_S / statistics.mean(kernel_s)


class RunMeter:
    """Times every ``experiments.run_training`` call, and one reference kernel
    pass right before and one right after it, and notes cache reuse."""

    def __init__(self, experiments):
        self.experiments = experiments
        self.runs = []

    @contextlib.contextmanager
    def installed(self):
        original = self.experiments.run_training

        def metered(cfg, out_dir, *args, **kwargs):
            reused = (Path(out_dir) / cfg.config_hash() / "summary.json").exists()
            kernel = [kernel_s()]
            start = time.perf_counter()
            result = original(cfg, out_dir, *args, **kwargs)
            wall = time.perf_counter() - start
            kernel.append(kernel_s())
            loss = epoch_losses(result.records)
            self.runs.append(Run(cfg, wall, result.summary, result.run_dir, loss, reused, os.getpid(), kernel))
            return result

        self.experiments.run_training = metered
        try:
            yield self
        finally:
            self.experiments.run_training = original


def epoch_losses(records):
    """Mean training loss of each epoch, in epoch order."""
    by_epoch = {}
    for r in records:
        by_epoch.setdefault(r.epoch, []).append(r.train_loss)
    return [sum(v) / len(v) for _, v in sorted(by_epoch.items())]


def metrics_digest(run):
    return hashlib.sha256((Path(run.run_dir) / "metrics.csv").read_bytes()).hexdigest()


class Checker:
    """Correctness checks on every training run; a run failing any of them counts as failed."""

    def __init__(self, reference, run_key):
        self.reference = reference
        self.run_key = run_key
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.repeats_compared = 0
        self.problems = []

    def check(self, run, expect_digest=None):
        """Check one run; ``expect_digest`` replaces the reference comparison."""
        problems = []
        if run.reused:
            problems.append("returned a cached run instead of training")
        if run.pid != os.getpid():
            problems.append(f"trained in process {run.pid}, not the benchmark process")
        digest = metrics_digest(run)
        if expect_digest is not None:
            if digest != expect_digest:
                problems.append("metrics.csv differs from the base run's")
        else:
            key = run.cfg.config_hash()
            if key in self.digests:
                self.repeats_compared += 1
                if self.digests[key] != digest:
                    problems.append("metrics.csv differs from an earlier run of the same config")
            else:
                self.digests[key] = digest
            problems += self._against_reference(run)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"run": self.run_key(run.cfg), "problems": problems})
        return digest

    def _against_reference(self, run):
        ref = self.reference.get(self.run_key(run.cfg))
        if ref is None:
            return ["no reference recorded for this run"]
        problems = []
        losses = run.epoch_loss
        if len(losses) != len(ref["epoch_loss"]) or any(
            abs(a - b) > LOSS_RTOL * abs(b) for a, b in zip(losses, ref["epoch_loss"])
        ):
            problems.append(f"epoch losses {losses} differ from reference {ref['epoch_loss']}")
        acc, ref_acc = run.summary["final_test_acc"], ref["final_test_acc"]
        # one test example may flip when a kernel changes the last bits of a logit
        if acc != ref_acc and (None in (acc, ref_acc) or abs(acc - ref_acc) > 1.5 / run.summary["n_test"]):
            problems.append(f"final_test_acc {acc} differs from reference {ref_acc}")
        return problems


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line and "/" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": 1,
    }


def measure_setup(cfg_path):
    """Seconds from spawning an interpreter through its first load_dataset_pair
    + build_for, and the reference kernel passes timed right before and after."""
    before = kernel_s()
    spawned = time.monotonic_ns()
    out = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), str(cfg_path), str(spawned)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return int(out.stdout.split()[-1]) / 1e9, [before, kernel_s()]


def examples_trained(run):
    s = run.summary
    per_epoch = -(-s["n_train"] // run.cfg.batch_size)
    full, rest = divmod(s["batches_completed"], per_epoch)
    return full * s["n_train"] + rest * run.cfg.batch_size


def end_to_end(setup, sweeps, effective_acc, scaled=True):
    """End-to-end metrics; with ``scaled`` every time is taken at the reference speed."""
    time_s = at_reference if scaled else lambda wall_s, kernel_s: wall_s
    untraced = [s for s in sweeps if not s.traced]
    runs = [r for s in untraced for r in s.runs]
    walls = [time_s(r.wall_s, r.kernel_s) for r in runs]
    values = {
        "setup_s": statistics.median(time_s(*probe) for probe in setup),
        "train_examples_per_s": sum(examples_trained(r) for r in runs) / sum(walls),
        "run_s_p50": statistics.median(walls),
        "run_s_tail": float(np.percentile(walls, TAIL_PERCENTILE)),
        "sweep_s": statistics.median(time_s(s.wall_s, s.kernel_s) for s in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_test_acc_mean": statistics.mean(effective_acc(r.summary) for r in untraced[0].runs),
    }
    samples = {
        "setup_s": f"median of {len(setup)} interpreter starts",
        "train_examples_per_s": f"{len(runs)} runs",
        "run_s_p50": f"{len(runs)} runs",
        "run_s_tail": f"p{TAIL_PERCENTILE} of {len(runs)} runs",
        "sweep_s": f"median of {len(untraced)} sweeps",
        "peak_rss_mb": "1 process",
        "final_test_acc_mean": f"{len(untraced[0].runs)} runs of one sweep",
    }
    return values, samples


def per_layer(tracer, sweeps, scaled=True):
    """Per-layer metrics, each per traced sweep; with ``scaled`` times are
    taken at the reference speed of the traced sweeps' kernel passes."""
    traced = [s for s in sweeps if s.traced]
    n = len(traced)
    scale = at_reference(1.0, [k for s in traced for k in s.kernel_s]) if scaled else 1.0
    calls = lambda name: tracer.calls[name] / n
    self_ms = lambda name: tracer.self_ns[name] / 1e6 / n * scale
    total_ms = lambda name: tracer.total_ns[name] / 1e6 / n * scale
    count = lambda name: tracer.counts[name] / n
    m = {}
    for name in ("tensor.im2col", "tensor.col2im"):
        m.update({f"{name}.calls": calls(name), f"{name}.self_ms": self_ms(name), f"{name}.bytes": count(f"{name}.bytes")})
    for kind in ("conv2d", "batchnorm", "avgpool", "concat", "relu", "dense"):
        m[f"layers.{kind}.fwd_ms"] = self_ms(f"layers.{kind}.fwd")
        m[f"layers.{kind}.bwd_ms"] = self_ms(f"layers.{kind}.bwd")
    m["layers.conv2d.gflop"] = count("layers.conv2d.flop") / 1e9
    m["layers.loss_ms"] = self_ms("layers.loss")
    m["model.forward_ms"] = total_ms("model.forward")
    m["model.backward_ms"] = total_ms("model.backward")
    m["model.zero_grads_ms"] = total_ms("model.zero_grads")
    scanned, resets = count("regularizer.filters_scanned"), count("regularizer.resets")
    m.update(
        {
            "regularizer.scan.calls": calls("regularizer.scan"),
            "regularizer.scan.self_ms": self_ms("regularizer.scan"),
            "regularizer.filters_scanned": scanned,
            "regularizer.resets": resets,
            "regularizer.reset_ratio": resets / scanned if scanned else 0.0,
            "regularizer.cgn_telemetry.calls": calls("regularizer.cgn_telemetry"),
            "regularizer.cgn_telemetry.ms": total_ms("regularizer.cgn_telemetry"),
            "rng.xavier_init.calls": calls("rng.xavier_init"),
            "rng.xavier_init.ms": total_ms("rng.xavier_init"),
            "optim.reset_state_slice.calls": calls("optim.reset_state_slice"),
            "optim.step.calls": calls("optim.step"),
            "optim.step.ms": total_ms("optim.step"),
            "data.load_ms": total_ms("data.load"),
            "models.build_ms": total_ms("models.build"),
            "experiments.evaluate_ms": total_ms("experiments.evaluate"),
            "experiments.run_training.self_ms": self_ms("experiments.run_training"),
            "experiments.runs_computed": sum(not r.reused for s in traced for r in s.runs) / n,
            "experiments.runs_reused": sum(r.reused for s in traced for r in s.runs) / n,
            "metrics.write_ms": total_ms("metrics.write"),
            "metrics.bytes_written": count("metrics.bytes_written"),
            "trace.coverage": tracer.coverage(),
            "trace.overhead_frac": overhead_frac(sweeps),
        }
    )
    return m


def overhead_frac(sweeps):
    """Traced over untraced run time, minus 1: the median over configs of the
    ratio of each config's median traced and untraced run times, each taken
    at the reference speed."""
    walls = {True: {}, False: {}}
    for s in sweeps:
        for r in s.runs:
            walls[s.traced].setdefault(r.cfg.config_hash(), []).append(at_reference(r.wall_s, r.kernel_s))
    ratios = [statistics.median(w) / statistics.median(walls[False][k]) for k, w in walls[True].items()]
    return statistics.median(ratios) - 1


def measure(workload, pool, seconds, trace, checker):
    """Warm up, then repeat the sweep until ``seconds`` have passed.

    Returns the sweeps, the set-up probes, the tracer and whether the tau=0
    run reproduced the base run. Every sweep trains into a fresh run store.
    """
    from randomout import experiments
    from spans import Tracer

    meter = RunMeter(experiments)
    tracer = Tracer()
    sweeps, setup = [], []
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT / "tmp"))
    fresh = lambda: tempfile.mkdtemp(prefix="runs-", dir=work)
    try:
        base_cfg = workload.base_config(pool, work)
        first = workload.first_config(base_cfg, pool)
        cfg_path = work / "first-run.json"
        cfg_path.write_text(first.canonical_json())
        with meter.installed():
            # Warm-up runs that double as the tau=0 check: randomout with a zero
            # threshold must reproduce the base run byte for byte.
            out = fresh()
            experiments.run_training(first, out)
            base_digest = checker.check(meter.runs[-1])
            tau0 = first.replace(condition="randomout", randomout={"tau": 0.0, "p_active": 1.0, "check_every": 1})
            experiments.run_training(tau0, out)
            tau0_ok = checker.check(meter.runs[-1], expect_digest=base_digest) == base_digest

        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(sweeps) % 2 == 1
            out = fresh()
            before = len(meter.runs)
            # the meter wraps the tracer, so its kernel passes lie outside the run spans
            with tracer.installed() if traced else contextlib.nullcontext(), meter.installed():
                start = time.perf_counter()
                workload.sweep(base_cfg, pool, out)
                wall = time.perf_counter() - start
            runs = meter.runs[before:]
            sweeps.append(Sweep(traced, wall - sum(k for r in runs for k in r.kernel_s), runs))
            for run in sweeps[-1].runs:
                checker.check(run)
            shutil.rmtree(out)
            setup += [measure_setup(cfg_path) for _ in range(min(2, SETUP_PROBES - len(setup)))]
            if trace:
                done = len(sweeps) >= 4  # two traced, two untraced
            else:
                done = len(sweeps) >= 2 and sum(len(s.runs) for s in sweeps) >= MIN_RUNS
            if done and time.perf_counter() + statistics.median(s.wall_s for s in sweeps) > deadline:
                break
        setup += [measure_setup(cfg_path) for _ in range(SETUP_PROBES - len(setup))]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return sweeps, setup, tracer, tau0_ok


def bench(workload, seed, seconds, trace, declared):
    from randomout.experiments import effective_acc

    from workloads import POOL, run_key

    pool = seed % POOL
    reference = json.loads((HERE / "reference.json").read_text())["workloads"].get(workload.name, {}).get(str(pool), {})
    checker = Checker(reference, run_key)
    env = environment()
    sweeps, setup, tracer, tau0_ok = measure(workload, pool, seconds, trace, checker)
    kernel = [k for s in sweeps for k in s.kernel_s]

    runs_per_sweep = {len(s.runs) for s in sweeps}
    one_process = len(runs_per_sweep) == 1 and all(r.pid == os.getpid() for s in sweeps for r in s.runs)
    threads_ok = env["blas_threads"] is None or env["blas_threads"] <= env["nproc"]
    checks = {
        "runs_attempted": checker.attempted,
        "runs_failed": checker.failed,
        "check_failed_frac": checker.failed / checker.attempted,
        "runs_reused": sum(r.reused for s in sweeps for r in s.runs),
        "tau0_equals_base": tau0_ok,
        "repeats_compared": checker.repeats_compared,
        "load_in_one_process": one_process,
        "blas_threads_within_nproc": threads_ok,
        "problems": checker.problems[:20],
    }
    correct = checker.failed == 0 and one_process and threads_ok

    if trace:
        values, samples = per_layer(tracer, sweeps), {}
        raw = per_layer(tracer, sweeps, scaled=False)
    else:
        values, samples = end_to_end(setup, sweeps, effective_acc)
        raw = end_to_end(setup, sweeps, effective_acc, scaled=False)[0]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    details = {
        "workload": workload.name,
        "seed": seed,
        "input_set": pool,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "checks": checks,
        "metrics": metrics,
        "samples": samples,
        "speed": {
            "kernel_s_median": statistics.median(kernel),
            "kernel_passes": len(kernel),
            "reference_kernel_s": REFERENCE_S,
        },
        "unscaled_metrics": {m["name"]: raw[m["name"]] for m in declared},
        "sweeps": [
            {
                "traced": s.traced,
                "wall_s": s.wall_s,
                "run_wall_s": {run_key(r.cfg): r.wall_s for r in s.runs},
                "run_kernel_s": {run_key(r.cfg): r.kernel_s for r in s.runs},
            }
            for s in sweeps
        ],
        "setup_s": [{"wall_s": wall, "kernel_s": kernel} for wall, kernel in setup],
    }
    if trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        details["spans_file"] = str((OUT / "traces" / f"{tag}.jsonl.gz").relative_to(ROOT))
        details["span_totals"] = {
            name: {"calls": tracer.calls[name], "total_ns": tracer.total_ns[name], "self_ns": tracer.self_ns[name]}
            for name in sorted(tracer.calls)
        }
        details["computed_counts"] = dict(tracer.counts)
        tracer.write(ROOT / details["spans_file"])
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")

    report(details, declared)
    return {"correct": correct, "attempted": checker.attempted, "failed": checker.failed, "metrics": metrics}


COMPUTED = ("bytes", "gflop", "filters_scanned", "resets", "reset_ratio")


def report(details, declared):
    env, checks = details["environment"], details["checks"]
    print(f"randomout benchmark: workload {details['workload']}, seed {details['seed']} "
          f"(input set {details['input_set']}), {details['seconds']} s, trace {int(details['trace'])}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']} {env['blas_version']} "
          f"with {env['blas_threads']} threads, nproc {env['nproc']}, jobs {env['jobs']}")
    print(f"load in one process: {checks['load_in_one_process']}; BLAS threads <= nproc: "
          f"{checks['blas_threads_within_nproc']}")
    print(f"checks: {checks['runs_attempted']} runs attempted, {checks['runs_failed']} failed "
          f"(check_failed_frac {checks['check_failed_frac']}), {checks['runs_reused']} reused, "
          f"tau=0 equals base: {checks['tau0_equals_base']}, {checks['repeats_compared']} repeated configs compared")
    for p in checks["problems"]:
        print(f"  FAILED {p['run']}: {'; '.join(p['problems'])}")
    sweeps = details["sweeps"]
    print(f"sweeps: {len(sweeps)} ({sum(s['traced'] for s in sweeps)} traced), "
          f"{sum(len(s['run_wall_s']) for s in sweeps)} training runs")
    speed = details["speed"]
    print(f"speed: reference kernel median {speed['kernel_s_median']:.6f} s over {speed['kernel_passes']} passes; "
          f"times below are scaled to a pass of {speed['reference_kernel_s']} s, each by the passes around it "
          f"(unscaled in brackets)")
    for m in declared:
        value = details["metrics"][m["name"]]["value"]
        unscaled = details["unscaled_metrics"][m["name"]]
        note = details["samples"].get(m["name"], "per traced sweep")
        if m["name"].endswith(COMPUTED):
            note += ", computed from shapes/results"
        if unscaled != value:
            note = f"[{unscaled:.6g}] {note}"
        print(f"  {m['name']:<36} {value:>16.6g} {m['unit']:<8} {note}")


def run_all(args):
    """Run every workload, each in its own process, and combine their results."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        print(out.stdout, end="", flush=True)
        if out.returncode != 0:
            return out.returncode
        result = json.loads(out.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "randomout" / "__init__.py").is_file():
        print(f"error: the randomout sources are missing ({ROOT / 'src' / 'randomout'})", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), declared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
