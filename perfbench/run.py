"""Benchmark runner for nomaopt: time to a certified solve, layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload multicarrier --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload multicarrier --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

The runner imports nomaopt from ``src/`` of the checkout it sits in, builds
the workload's tasks from the seed (the set-up), then runs timed passes
over the tasks in one process, each call starting after the previous one
returns, until another pass would overrun ``--seconds`` (always at least
three). Times are scaled to a reference machine speed measured around
every call. With ``--trace 1`` it alternates untraced and traced passes
and reports per-layer metrics instead of end-to-end ones. The correctness
gate runs on each pass's results after the pass. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
``--smoke`` runs every workload on tiny instances in both modes and checks
the metric names and units against BENCHMARK.json and the self-time sums.
See perfbench/README.md for the metrics and workloads.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads, so power_sweep's two
# threads do not oversubscribe the cores.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# Set-up repeats, two before each of the first untraced passes; setup_s is their median.
SETUP_SAMPLES = 7
# Untraced passes per run at least, so each task's median has three calls.
MIN_PASSES = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import nomaopt; print(time.perf_counter() - t)"


def _import_nomaopt():
    sys.path.insert(0, str(SRC))
    try:
        import nomaopt
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import nomaopt from {SRC}: {exc}")
    if Path(nomaopt.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: nomaopt was imported from {nomaopt.__file__}, not from {SRC}")


_import_nomaopt()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_pins": {v: os.environ[v] for v in PINNED},
    }


def source_digest() -> str:
    """Hash of the package and benchmark sources, which fix every result."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "nomaopt").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# Machine-speed calibration. The benchmark machine's two cores are shared, and
# their speed drifts by up to a factor of two over minutes: the same six
# multicarrier solves took 4.7 s in one run and 9.4 s in another. A fixed
# numpy pivoting loop, which uses no nomaopt code, is timed right before every
# task call (and after the last one) and before every set-up. Each of those
# times is scaled by REF_CALIBRATION_S over the calibration samples around it:
# it is the time the call would have taken at the speed where the loop takes
# REF_CALIBRATION_S. A task reports the median of its scaled calls. On two
# sets of six multicarrier seeds this kept the quartile spread of the pass
# time at 0.04 to 0.06 of its median, where the raw fastest calls spread by
# 0.06 in a quiet period and 0.25 in a drifting one.
REF_CALIBRATION_S = 0.016
_CALIBRATION_TABLEAUX = np.random.default_rng(12345).uniform(0.05, 1.0, size=(8, 16, 33))


def calibration_s() -> float:
    """Time of a fixed run of largest-coefficient pivots on small dense tableaux."""
    t0 = time.perf_counter()
    for _ in range(10):
        for T0 in _CALIBRATION_TABLEAUX:
            T = T0.copy()
            for _ in range(10):
                col = int(np.argmax(T[-1, :-1]))
                rows = np.flatnonzero(T[:-1, col] > 1e-9)
                r = int(rows[np.argmin(T[rows, -1] / T[rows, col])])
                T[r] /= T[r, col]
                for i in range(T.shape[0]):
                    if i != r and T[i, col] != 0.0:
                        T[i] -= T[i, col] * T[r]
    return time.perf_counter() - t0


def setup_once(build, seed: int, smoke: bool, samples: list):
    """Import nomaopt in a fresh interpreter and build the tasks.

    Appends the calibrated set-up time to ``samples``.
    """
    cal = calibration_s()
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)),
                           cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    t0 = time.perf_counter()
    tasks = build(seed, smoke)
    samples.append((float(probe.stdout) + time.perf_counter() - t0) * REF_CALIBRATION_S / cal)
    return tasks


class Call(NamedTuple):
    """What the report keeps of one call once its result is checked and dropped."""

    label: str
    ms: float
    error: str
    violations: list
    certified: bool
    digest: object
    info: dict


def run_pass(tasks):
    """Call every task once in order, with a calibration sample before each
    call and one after the last.

    Returns (seconds, [(ms, result, error)], [calibration seconds]).
    """
    calls, cals = [], []
    t0 = time.perf_counter()
    for task in tasks:
        cals.append(calibration_s())
        c0 = time.perf_counter()
        try:
            result, error = task.call(), ""
        except RuntimeError as exc:  # ProjectionError, SimplexError, model disagreement
            result, error = None, type(exc).__name__
        calls.append(((time.perf_counter() - c0) * 1e3, result, error))
    cals.append(calibration_s())
    return time.perf_counter() - t0, calls, cals


def checked(tasks, timed_pass):
    """Run the correctness gate on one pass, outside the timed region.

    Results are dropped here, so a run holds one pass of results at a time.
    Returns (seconds, [Call], [calibration seconds]).
    """
    seconds, calls, cals = timed_pass
    out = []
    for task, (ms, result, error) in zip(tasks, calls):
        if error:
            out.append(Call(task.label, ms, error, [], False, error, {}))
        else:
            bad = task.check(result)
            out.append(Call(task.label, ms, "", bad, not bad and task.certified(result),
                            task.digest(result), task.info(result)))
    return seconds, out, cals


def repeat_passes(pass_fns, seconds: float, min_passes: int) -> list:
    """Run passes, cycling through ``pass_fns``, until at least ``min_passes``
    are done and another would take the timed total past ``seconds``."""
    done, spent = [], 0.0
    for i in itertools.count():
        done.append((i % len(pass_fns), *pass_fns[i % len(pass_fns)]()))
        spent += done[-1][1]
        if len(done) >= min_passes and spent + done[-1][1] > seconds:
            return done


def calibrated_ms(passes) -> list[float]:
    """Each task's median over passes of its call time at the reference speed.

    A call is scaled by the mean of the calibration samples just before and
    just after it.
    """
    return [statistics.median(calls[i].ms * 2 * REF_CALIBRATION_S / (cals[i] + cals[i + 1])
                              for _, calls, cals in passes)
            for i in range(len(passes[0][1]))]


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest listed percentile with at least ten samples beyond it, else the maximum."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}", float(np.percentile(samples, p))
    return "max", max(samples)


def gate(passes):
    """Totals of the per-pass gate, and the determinism check across passes."""
    violations, failed, certified, digests = [], 0, 0, []
    for _, calls, _ in passes:
        for c in calls:
            violations += [v for v in c.violations if v not in violations]
            failed += bool(c.error or c.violations)
            certified += c.certified
        digests.append(hashlib.sha256(repr([(c.label, c.digest) for c in calls]).encode()).hexdigest())
    if len(set(digests)) > 1:
        violations.append("results differ between passes of one run")
    return violations, failed, certified, digests[0]


def check_stored_digest(key: str, digest: str) -> str | None:
    """Compare with the digest of an earlier run of the same sources and seed."""
    path = RESULTS / f"digest-{key}.json"
    src = source_digest()
    if path.exists():
        old = json.loads(path.read_text())
        if old["source"] == src and old["digest"] != digest:
            return f"results differ from an earlier run of the same sources and seed ({path.name})"
    path.write_text(json.dumps({"source": src, "digest": digest}))
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    build = WORKLOADS[workload]
    setup_samples = []
    tasks = setup_once(build, seed, smoke, setup_samples)

    def untraced_pass():
        # set-up samples are taken between the first passes, so they span the run
        if len(setup_samples) < SETUP_SAMPLES:
            setup_once(build, seed, smoke, setup_samples)
            setup_once(build, seed, smoke, setup_samples)
        return checked(tasks, run_pass(tasks))

    if trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            tracer.root("bench.setup", lambda: build(seed, smoke))
        tracer.phase = "pass"

        def traced_pass():
            with tracer.installed():
                timed = tracer.root("bench.pass", lambda: run_pass(tasks))
            return checked(tasks, timed)

        done = repeat_passes([untraced_pass, traced_pass], seconds, 2)
    else:
        done = repeat_passes([untraced_pass], seconds, MIN_PASSES)
    untraced = [p[1:] for p in done if p[0] == 0]
    traced = [p[1:] for p in done if p[0] == 1]

    violations, failed, certified, digest = gate(untraced + traced)
    mode = f"{workload}-s{seed}{'-smoke' if smoke else ''}"
    stored = check_stored_digest(mode, digest)
    if stored:
        violations.append(stored)
    attempted = len(tasks) * len(untraced + traced)

    best = calibrated_ms(untraced)
    scale = REF_CALIBRATION_S / statistics.median(c for _, _, cals in untraced for c in cals)
    tail_name, tail_ms = tail(best)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "environment": environment(), "digest": digest, "violations": violations,
        "passes": len(untraced), "traced_passes": len(traced),
        "solve_ms_tail": {"percentile": tail_name, "samples": len(best)},
        "time_scale": scale,
        "calls": [{"label": c.label, "ms": ms, "error": c.error, **c.info} for c, ms in zip(untraced[0][1], best)],
        "raw_pass_ms": [[c.ms for c in calls] for _, calls, _ in untraced],
        "raw_pass_calibration_s": [cals for _, _, cals in untraced],
        "setup_samples_s": setup_samples,
    }
    if trace:
        spans = tracer.spans
        metrics = tracing.per_layer(spans, len(traced), sum(best) / 1e3, sum(calibrated_ms(traced)) / 1e3, scale)
        main = [s for s in spans if s.phase == "pass" and s.thread == threading.get_ident()]
        report["self_time"] = {
            "identity_gap_s": tracing.self_time_identity(spans),
            "main_thread_self_s": sum(s.self_s for s in main),
            "traced_total_s": sum(s for s, _, _ in traced),
            "share_by_layer": tracing.self_share_by_layer(spans),
        }
        tracer.write_csv(RESULTS / f"trace-{mode}.csv")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "total_s": (sum(best) / 1e3, "s"),
            "solve_ms_p50": (statistics.median(best), "ms"),
            "solve_ms_tail": (tail_ms, "ms"),
            "certified_frac": (certified / attempted, "ratio"),
            "trials_per_s": (sum(t.units for t in tasks) * 1e3 / sum(best), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    report["result"] = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"{mode}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    return report


def print_report(report: dict):
    print(f"environment: {json.dumps(report['environment'])}")
    print(f"{report['workload']} seed {report['seed']}: {report['passes']} untraced and "
          f"{report['traced_passes']} traced passes of {len(report['calls'])} calls, digest {report['digest'][:16]}")
    t = report["solve_ms_tail"]
    print(f"solve_ms_tail is the {t['percentile']} of {t['samples']} call times")
    print(f"times are at the reference speed; this run's median scale was {report['time_scale']:.4f}")
    for c in report["calls"]:
        print("  " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in c.items() if v != ""))
    if "self_time" in report:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in report["self_time"]["share_by_layer"].items())
        print(f"self time by layer: {shares}")
    for v in report["violations"]:
        print(f"VIOLATION {v}")
    print(json.dumps(report["result"]))


def smoke() -> int:
    """Run every workload on tiny instances in both modes and check the output."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            report = run(workload, 0, 1.0, trace, smoke=True)
            res = report["result"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got.items()) ^ set(want.items()))}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} trace={trace}: correct={res['correct']} failed={res['failed']}")
            if trace:
                st = report["self_time"]
                if st["identity_gap_s"] > 1e-9 or abs(st["main_thread_self_s"] - st["traced_total_s"]) > 1e-3 * st["traced_total_s"] + 1e-3:
                    problems.append(f"{workload}: self times do not add up: {st}")
            print(f"smoke {workload} trace={int(trace)}: {json.dumps(res)}")
    for p in problems:
        print(f"SMOKE FAILURE {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instances; without --workload, the self-test")
    args = ap.parse_args()
    if args.workload is None:
        if args.smoke:
            return smoke()
        ap.error("--workload is required")
    print_report(run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke))
    return 0


if __name__ == "__main__":
    sys.exit(main())
