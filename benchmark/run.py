"""The qktw benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  For each workload the benchmark writes
the seeded inputs, measures ``setup_s`` (a fresh interpreter importing
``qktw.cli``, several times, median), then starts passes closed loop --
each pass a fresh interpreter running benchmark/worker.py over the whole
input -- until ``--seconds`` have gone by.  Every output is checked.
``setup_s`` and ``wall_s`` are scaled to a fixed machine speed
(speed.py); the summary lines give the unscaled values as well.
Summary lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  A traced run alternates untraced and traced passes and
reports their wall-time difference as ``trace.overhead_s``.

Exit codes: 0 all outputs correct, 1 an output was wrong or a pass
crashed, 2 the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH))

from inputs import make_inputs  # noqa: E402
from layers import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, LAYERS, PRINTED_ONLY, SECOND_SEED, WORKLOADS,
)
from speed import REF_NOMINAL_S, time_reference  # noqa: E402

SETUP_SAMPLES = 11
DEFAULT_SECONDS = 15
RUN_LIMIT_S = 170  # per workload: set-up and every pass
SETUP_CMD = ("-c", "import qktw.cli")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """The environment of every child interpreter: the checkout's src/ on
    the path, the default int-to-str limit, no QKTW_* settings."""
    env = {
        k: v for k, v in os.environ.items()
        if k != "PYTHONINTMAXSTRDIGITS" and not k.startswith("QKTW_")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_import(env: dict) -> float:
    # a blocking wait: Popen.wait(timeout) polls with sleeps of up to
    # 50 ms, which would quantize the measurement; a timer kills a hang
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *SETUP_CMD], env=env)
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise BenchError(f"importing qktw.cli exited {rc}")
    return elapsed


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled import times.  The benchmark pins itself to
    one CPU meanwhile, so each import (a child inherits the pinning) runs
    on the CPU whose speed the reference timings around it measure."""
    pin = hasattr(os, "sched_setaffinity")
    if pin:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    try:
        timed_import(env)  # fills __pycache__
        raw, scaled = [], []
        for _ in range(SETUP_SAMPLES):
            before = time_reference()
            elapsed = timed_import(env)
            after = time_reference()
            raw.append(elapsed)
            scaled.append(elapsed * REF_NOMINAL_S * 2 / (before + after))
    finally:
        if pin:
            os.sched_setaffinity(0, cpus)
    return raw, scaled


def run_pass(manifest: Path, pass_dir: Path, traced: bool, env: dict, timeout: float) -> dict:
    result = pass_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(manifest), str(pass_dir),
           str(result), "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(result.read_text())
    if Path(out["qktw_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"qktw was imported from {out['qktw_file']}, not from {SRC}")
    out["traced"] = traced
    return out


def percentile_with_tail(samples: list[float], pct: float) -> float | None:
    """The pct-th percentile when at least ten samples lie beyond it."""
    ordered = sorted(samples)
    idx = int(len(ordered) * pct / 100)
    return ordered[idx] if len(ordered) - idx - 1 >= 10 else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=STATE))
    env = child_env()
    try:
        manifest = make_inputs(workload, seed, work)
        setup = measure_setup(env)
        passes: list[dict] = []
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            remaining = deadline - time.perf_counter()
            if remaining < 1:
                raise BenchError("run time limit reached before the first pass")
            passes.append(run_pass(manifest, work / f"pass-{len(passes)}", traced, env, remaining))
            elapsed = time.perf_counter() - start
            longest = max(p["wall_s"] for p in passes) * 1.5 + 2
            if elapsed >= seconds and (not trace or len(passes) >= 2):
                break
            if time.perf_counter() + longest > deadline:
                if trace and len(passes) < 2:
                    raise BenchError("no time left for a traced pass")
                break
        if trace:
            traces = STATE / "traces"
            traces.mkdir(exist_ok=True)
            for i, p in enumerate(passes):
                if p["traced"]:
                    kept = traces / f"{workload}-seed{seed}-pass{i}.json"
                    shutil.move(p["spans_file"], kept)
                    p["spans_file"] = str(kept)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, trace, setup, passes)


def summarize(workload: str, seed: int, trace: bool, setup: tuple, passes: list[dict]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    walls = [p["wall_s"] for p in plain]
    latencies = [x for p in plain for x in p["latencies_s"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    digests = {p["digest"] for p in passes}
    p99 = percentile_with_tail(latencies, 99)
    if len(digests) != 1:
        problems.append(f"outputs differ between passes over the same inputs: {sorted(digests)}")
    summary = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "correct": not problems and all(p["problem_count"] == 0 for p in passes),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "digest": passes[0]["digest"],
        "first": passes[0],
        "e2e": {
            "setup_s": statistics.median(setup[1]),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(p["rss_kib"] for p in plain) / 1024,
        },
        "raw": {
            "setup_s": statistics.median(setup[0]),
            "wall_s": statistics.median(p["wall_raw_s"] for p in plain),
        },
        "samples": {"setup_s": len(setup[0]), "wall_s": len(walls), "peak_rss_mb": len(plain)},
        "wall_max_s": max(walls),
        "failed_frac": failed / attempted,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p99_ms": p99 * 1e3 if p99 is not None else None,
        "latency_count": len(latencies),
    }
    if trace:
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - summary["e2e"]["wall_s"]
        summary["layers"] = layers
        summary["spans_files"] = [p["spans_file"] for p in traced]
        summary["missing_bindings"] = traced[0]["missing_bindings"]
    return summary


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_summary(s: dict) -> None:
    w = s["workload"]
    first = s["first"]
    provenance = {
        "python": first["python"],
        "nproc": os.cpu_count(),
        "qktw_version": first["qktw_version"],
        "git_commit": git_commit(),
        "seed": s["seed"],
        "trace": int("layers" in s),
        "int_max_str_digits_at_start": first["int_max_str_digits_at_start"],
        "int_max_str_digits_at_end": first["int_max_str_digits_at_end"],
        "passes": s["passes"],
    }
    print(f"{w} provenance {json.dumps(provenance, sort_keys=True)}")
    for name, value in s["e2e"].items():
        unit = END_TO_END[name][0]
        raw = f", unscaled {s['raw'][name]:.6g} {unit}" if name in s["raw"] else ""
        print(f"{w} {name} {value:.6g} {unit} (median of {s['samples'][name]}{raw})")
    print(f"{w} wall_s max {s['wall_max_s']:.6g} s")
    print(f"{w} failed_frac {s['failed_frac']:.6g} {PRINTED_ONLY['failed_frac']} "
          f"({s['failed']} of {s['attempted']} operations)")
    if w == "formula-sweep":
        p99 = s["latency_p99_ms"]
        print(f"{w} verdict_p50_ms {s['latency_p50_ms']:.6g} ms (n={s['latency_count']})")
        print(f"{w} verdict_p99_ms " + (f"{p99:.6g} ms" if p99 is not None else "n/a")
              + f" (n={s['latency_count']})")
    else:
        print(f"{w} op_p50_ms {s['latency_p50_ms']:.6g} ms (n={s['latency_count']})")
    print(f"{w} output_digest {s['digest']}")
    if "layers" in s:
        for name in s["missing_bindings"]:
            print(f"{w} trace warning: binding {name} not found")
        print(f"{w} trace.overhead_s {s['layers']['trace.overhead_s']:.6g} s")
        print(f"{w} spans {' '.join(s['spans_files'])}")
    for msg in s["problems"]:
        print(f"{w} PROBLEM {msg}")


def metrics_of(s: dict) -> dict:
    if "layers" in s:
        return {name: {"value": s["layers"][name], "unit": unit} for name, unit, _b, _m in LAYERS}
    return {name: {"value": s["e2e"][name], "unit": unit} for name, (unit, _b, _bound) in END_TO_END.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; {SECOND_SEED} is kept for re-checking claims)",
    )
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qktw" / "__init__.py").is_file():
        print(f"error: no qktw sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            deadline = time.perf_counter() + RUN_LIMIT_S
            summaries.append(run_workload(name, args.seed, args.seconds, bool(args.trace), deadline))
            print_summary(summaries[-1])
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        metrics = metrics_of(summaries[0])
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in metrics_of(s).items()}
    correct = all(s["correct"] for s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
