#!/usr/bin/env python3
"""Repository benchmark: builds the engine and the benchmark binary from
source, runs one workload, checks its outputs and prints the result.

    python3 perfbench/run.py --workload ramp_overload --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones (the profiler
on, plus the layer replay). The traced run also prints the benchmark's
spans and has the binary write `.bench_build/perfbench/BENCH_<workload>_traced.json`
(bench/harness.h schema) with the profiler's `host_phase_us`. See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "cwf_perfbench"
REFERENCES = HERE / "references.json"

WORKLOADS = ("ramp_overload", "steady_soak", "live_tcp")
VIRTUAL_WORKLOADS = ("ramp_overload", "steady_soak")

# End-to-end metrics (--trace 0): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "reports_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PROFILE_PHASES = (
    "scheduler_dispatch", "receiver_put", "receiver_get", "prefire", "fire",
    "postfire", "wave_open", "wave_close", "allocation", "blocked",
    "serialization",
)

# Per-layer metrics (--trace 1): name -> unit.
PER_LAYER = {
    "lrb.build_ms": "ms",
    "directors.initialize_ms": "ms",
    "directors.run_s": "s",
    "directors.wrapup_ms": "ms",
    "directors.firings": "count",
    "directors.host_us_per_firing": "us",
    "directors.idle_cpu_pct": "%",
    "stafilos.director_iterations": "count",
    "window.put_ns": "ns",
    "window.groups": "count",
    "window.pending_events": "count",
    "db.upsert_ns": "ns",
    "db.lookup_ns": "ns",
    "db.rows": "count",
    "stream.push_batch_ns": "ns",
    "stream.feed_pending_max": "count",
    "net.decode_ns": "ns",
    "net.send_lag_p99_ms": "ms",
    "net.backpressure_pauses": "count",
    **{f"profile.{phase}_share": "%" for phase in PROFILE_PHASES},
    "profile.coverage_pct": "%",
    "obs.profile_overhead_pct": "%",
    "rss_growth_kb_per_kreport": "KB/kreport",
}

# Seconds one workload's benchmark binary may take once the build is done
# (a run must end within 180 s).
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the binary; a no-op when up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"engine sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(BUILD_DIR), "-j", jobs])


def run_build_step(command):
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if done.returncode != 0:
        log(done.stdout)
        raise BenchError(f"build step failed: {' '.join(command)}")


def traced_bench_path(workload):
    return BUILD_DIR / f"BENCH_{workload}_traced.json"


def run_binary(workload, seed, seconds, trace, timeout):
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        command += ["--bench-json", str(traced_bench_path(workload))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: benchmark binary exceeded {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(done.stderr)
        raise BenchError(f"{workload}: benchmark binary printed nothing (exit {done.returncode})")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        log(done.stderr)
        raise BenchError(f"{workload}: benchmark binary output is not JSON (exit {done.returncode})") from exc
    if report.get("error"):
        log(done.stderr)
        raise BenchError(f"{workload}: {report['error']}")
    if done.returncode != 0:
        log(done.stderr)
        raise BenchError(f"{workload}: benchmark binary exited with {done.returncode}")
    return report


def load_references():
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text())
    return {}


def check_outputs(workload, seed, report, use_reference=True):
    """Returns the list of problems found in the run's outputs."""
    outputs = report["outputs"]
    problems = []
    if not outputs:
        return ["no outputs"]
    if workload in VIRTUAL_WORKLOADS:
        first = outputs[0]
        if len(outputs) < 2:
            problems.append("fewer than two repetitions to compare")
        for index, rep in enumerate(outputs[1:], start=1):
            if rep != first:
                problems.append(f"repetition {index} differs from repetition 0: {rep} vs {first}")
        if first["toll_notifications"] > first["tolls_calculated"]:
            problems.append("more toll notifications than tolls calculated")
        if first["accidents_recorded"] > report["info"]["accidents_injected"]:
            problems.append("more accidents recorded than injected")
        if first["toll_notifications"] == 0:
            problems.append("no toll notifications")
        reference = load_references().get(workload, {}).get(str(seed))
        if use_reference and reference is not None and reference != first:
            problems.append(f"outputs differ from the committed reference: {first} vs {reference}")
    else:
        for live in outputs:
            if live["sender_ok"] != 1:
                problems.append("the sender could not deliver every frame")
            if live["received"] != live["sent"]:
                problems.append(f"received {live['received']} of {live['sent']} tuples")
            if live["rejected"] != 0:
                problems.append(f"{live['rejected']} tuples rejected")
            if live["toll_notifications"] == 0:
                problems.append("no toll notifications")
    return problems


def select_metrics(report, trace):
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        value = report["metrics"].get(name)
        if value is None:
            raise BenchError(f"metric {name} missing from the benchmark binary's report")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def run_workload(workload, seed, seconds, trace, deadline, record=False):
    """Runs and checks one workload; prints its table. Returns (line, ok)."""
    report = run_binary(workload, seed, seconds, trace, timeout=deadline - time.monotonic())
    problems = check_outputs(workload, seed, report, use_reference=not record)
    metrics = select_metrics(report, trace)
    print(f"== {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    info = report["info"]
    if workload == "live_tcp":
        print(f"  toll latency, wall clock: p50 {info['toll_p50_ms']:.3f} ms, "
              f"p99 {info['toll_p99_ms']:.3f} ms over {int(info['toll_samples'])} samples; "
              f"sender lag p99 {info['send_lag_p99_ms']:.3f} ms")
    else:
        print(f"  {int(info['reports'])} reports x {int(info['repetitions'])} repetitions")
    if trace:
        for span in report["spans"]:
            print(f"  span {span['parent'] + '/' if span['parent'] else ''}{span['name']}: "
                  f"{span['start_s']:.6f} .. {span['end_s']:.6f} s")
        print(f"  host_phase_us {json.dumps(report['host_phase_us'])}")
        print(f"  wrote {traced_bench_path(workload).relative_to(ROOT)}")
    for problem in problems:
        print(f"  OUTPUT MISMATCH: {problem}")
    correct = not problems
    failed = report["failed"] if correct else max(report["failed"], report["attempted"])
    if record and correct and workload in VIRTUAL_WORKLOADS:
        references = load_references()
        references.setdefault(workload, {})[str(seed)] = report["outputs"][0]
        REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        print(f"  recorded the reference outputs of seed {seed}")
    return result_line(correct, report["attempted"], failed, metrics), correct


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's simulated outputs as its reference")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        build()
        started = time.monotonic()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        lines = []
        all_correct = True
        for workload in workloads:
            line, correct = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                         deadline=started + RUN_LIMIT_S * len(workloads),
                                         record=args.record)
            lines.append(line)
            all_correct &= correct
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 1
    if len(lines) == 1:
        print(lines[0])
    else:
        print(json.dumps({w: json.loads(l) for w, l in zip(workloads, lines)}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
