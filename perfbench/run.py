#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see README.md).

    python3 perfbench/run.py --workload deep|daemon|shards \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the perfbench
binary from the checkout's sources into .bench_build/, runs the workload,
prints the environment stamp and a metric table, and prints as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exits nonzero, without a result line, when the build or
the run fails, and with the result line when a result diverged from its
reference.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170  # both processes of one run together
RAW_PREFIX = "PERFBENCH_RAW "


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    for path in (Path.cwd() / "BENCHMARK.json",
                 BENCH_DIR.parent / "BENCHMARK.json"):
        if path.is_file():
            with open(path) as f:
                return json.load(f)
    raise SystemExit("run.py: BENCHMARK.json not found")


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    jobs = str(os.cpu_count() or 1)
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").is_file():
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A cache from another source tree cannot be reused.
            shutil.rmtree(build_dir, ignore_errors=True)
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return None
    done = subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                           "--target", "perfbench"], stdout=sys.stderr)
    binary = build_dir / "perfbench"
    return binary if done.returncode == 0 and binary.is_file() else None


def run_binary(binary, args, work_dir, deadline, extra=()):
    """Runs the binary in its own process group and waits for it; returns
    (exit code or None on timeout, stdout lines)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        return proc.returncode, out.splitlines()
    except subprocess.TimeoutExpired:
        log("run.py: workload timed out")
        return None, []
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def host_cpu_ticks():
    """(steal, total) jiffies of the host's CPUs so far, from /proc/stat;
    None where it cannot be read."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def split_raw(lines):
    """The binary's raw record and its other output lines."""
    raw, rest = None, []
    for line in lines:
        if line.startswith(RAW_PREFIX):
            raw = json.loads(line[len(RAW_PREFIX):])
        else:
            rest.append(line)
    return raw, rest


def describe(raw, values, spec, section, steal):
    units = {m["name"]: m["unit"] for m in spec[section]}
    print("environment: seed=%d nproc=%d gemm_isa=%s build=%s flags='%s' "
          "compiler=%s host_steal=%s" % (
              raw["seed"], raw["env.nproc"], raw["env.gemm_isa"],
              raw["env.build_type"], raw["env.cxx_flags"], raw["env.compiler"],
              "%.1f%%" % (steal * 100) if steal is not None else "unknown"))
    n = len(raw["op.ms"])
    q = metrics.tail_quantile(n)
    print("workload %s: %d timed operations (%s), %d attempted, %d failed; "
          "highest percentile with %d samples beyond it: %s" % (
              raw["workload"], n, ",".join(sorted(set(raw["op.kind"]))),
              raw["attempted"], raw["failed"], metrics.MIN_BEYOND,
              "p%g" % (q * 100) if q else "none"))
    for name in metrics.spec_names(spec, section):
        note = ""
        if "_p50_" in name or "_p95_" in name:
            pct = 0.5 if "_p50_" in name else 0.95
            note = "  (n=%d, %d beyond)" % (n, metrics.samples_beyond(n, pct))
        print("  %-32s %16.6g %-8s%s" % (name, values[name], units[name],
                                          note))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error("unknown workload %r (have %s)" % (args.workload,
                                                        ", ".join(workloads)))

    bench_build = Path.cwd() / ".bench_build"
    started = time.monotonic()
    binary = build(bench_build / "perfbench")
    if binary is None:
        log("run.py: build failed")
        return 2
    log("run.py: build ready in %.1f s" % (time.monotonic() - started))

    # Set-up is timed several times over in a process of its own, so the
    # measuring process's peak RSS does not depend on set-up churn.
    # Relative to the checkout root, so the daemon's socket path stays short.
    work_dir = Path(".bench_build", "run", "%s-%d" % (args.workload,
                                                      os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setup_code, setup_lines = run_binary(binary, args, work_dir / "setup",
                                             deadline, ["--setup-only"])
        ticks0 = host_cpu_ticks()
        code, lines = run_binary(binary, args, work_dir / "run", deadline)
        ticks1 = host_cpu_ticks()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup_raw, _ = split_raw(setup_lines)
    raw, rest = split_raw(lines)
    for line in rest:
        print(line)
    if setup_code != 0 or setup_raw is None:
        log("run.py: set-up run failed (exit %s)" % setup_code)
        return 1
    if code not in (0, 1) or raw is None:
        log("run.py: workload failed (exit %s)" % code)
        return 1
    raw["setup.wall_s"] = setup_raw["setup.wall_s"]
    raw["setup.cpu_s"] = setup_raw["setup.cpu_s"]

    section = "per_layer" if args.trace else "end_to_end"
    values = metrics.per_layer(raw) if args.trace else metrics.end_to_end(raw)
    problems = metrics.check_names(values, spec, section)
    if problems:
        log("run.py: metrics disagree with BENCHMARK.json: " +
            "; ".join(problems))
        return 1
    # CPU time stolen from this virtual machine by its host while the
    # workload ran: wall-clock figures of runs with much steal are slow.
    steal = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    describe(raw, values, spec, section, steal)
    result = metrics.result_line(raw, spec, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and code == 0 else 1


def on_term(signum, _frame):
    # Unwinds through run_binary's cleanup, which kills the workload's
    # process group before this process exits.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_term)
    sys.exit(main())
