// Shared plumbing of the perfbench binary: arguments, clocks, model set-up,
// result comparison, failure accounting and the raw-measurement record the
// binary prints for run.py (which turns it into the named metrics).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/campaign/campaign.h"
#include "core/service/protocol.h"
#include "nn/dataset.h"
#include "nn/network.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  // Only time the set-up, `reps` times over (see time_setups).
  bool setup_only = false;
  std::string work_dir = ".bench_build/run";
  // Shard worker mode (the shards workload re-executes this binary).
  std::string worker;  // workload the worker serves; empty = not a worker
  std::string store_dir;
  int shard_index = 0;
  int shard_count = 0;
};

// The network and its images are fixed across seeds, so every seed
// measures the same model on the same inputs; the seed draws every fault
// stream and the daemon's submission stream.
constexpr std::uint64_t kModelSeed = 2024;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double ms_since(Clock::time_point start) {
  return seconds_since(start) * 1e3;
}

// Distinct 64-bit values derived from the workload seed (SplitMix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

struct Model {
  winofault::Network net;
  winofault::Dataset data;
};

// Zoo network at int16 plus its teacher-labelled dataset, both seeded by
// kModelSeed: the recipe of the daemon's env builder for that seed.
Model build_model(const std::string& zoo_name, int images);

// The built-in operation-level bit flip, named explicitly so the process
// default (WINOFAULT_FAULT_MODEL) cannot change what is measured.
winofault::FaultModelSpec builtin_flip();

// Number of points whose accuracy, avg_flips or image count differ.
int diverging_points(const winofault::CampaignResult& reference,
                     const winofault::CampaignResult& got);

// Operations attempted and failed; every failure is reported on stderr.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool integrity_ok = true;  // non-operation checks (traced checksums)
  void record(std::int64_t ops, std::int64_t bad, const std::string& what);
  void integrity(bool ok, const std::string& what);
};

// Per-operation samples of one timed stretch. An op may log several
// samples (the daemon logs one per submission).
struct OpLog {
  std::vector<double> ms;
  std::vector<double> cpu_s;  // cpu_seconds() over the same span as ms
  std::vector<double> inferences;
  std::vector<std::string> kind;
  std::vector<double> ok;  // 1 when the op's results matched the reference
  double wall_s = 0;
};

// CPU seconds consumed by this process and its waited-for children.
double cpu_seconds();

// Wall and CPU clocks of one operation, started together on construction
// and read together by stop(), which appends one sample to `log`.
struct OpTimer {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = cpu_seconds();
  void stop(OpLog* log) const;
};

// Repeats `op` until `seconds` have passed (at least once); the stretch
// ends when the last op ends.
void timed_loop(double seconds, OpLog* log,
                const std::function<void(OpLog*)>& op);

// The CPUs this process may run on; exits when it cannot read them.
std::vector<int> allowed_cpus();
// Pins every thread of this process, and so every thread they start
// later, to `cpu`; exits when it cannot.
void pin_to(int cpu);
// Gives every thread of this process the CPUs `cpus`; exits when it cannot.
void set_affinity(const std::vector<int>& cpus);

// Wall and CPU time of each set-up run. The set-up runs `reps` times in a
// --setup-only process and once otherwise: repeated set-ups churn the heap,
// and the measuring process's peak RSS must not depend on that churn.
// Each timed set-up runs on one CPU, the allowed CPUs in turn, for the
// reason the daemon's loop does (see run_daemon): threads that keep waking
// idle virtual CPUs time the host's load more than the set-up's work.
// `teardown`, when given, undoes a set-up before the next one, untimed.
struct SetupTimes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};
SetupTimes time_setups(const Args& args, int reps,
                       const std::function<void()>& setup,
                       const std::function<void()>& teardown = nullptr);

// The raw record the binary prints is one Json object; these add the
// benchmark's value shapes to it.
using winofault::Json;
Json json_numbers(const std::vector<double>& values);
void put_log(Json* record, const std::string& prefix, const OpLog& ops);
void put_setup(Json* record, const SetupTimes& times);

// Environment stamp: nproc, GEMM ISA, build type and flags.
void stamp_environment(Json* record);
double peak_rss_mb(bool include_children);

// Parked time of the program's thread pool workers over a stretch, from
// the exported winofault_pool_idle_us histogram (a worker records each
// parked interval when it wakes): begin() right before the stretch, end()
// right after it.
struct PoolWindow {
  std::int64_t idle_us0 = 0;
  Clock::time_point start;
  void begin();
  void end(Json* record) const;
};

// Reads one telemetry series the program exports (value, or histogram
// count) and its histogram sum; 0 when the series is not registered yet.
std::int64_t series_value(const std::string& name,
                          const std::string& labels = "");
std::int64_t series_sum(const std::string& name,
                        const std::string& labels = "");

// Workloads. Each fills `record` and `tally`.
void run_deep(const Args& args, Json* record, Tally* tally);
void run_daemon(const Args& args, Json* record, Tally* tally);
void run_shards(const Args& args, Json* record, Tally* tally);
// Shard worker entry point; returns the process exit code.
int shards_worker(const Args& args);

}  // namespace perfbench
