#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/parallel.h"
#include "common/telemetry/telemetry.h"
#include "conv/gemm_kernel.h"
#include "nn/models/zoo.h"

namespace perfbench {

using namespace winofault;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Model build_model(const std::string& zoo_name, int images) {
  const ZooEntry& entry = zoo_entry(zoo_name);
  ZooConfig config;
  config.dtype = DType::kInt16;
  config.width = entry.default_width;
  config.seed = kModelSeed;
  Network net = entry.build(config);
  Dataset data = make_teacher_dataset(net, images, entry.num_classes,
                                      entry.clean_accuracy, kModelSeed ^ 0xd5);
  return Model{std::move(net), std::move(data)};
}

FaultModelSpec builtin_flip() {
  const std::optional<FaultModelSpec> spec = FaultModelSpec::parse("flip@op");
  return spec.value();
}

int diverging_points(const CampaignResult& reference,
                     const CampaignResult& got) {
  if (reference.points.size() != got.points.size()) {
    return static_cast<int>(std::max(reference.points.size(), std::size_t{1}));
  }
  int bad = 0;
  for (std::size_t p = 0; p < reference.points.size(); ++p) {
    const EvalResult& a = reference.points[p];
    const EvalResult& b = got.points[p];
    bad += a.accuracy != b.accuracy || a.avg_flips != b.avg_flips ||
           a.images != b.images;
  }
  return bad;
}

void Tally::record(std::int64_t ops, std::int64_t bad,
                   const std::string& what) {
  attempted += ops;
  failed += bad;
  if (bad > 0) {
    std::fprintf(stderr, "perfbench: FAILED %lld of %lld: %s\n",
                 static_cast<long long>(bad), static_cast<long long>(ops),
                 what.c_str());
  }
}

void Tally::integrity(bool ok, const std::string& what) {
  if (ok) return;
  integrity_ok = false;
  std::fprintf(stderr, "perfbench: INTEGRITY: %s\n", what.c_str());
}

double cpu_seconds() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
                 1e-6;
  }
  return total;
}

void OpTimer::stop(OpLog* log) const {
  log->ms.push_back(ms_since(wall0));
  log->cpu_s.push_back(cpu_seconds() - cpu0);
}

void timed_loop(double seconds, OpLog* log,
                const std::function<void(OpLog*)>& op) {
  const Clock::time_point start = Clock::now();
  do {
    op(log);
  } while (seconds_since(start) < seconds);
  log->wall_s = seconds_since(start);
}

std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) {
    std::fprintf(stderr, "perfbench: cannot read the allowed CPUs\n");
    std::exit(1);
  }
  return cpus;
}

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  std::error_code ec;
  bool ok = true;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    ok = ok && sched_setaffinity(tid, sizeof(set), &set) == 0;
  }
  if (!ok || ec) {
    std::fprintf(stderr, "perfbench: cannot set the CPU affinity\n");
    std::exit(1);
  }
}

void pin_to(int cpu) { set_affinity({cpu}); }

SetupTimes time_setups(const Args& args, int reps,
                       const std::function<void()>& setup,
                       const std::function<void()>& teardown) {
  SetupTimes times;
  const std::vector<int> cpus = allowed_cpus();
  for (int r = 0; r < (args.setup_only ? reps : 1); ++r) {
    if (r > 0 && teardown) teardown();
    if (args.setup_only) {
      pin_to(cpus[static_cast<std::size_t>(r) % cpus.size()]);
    }
    const Clock::time_point start = Clock::now();
    const double cpu0 = cpu_seconds();
    setup();
    times.cpu_s.push_back(cpu_seconds() - cpu0);
    times.wall_s.push_back(seconds_since(start));
  }
  return times;
}

Json json_numbers(const std::vector<double>& values) {
  Json array = Json::array();
  for (const double v : values) array.push(Json::number(v));
  return array;
}

void put_log(Json* record, const std::string& prefix, const OpLog& ops) {
  Json kinds = Json::array();
  for (const std::string& kind : ops.kind) kinds.push(Json::str(kind));
  record->set(prefix + "ms", json_numbers(ops.ms))
      .set(prefix + "cpu_s", json_numbers(ops.cpu_s))
      .set(prefix + "inferences", json_numbers(ops.inferences))
      .set(prefix + "kind", std::move(kinds))
      .set(prefix + "ok", json_numbers(ops.ok))
      .set(prefix + "wall_s", Json::number(ops.wall_s));
}

void put_setup(Json* record, const SetupTimes& times) {
  record->set("setup.wall_s", json_numbers(times.wall_s))
      .set("setup.cpu_s", json_numbers(times.cpu_s));
}

void stamp_environment(Json* record) {
  record->set("env.nproc", Json::integer(default_thread_count()))
      .set("env.gemm_isa", Json::str(gemm_isa_name(active_gemm_isa())))
      .set("env.build_type", Json::str(PERFBENCH_BUILD_TYPE))
      .set("env.cxx_flags", Json::str(PERFBENCH_CXX_FLAGS))
      .set("env.compiler", Json::str(PERFBENCH_COMPILER));
}

double peak_rss_mb(bool include_children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  long kib = self.ru_maxrss;
  if (include_children) {
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    kib = std::max(kib, children.ru_maxrss);
  }
  return static_cast<double>(kib) / 1024.0;
}

namespace {

const telemetry::SeriesSample* find_series(
    const std::vector<telemetry::SeriesSample>& samples,
    const std::string& name, const std::string& labels) {
  for (const telemetry::SeriesSample& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

}  // namespace

std::int64_t series_value(const std::string& name, const std::string& labels) {
  const auto samples = telemetry::snapshot();
  const telemetry::SeriesSample* s = find_series(samples, name, labels);
  return s != nullptr ? s->value : 0;
}

std::int64_t series_sum(const std::string& name, const std::string& labels) {
  const auto samples = telemetry::snapshot();
  const telemetry::SeriesSample* s = find_series(samples, name, labels);
  return s != nullptr ? s->sum : 0;
}

namespace {
constexpr const char* kPoolIdle = "winofault_pool_idle_us";
}  // namespace

void PoolWindow::begin() {
  idle_us0 = series_sum(kPoolIdle);
  start = Clock::now();
}

void PoolWindow::end(Json* record) const {
  const double wall_s = seconds_since(start);
  record->set("pool.idle_us", Json::integer(series_sum(kPoolIdle) - idle_us0))
      .set("pool.wall_s", Json::number(wall_s))
      .set("pool.workers", Json::integer(default_thread_count() - 1));
}

}  // namespace perfbench
