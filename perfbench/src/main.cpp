// perfbench: runs one benchmark workload and prints its raw measurements
// as one JSON line prefixed "PERFBENCH_RAW ". run.py builds this binary,
// runs it and turns the record into the named metrics of BENCHMARK.json.
//
//   perfbench --workload deep|daemon|shards --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--setup-only]
//
// Exit status: 0 when every result matched its reference, 1 otherwise,
// 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "deep|daemon|shards --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--setup-only]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || args.seconds <= 0) {
        usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--worker") {
      args.worker = value;
    } else if (flag == "--store-dir") {
      args.store_dir = value;
    } else if (flag == "--shard") {
      if (std::sscanf(value.c_str(), "%d/%d", &args.shard_index,
                      &args.shard_count) != 2 ||
          args.shard_count < 1 || args.shard_index < 0 ||
          args.shard_index >= args.shard_count) {
        usage("--shard takes i/N");
      }
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  if (!args.worker.empty()) {
    if (args.worker != "shards" || args.store_dir.empty() ||
        args.shard_count < 2) {
      usage("--worker shards needs --store-dir and --shard i/N");
    }
    return perfbench::shards_worker(args);
  }

  using Runner = void (*)(const perfbench::Args&, winofault::Json*,
                          perfbench::Tally*);
  Runner runner = nullptr;
  if (args.workload == "deep") runner = perfbench::run_deep;
  if (args.workload == "daemon") runner = perfbench::run_daemon;
  if (args.workload == "shards") runner = perfbench::run_shards;
  if (runner == nullptr) usage("unknown --workload");

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) usage(("cannot create work dir " + args.work_dir).c_str());

  using winofault::Json;
  Json record = Json::object();
  perfbench::Tally tally;
  record.set("workload", Json::str(args.workload))
      .set("seed", Json::unsigned_integer(args.seed))
      .set("trace", Json::integer(args.trace));
  perfbench::stamp_environment(&record);
  runner(args, &record, &tally);
  const bool correct = tally.failed == 0 && tally.integrity_ok;
  record.set("attempted", Json::integer(tally.attempted))
      .set("failed", Json::integer(tally.failed))
      .set("correct", Json::boolean(correct));
  std::printf("PERFBENCH_RAW %s\n", record.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
