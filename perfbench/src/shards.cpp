// The shards workload: a heterogeneous-cost VGG19 grid executed as two
// concurrent `--shard i/2` processes of this binary over one store
// directory, each on half the host's threads, then folded with
// merge_campaign_segments. The merged journal must replay the whole grid
// with zero inferences and results identical to the in-RAM run.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common.h"
#include "common/parallel.h"
#include "core/dist/merge.h"
#include "core/dist/worker_pool.h"

namespace perfbench {

using namespace winofault;

namespace {

constexpr int kImages = 8;
constexpr int kTrials = 100;
constexpr int kSetups = 15;
constexpr int kShards = 2;

// One cheap and one expensive BER per policy: about 0.3 and 10 flips per
// trial, so cost-aware bucketing matters for balance.
CampaignSpec grid_spec(std::uint64_t seed) {
  CampaignSpec spec;
  for (const double ber : {3e-9, 1e-7}) {
    for (const ConvPolicy policy :
         {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
      CampaignPoint point;
      point.fault.ber = ber;
      point.fault.model = builtin_flip();
      point.policy = policy;
      point.seed = derive_seed(seed, 30);
      point.trials = kTrials;
      point.tag = "perfbench-shards";
      spec.points.push_back(std::move(point));
    }
  }
  return spec;
}

// Each worker reports its phase times and CampaignStats to the parent as
// one Json object in this file.
std::string report_path(const std::string& store_dir, int shard) {
  return store_dir + ".worker" + std::to_string(shard) + ".json";
}

Json read_report(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return Json::parse(text.str()).value_or(Json::object());
}

}  // namespace

int shards_worker(const Args& args) {
  const Clock::time_point start = Clock::now();
  const Model model =
      build_model("vgg19", kImages);
  const double setup_s = seconds_since(start);
  CampaignSpec spec = grid_spec(args.seed);
  spec.threads = std::max(1, default_thread_count() / kShards);
  spec.store.dir = args.store_dir;
  spec.store.dist.shard_index = args.shard_index;
  spec.store.dist.shard_count = args.shard_count;
  const Clock::time_point exec_start = Clock::now();
  const CampaignResult result = run_campaign(model.net, model.data, spec);
  const double exec_s = seconds_since(exec_start);
  const CampaignStats& stats = result.stats;
  Json report = Json::object();
  report.set("setup_s", Json::number(setup_s))
      .set("exec_s", Json::number(exec_s))
      .set("buckets_stolen", Json::integer(stats.dist_buckets_stolen))
      .set("cells_healed", Json::integer(stats.dist_cells_healed))
      .set("golden_builds", Json::integer(stats.golden_builds))
      .set("golden_hits", Json::integer(stats.golden_hits))
      .set("golden_evictions", Json::integer(stats.golden_evictions));
  std::ofstream out(report_path(args.store_dir, args.shard_index));
  out << report.dump() << "\n";
  out.close();
  return out ? 0 : 1;
}

void run_shards(const Args& args, Json* record, Tally* tally) {
  Model model{Network("unbuilt", DType::kInt16), {}};
  put_setup(record, time_setups(args, kSetups, [&] {
    model = build_model("vgg19", kImages);
  }));
  if (args.setup_only) return;
  const CampaignSpec plain = grid_spec(args.seed);

  const std::string exe = self_executable_path();
  if (exe.empty()) {
    std::fprintf(stderr, "perfbench: cannot resolve own executable\n");
    std::exit(1);
  }
  std::vector<double> worker_setup_s, exec_s, merge_s, stolen, healed,
      builds, hits, evictions;
  // Replays of each merged journal, checked against the in-RAM run after
  // the timed stretches, so that run is not in the peak RSS.
  std::vector<CampaignResult> replays;
  std::vector<int> failed_workers;
  int generation = 0;
  const auto shard_op = [&](OpLog* log) {
    const std::string dir =
        args.work_dir + "/shards" + std::to_string(generation++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const OpTimer timer;
    int failed = 0;
    for (const WorkerExit& exit : spawn_local_workers(
             exe,
             {"--worker", "shards", "--seed", std::to_string(args.seed),
              "--store-dir", dir},
             kShards)) {
      failed += !exit.ok();
    }
    const Clock::time_point merge_start = Clock::now();
    merge_campaign_segments(dir);
    merge_s.push_back(seconds_since(merge_start));
    timer.stop(log);

    // The merged journal must answer the whole grid without executing.
    CampaignSpec check = plain;
    check.store.dir = dir;
    replays.push_back(run_campaign(model.net, model.data, check));
    failed_workers.push_back(failed);
    log->inferences.push_back(
        static_cast<double>(plain.points.size() * kImages * kTrials));
    log->kind.push_back("sharded");
    log->ok.push_back(0);  // set by the reference check below
    double b = 0, h = 0, e = 0, st = 0, he = 0;
    for (int shard = 0; shard < kShards; ++shard) {
      const std::string path = report_path(dir, shard);
      const Json report = read_report(path);
      const auto field = [&](const char* key) {
        const Json* value = report.find(key);
        return value != nullptr ? value->as_double() : 0.0;
      };
      worker_setup_s.push_back(field("setup_s"));
      exec_s.push_back(field("exec_s"));
      st += field("buckets_stolen");
      he += field("cells_healed");
      b += field("golden_builds");
      h += field("golden_hits");
      e += field("golden_evictions");
      std::filesystem::remove(path);
    }
    stolen.push_back(st);
    healed.push_back(he);
    builds.push_back(b);
    hits.push_back(h);
    evictions.push_back(e);
    std::filesystem::remove_all(dir);
  };

  OpLog untraced;
  timed_loop(args.trace ? args.seconds / 2 : args.seconds, &untraced,
             shard_op);
  record->set("peak_rss_mb", Json::number(peak_rss_mb(true)));
  // The workers always report their phases; the traced run adds a second
  // timed stretch and the single-process time of the same grid.
  OpLog traced;
  if (args.trace) timed_loop(args.seconds / 2, &traced, shard_op);

  const Clock::time_point single_start = Clock::now();
  const CampaignResult reference = run_campaign(model.net, model.data, plain);
  const double single_s = seconds_since(single_start);
  for (std::size_t op = 0; op < replays.size(); ++op) {
    const bool merged_ok = replays[op].stats.inferences == 0 &&
                           diverging_points(reference, replays[op]) == 0;
    OpLog& log = op < untraced.ok.size() ? untraced : traced;
    log.ok[op < untraced.ok.size() ? op : op - untraced.ok.size()] =
        merged_ok && failed_workers[op] == 0;
    tally->record(kShards, merged_ok ? failed_workers[op] : kShards,
                  "shard processes failed or the merged journal differs "
                  "from the in-RAM run");
  }
  put_log(record, "op.", untraced);
  if (!args.trace) return;

  put_log(record, "trace.op.", traced);
  record->set("trace.dist.single_s", json_numbers({single_s}))
      .set("trace.dist.worker_setup_s", json_numbers(worker_setup_s))
      .set("trace.dist.exec_s", json_numbers(exec_s))
      .set("trace.dist.merge_s", json_numbers(merge_s))
      .set("trace.dist.buckets_stolen", json_numbers(stolen))
      .set("trace.dist.cells_healed", json_numbers(healed))
      .set("trace.campaign.golden_builds", json_numbers(builds))
      .set("trace.campaign.golden_hits", json_numbers(hits))
      .set("trace.campaign.golden_evictions", json_numbers(evictions));
}

}  // namespace perfbench
