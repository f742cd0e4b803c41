// The deep workload: a replay-bound fault-injection campaign grid timed
// through run_campaign, checked against the scratch execution path, and —
// in the traced run — re-executed by a replica that calls the network's
// public golden/replay functions directly and times each call.
#include <cstdio>

#include "common.h"
#include "common/parallel.h"
#include "nn/fault_session.h"

namespace perfbench {

using namespace winofault;

namespace {

constexpr ConvPolicy kPolicies[] = {ConvPolicy::kDirect,
                                    ConvPolicy::kWinograd2};

const char* policy_name(ConvPolicy policy) {
  return policy == ConvPolicy::kDirect ? "direct" : "winograd2";
}

// VGG19 replay-bound grid. Three BERs give about 1, 10 and 100 flips per
// trial, so trials land in every replay path; 100 trials per image
// amortise each golden build.
constexpr int kImages = 4;
constexpr int kTrials = 100;
constexpr int kSetups = 15;

std::vector<CampaignPoint> grid_points(std::uint64_t seed) {
  std::vector<CampaignPoint> points;
  for (const double ber : {1e-9, 1e-8, 1e-7}) {
    for (const ConvPolicy policy : kPolicies) {
      CampaignPoint point;
      point.fault.ber = ber;
      point.fault.model = builtin_flip();
      point.policy = policy;
      point.seed = derive_seed(seed, 2);
      point.trials = kTrials;
      point.tag = "perfbench";
      points.push_back(std::move(point));
    }
  }
  return points;
}

CampaignSpec spec_of(const std::vector<CampaignPoint>& points,
                     bool reuse_golden) {
  CampaignSpec spec;
  spec.points = points;
  for (CampaignPoint& point : spec.points) point.reuse_golden = reuse_golden;
  return spec;
}

double checksum(const CampaignResult& result) {
  double sum = 0;
  for (const EvalResult& point : result.points) {
    sum += point.accuracy + point.avg_flips;
  }
  return sum;
}

// Per-call samples of one replica pass.
struct Samples {
  std::vector<double> golden_us[2];    // per policy (direct, winograd2)
  std::vector<double> golden_gops[2];  // ops of total_op_space / build time
  std::vector<double> replay_us;       // one predict_replay per trial
  std::vector<double> replay_flips;    // transient flips of that trial
  std::vector<double> plan_us;         // FaultSession::plan per trial
  double faulted = 0;                  // trials with >= 1 transient flip
  double masked = 0;    // ... whose prediction equals the golden's
  double busy_us = 0;   // summed unit wall time across pool workers
  double golden_total_us = 0;
  double replay_total_us = 0;

  void append(const Samples& o) {
    for (int p = 0; p < 2; ++p) {
      golden_us[p].insert(golden_us[p].end(), o.golden_us[p].begin(),
                          o.golden_us[p].end());
      golden_gops[p].insert(golden_gops[p].end(), o.golden_gops[p].begin(),
                            o.golden_gops[p].end());
    }
    replay_us.insert(replay_us.end(), o.replay_us.begin(), o.replay_us.end());
    replay_flips.insert(replay_flips.end(), o.replay_flips.begin(),
                        o.replay_flips.end());
    plan_us.insert(plan_us.end(), o.plan_us.begin(), o.plan_us.end());
    faulted += o.faulted;
    masked += o.masked;
    busy_us += o.busy_us;
    golden_total_us += o.golden_total_us;
    replay_total_us += o.replay_total_us;
  }
};

double us_since(Clock::time_point start) { return seconds_since(start) * 1e6; }

// Replays the grid the way the campaign defines its results — one golden
// per (image, policy), one fault stream per (point, image, trial) —
// through the network's public functions, timing every call. Goldens are
// built in one parallel pass and the (point, image) cells replayed in a
// second, so build and replay time separate cleanly. Returns the
// per-point results computed exactly as CampaignRunner does.
CampaignResult replica(const Model& model,
                       const std::vector<CampaignPoint>& points,
                       Samples* samples) {
  const Network& net = model.net;
  const Dataset& data = model.data;
  const auto images = static_cast<std::int64_t>(data.size());
  const auto n_points = static_cast<std::int64_t>(points.size());
  const int threads = default_thread_count();
  double ops[2];
  for (int pi = 0; pi < 2; ++pi) {
    ops[pi] =
        static_cast<double>(net.total_op_space(kPolicies[pi]).total_ops());
  }

  struct Task {  // per parallel_for index, merged in index order
    Samples samples;
    std::int64_t correct = 0;
    std::int64_t flips = 0;
  };
  // goldens[i * 2 + pi]: image i under kPolicies[pi].
  std::vector<GoldenCache> goldens(static_cast<std::size_t>(2 * images));
  std::vector<Task> builds(goldens.size());
  parallel_for(2 * images, threads, [&](std::int64_t u) {
    const Clock::time_point t0 = Clock::now();
    const int pi = static_cast<int>(u % 2);
    goldens[static_cast<std::size_t>(u)] = net.make_golden(
        data.images[static_cast<std::size_t>(u / 2)], kPolicies[pi]);
    const double us = us_since(t0);
    Samples& s = builds[static_cast<std::size_t>(u)].samples;
    s.golden_us[pi].push_back(us);
    s.golden_gops[pi].push_back(ops[pi] / (us * 1e3));
    s.golden_total_us = us;
    s.busy_us = us;
  });

  std::vector<Task> cells(static_cast<std::size_t>(n_points * images));
  parallel_for(n_points * images, threads, [&](std::int64_t u) {
    const Clock::time_point cell_start = Clock::now();
    const std::int64_t p = u / images;
    const std::int64_t i = u % images;
    const CampaignPoint& point = points[static_cast<std::size_t>(p)];
    const int pi = point.policy == kPolicies[0] ? 0 : 1;
    const GoldenCache& golden = goldens[static_cast<std::size_t>(i * 2 + pi)];
    const int label = data.labels[static_cast<std::size_t>(i)];
    Task& task = cells[static_cast<std::size_t>(u)];
    Samples& s = task.samples;
    for (int t = 0; t < point.trials; ++t) {
      const std::uint64_t stream = fault_stream_seed(point.seed, i, t);
      {
        FaultSession planner(point.fault, stream);
        const Clock::time_point t0 = Clock::now();
        planner.plan(net, point.policy);
        s.plan_us.push_back(us_since(t0));
      }
      FaultSession session(point.fault, stream);
      const Clock::time_point t0 = Clock::now();
      const int prediction = net.predict_replay(golden, session);
      const double us = us_since(t0);
      const std::int64_t flips = session.total_flips();
      s.replay_us.push_back(us);
      s.replay_flips.push_back(static_cast<double>(flips));
      s.replay_total_us += us;
      if (flips > 0) {
        s.faulted += 1;
        s.masked += prediction == golden.prediction();
      }
      task.correct += prediction == label;
      task.flips += flips;
    }
    s.busy_us = us_since(cell_start);
  });

  Samples total;
  for (const Task& task : builds) total.append(task.samples);
  CampaignResult result;
  result.points.resize(points.size());
  for (std::int64_t p = 0; p < n_points; ++p) {
    std::int64_t correct = 0, flips = 0;
    for (std::int64_t i = 0; i < images; ++i) {
      const Task& task = cells[static_cast<std::size_t>(p * images + i)];
      total.append(task.samples);
      correct += task.correct;
      flips += task.flips;
    }
    const double inferences =
        static_cast<double>(images) *
        static_cast<double>(points[static_cast<std::size_t>(p)].trials);
    EvalResult& r = result.points[static_cast<std::size_t>(p)];
    r.images = static_cast<int>(images);
    r.accuracy = static_cast<double>(correct) / inferences;
    r.avg_flips = static_cast<double>(flips) / inferences;
  }
  samples->append(total);
  return result;
}

}  // namespace

void run_deep(const Args& args, Json* record, Tally* tally) {
  Model model{Network("unbuilt", DType::kInt16), {}};
  const std::vector<CampaignPoint> points = grid_points(args.seed);
  put_setup(record, time_setups(args, kSetups, [&] {
    model = build_model("vgg19", kImages);
  }));
  if (args.setup_only) return;
  const CampaignSpec timed_spec = spec_of(points, true);
  const auto cells = static_cast<std::int64_t>(points.size() * kImages);

  // Results are checked after the timed stretch, so the reference run
  // neither sits between timed operations nor raises their peak RSS.
  std::vector<CampaignResult> timed_results;
  std::vector<double> builds, hits, evictions;
  const auto campaign_op = [&](OpLog* log) {
    const OpTimer timer;
    CampaignResult result = run_campaign(model.net, model.data, timed_spec);
    timer.stop(log);
    log->inferences.push_back(static_cast<double>(result.stats.inferences));
    log->kind.push_back("campaign");
    log->ok.push_back(0);  // set by the reference check below
    builds.push_back(static_cast<double>(result.stats.golden_builds));
    hits.push_back(static_cast<double>(result.stats.golden_hits));
    evictions.push_back(static_cast<double>(result.stats.golden_evictions));
    timed_results.push_back(std::move(result));
  };

  OpLog untraced;
  PoolWindow pool;
  pool.begin();
  timed_loop(args.trace ? args.seconds / 2 : args.seconds, &untraced,
             campaign_op);
  pool.end(record);
  record->set("peak_rss_mb", Json::number(peak_rss_mb(false)));

  // Reference: every point on the scratch path (reuse_golden off), which
  // shares no golden-cache or replay code with the timed path.
  const CampaignResult reference =
      run_campaign(model.net, model.data, spec_of(points, false));
  for (std::size_t op = 0; op < timed_results.size(); ++op) {
    const int diverging = diverging_points(reference, timed_results[op]);
    untraced.ok[op] = diverging == 0;
    tally->record(cells, diverging * kImages,
                  "campaign cells differ from the scratch reference");
  }
  put_log(record, "op.", untraced);
  if (!args.trace) return;

  // Traced replica: same grid, same results, every layer call timed.
  Samples samples;
  OpLog traced;
  double traced_checksum = 0;
  timed_loop(args.seconds / 2, &traced, [&](OpLog* log) {
    const OpTimer timer;
    const CampaignResult result = replica(model, points, &samples);
    timer.stop(log);
    const bool ok = diverging_points(reference, result) == 0;
    tally->integrity(ok, "traced replica differs from the reference");
    traced_checksum = checksum(result);
    log->inferences.push_back(static_cast<double>(cells * kTrials));
    log->kind.push_back("replica");
    log->ok.push_back(ok);
  });
  const double untraced_checksum = checksum(timed_results.back());
  tally->integrity(traced_checksum == untraced_checksum,
                   "traced checksum differs from the untraced run");
  std::printf("accuracy checksum: untraced %.17g traced %.17g\n",
              untraced_checksum, traced_checksum);
  put_log(record, "trace.op.", traced);
  for (int p = 0; p < 2; ++p) {
    const std::string name = policy_name(kPolicies[p]);
    record->set("trace.golden_us." + name, json_numbers(samples.golden_us[p]))
        .set("trace.golden_gops." + name,
             json_numbers(samples.golden_gops[p]));
  }
  record->set("trace.replay_us", json_numbers(samples.replay_us))
      .set("trace.replay_flips", json_numbers(samples.replay_flips))
      .set("trace.plan_us", json_numbers(samples.plan_us))
      .set("trace.faulted_trials", Json::number(samples.faulted))
      .set("trace.masked_trials", Json::number(samples.masked))
      .set("trace.busy_us", Json::number(samples.busy_us))
      .set("trace.golden_total_us", Json::number(samples.golden_total_us))
      .set("trace.replay_total_us", Json::number(samples.replay_total_us))
      .set("trace.campaign.golden_builds", json_numbers(builds))
      .set("trace.campaign.golden_hits", json_numbers(hits))
      .set("trace.campaign.golden_evictions", json_numbers(evictions));
}

}  // namespace perfbench
