// The daemon workload: an in-process ServiceServer (default ServerOptions,
// one store directory) driven in a closed loop by one client connection
// that submits the TMR planner's accuracy checks on VGG19. Each timed
// operation is one planning run that is killed halfway and resumed: the
// checks before the kill execute on warm goldens and append to the journal
// (fresh); the resumed plan re-issues them and they are served from the
// journal (stored); then it runs its remaining checks fresh. Every
// submission is checked against an in-process run of its spec.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "common.h"
#include "common/parallel.h"
#include "core/analysis/layer_vulnerability.h"
#include "core/protect/tmr_planner.h"
#include "core/service/client.h"
#include "core/service/server.h"
#include "core/store/hash.h"

namespace perfbench {

using namespace winofault;

namespace {

constexpr int kImages = 10;
constexpr int kSetups = 6;
constexpr double kBer = 3e-8;
// TmrPlanOptions::max_iterations of every plan. The accuracy goal is out
// of reach, so a plan issues exactly this many checks plus its first.
constexpr int kPlanIterations = 24;
constexpr double kUnreachableGoal = 2.0;
// Checks a plan completes before it is killed and resumed.
constexpr int kKilledAfter = (kPlanIterations + 1) / 2;
// TmrPlanOptions::threads of every plan: a check runs inline on the
// server's executor, and the timed closed loop runs on one CPU (see
// run_daemon).
constexpr int kCheckThreads = 1;

const char* const kQueueHist = "winofault_service_queue_latency_us";

// Options of plan k: one analysis policy and one seed per plan, as
// plan_tmr takes them; policies alternate between plans.
TmrPlanOptions plan_options(std::uint64_t seed, int k) {
  TmrPlanOptions options;
  options.ber = kBer;
  options.accuracy_goal = kUnreachableGoal;
  options.analysis_policy =
      k % 2 == 0 ? ConvPolicy::kDirect : ConvPolicy::kWinograd2;
  options.max_iterations = kPlanIterations;
  options.seed = derive_seed(seed, 40 + static_cast<std::uint64_t>(k));
  options.threads = kCheckThreads;
  return options;
}

// The accuracy checks plan_tmr issues for `options` when no check meets
// the goal: the spec evaluate_with_protection builds for each step of the
// planner's protection loop (muls of the most vulnerable layers first,
// then adds, step_fraction per iteration).
std::vector<CampaignSpec> plan_checks(const TmrPlanOptions& options,
                                      const std::vector<int>& order,
                                      const std::string& store_dir) {
  std::vector<CampaignSpec> checks;
  std::unordered_map<int, ProtectionSet> protection;
  const auto check = [&] {
    CampaignPoint point;
    point.fault.ber = options.ber;
    point.fault.model = builtin_flip();
    point.fault.protection = protection;
    point.policy = options.analysis_policy;
    point.seed = options.seed;
    point.tag = "tmr-check";
    CampaignSpec spec;
    spec.points.push_back(std::move(point));
    spec.threads = options.threads;
    spec.store.dir = store_dir;
    checks.push_back(std::move(spec));
  };
  check();
  int iterations = 0;
  for (const OpKind kind : {OpKind::kMul, OpKind::kAdd}) {
    for (const int layer : order) {
      while (iterations < options.max_iterations) {
        ProtectionSet& set = protection[layer];
        const double current = kind == OpKind::kMul ? set.mul_fraction()
                                                    : set.add_fraction();
        if (current >= 1.0) break;
        const double next = std::min(1.0, current + options.step_fraction);
        if (kind == OpKind::kMul) {
          set.set_mul_fraction(next);
        } else {
          set.set_add_fraction(next);
        }
        ++iterations;
        check();
      }
    }
  }
  return checks;
}

// Warm-up spec: builds every (image, policy) golden of the session.
CampaignSpec warm_spec(std::uint64_t seed, const std::string& store_dir) {
  CampaignSpec spec;
  for (const ConvPolicy policy :
       {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
    CampaignPoint point;
    point.fault.ber = 1e-9;
    point.fault.model = builtin_flip();
    point.policy = policy;
    point.seed = derive_seed(seed, 21);
    point.tag = "perfbench-warm";
    spec.points.push_back(std::move(point));
  }
  spec.store.dir = store_dir;
  return spec;
}

struct Daemon {
  std::unique_ptr<ServiceServer> server;
  ServiceClient client;
  std::string socket;
  std::string store_dir;
};

struct Submission {
  std::size_t spec = 0;  // index into the distinct specs
  bool repeat = false;
  bool ok = false;
  CampaignResult result;
};

// Runs the given specs in order, in-process on one runner with a warm
// golden LRU and `threads` threads each, with the store (`store_dir` set)
// or without; latencies go to `ms`.
std::vector<CampaignResult> run_in_process(
    const CampaignRunner& runner, GoldenLru& lru,
    const std::vector<CampaignSpec>& specs,
    const std::vector<std::size_t>& order, const std::string& store_dir,
    int threads, std::vector<double>* ms) {
  std::vector<CampaignResult> results;
  for (const std::size_t index : order) {
    CampaignSpec spec = specs[index];
    spec.threads = threads;
    spec.store = StoreOptions{};
    spec.store.dir = store_dir;
    spec.store.reuse_handles = !store_dir.empty();
    spec.warm_goldens = &lru;
    const Clock::time_point start = Clock::now();
    results.push_back(runner.run(spec));
    ms->push_back(ms_since(start));
  }
  return results;
}

// True when plan_tmr, run in-process on a store of its own, journals
// exactly the checks plan_checks derives: each of them then replays from
// that journal without executing, and the planner took every iteration.
// `store_dir` must be new: the planner caches open store handles by path.
bool stream_is_the_planners(const Model& model, const TmrPlanOptions& base,
                            const std::vector<int>& order,
                            const std::string& store_dir) {
  TmrPlanOptions options = base;
  options.layer_order = &order;
  options.store.dir = store_dir;
  const TmrPlan plan = plan_tmr(model.net, model.data, options);
  bool ok = plan.iterations == kPlanIterations && !plan.goal_met;
  const CampaignRunner runner(model.net, model.data);
  for (const CampaignSpec& check : plan_checks(base, order, store_dir)) {
    ok = ok && runner.run(check).stats.inferences == 0;
  }
  std::filesystem::remove_all(store_dir);
  return ok;
}

}  // namespace

void run_daemon(const Args& args, Json* record, Tally* tally) {
  Model model{Network("unbuilt", DType::kInt16), {}};
  ModelEnv env;
  env.model = "vgg19";
  env.dtype = DType::kInt16;
  env.images = kImages;
  env.seed = kModelSeed;
  Daemon daemon;
  int generation = 0;
  // Set-up: the model the client checks against, a fresh server, and the
  // first warm session (daemon-side model build plus every golden).
  const auto setup = [&] {
    model = build_model("vgg19", kImages);
    env.env_hash = campaign_env_hash(model.net, model.data);
    const std::string tag = std::to_string(generation++);
    daemon.store_dir = args.work_dir + "/store" + tag;
    std::filesystem::remove_all(daemon.store_dir);
    daemon.socket = args.work_dir + "/d" + tag + ".sock";
    ServerOptions options;
    options.socket_path = daemon.socket;
    daemon.server = std::make_unique<ServiceServer>(options);
    std::string error;
    if (!daemon.server->start(&error) ||
        !daemon.client.connect(daemon.socket, &error)) {
      std::fprintf(stderr, "perfbench: daemon start failed: %s\n",
                   error.c_str());
      std::exit(1);
    }
    const auto warm = daemon.client.submit_and_wait(
        "perfbench", env, warm_spec(args.seed, daemon.store_dir));
    if (!warm.ok) {
      std::fprintf(stderr, "perfbench: warm-up failed: %s\n",
                   warm.error.c_str());
      std::exit(1);
    }
  };
  const auto teardown = [&] {
    daemon.client.close();
    daemon.server.reset();  // drains and joins every server thread
  };
  put_setup(record, time_setups(args, kSetups, setup, teardown));
  if (args.setup_only) return;

  // The planner's layer ranking, measured once per policy as the paper's
  // protocol does (TmrPlanOptions::layer_order), before anything is timed.
  std::vector<int> orders[2];
  for (int p = 0; p < 2; ++p) {
    LayerwiseOptions lw;
    lw.ber = kBer;
    lw.policy = plan_options(args.seed, p).analysis_policy;
    lw.model = builtin_flip();
    lw.seed = derive_seed(args.seed, 39);
    orders[p] = vulnerability_order(layer_vulnerability(model.net,
                                                        model.data, lw));
  }

  std::vector<CampaignSpec> specs;  // every distinct check, in plan order
  std::vector<Submission> subs;
  CampaignStats daemon_stats;
  int plans = 0;
  const auto submit = [&](OpLog* log, std::size_t index, bool repeat) {
    Submission sub;
    sub.spec = index;
    sub.repeat = repeat;
    const OpTimer timer;
    auto outcome =
        daemon.client.submit_and_wait("perfbench", env, specs[index]);
    timer.stop(log);
    sub.ok = outcome.ok && outcome.state == "done";
    if (!sub.ok) {
      std::fprintf(stderr, "perfbench: submission failed: %s\n",
                   outcome.error.c_str());
      std::string error;
      daemon.client.close();
      daemon.client.connect(daemon.socket, &error);
    }
    sub.result = std::move(outcome.result);
    daemon_stats.golden_builds += sub.result.stats.golden_builds;
    daemon_stats.golden_hits += sub.result.stats.golden_hits;
    daemon_stats.golden_evictions += sub.result.stats.golden_evictions;
    log->inferences.push_back(static_cast<double>(sub.result.stats.inferences));
    log->kind.push_back(repeat ? "stored" : "fresh");
    log->ok.push_back(sub.ok);  // the reference check below may clear it
    subs.push_back(std::move(sub));
  };
  // One client waits on one server, so the closed loop is serial. Pinned
  // to one CPU, each hand-off between client, server and executor runs
  // where the waker blocks, and that CPU never idles: the latency follows
  // the loop's own work, not how fast a shared host wakes an idle virtual
  // CPU, which varies with the host's load by more than the bounds. Plans
  // take the allowed CPUs in turn, so a run spreads over all of them as
  // the other workloads' threads do.
  const std::vector<int> cpus = allowed_cpus();
  // One operation: a planning run killed after kKilledAfter checks, then
  // resumed. Whole plans keep the fresh and stored shares fixed.
  const auto plan_op = [&](OpLog* log) {
    const int k = plans++;
    pin_to(cpus[static_cast<std::size_t>(k) % cpus.size()]);
    const std::size_t first = specs.size();
    for (CampaignSpec& check : plan_checks(plan_options(args.seed, k),
                                           orders[k % 2], daemon.store_dir)) {
      specs.push_back(std::move(check));
    }
    const std::size_t killed = first + kKilledAfter;
    for (std::size_t j = first; j < killed; ++j) submit(log, j, false);
    for (std::size_t j = first; j < killed; ++j) submit(log, j, true);
    for (std::size_t j = killed; j < specs.size(); ++j) submit(log, j, false);
  };

  OpLog untraced;
  timed_loop(args.trace ? args.seconds / 2 : args.seconds, &untraced,
             plan_op);
  record->set("peak_rss_mb", Json::number(peak_rss_mb(false)));

  OpLog traced;
  const std::size_t traced_from = subs.size();
  const std::int64_t queue_count0 = series_value(kQueueHist);
  const std::int64_t queue_sum0 = series_sum(kQueueHist);
  if (args.trace) {
    daemon_stats = CampaignStats{};
    timed_loop(args.seconds / 2, &traced, plan_op);
  }
  const std::int64_t queue_count = series_value(kQueueHist) - queue_count0;
  const std::int64_t queue_sum = series_sum(kQueueHist) - queue_sum0;
  // The untraced run's reference may take every CPU. The traced run times
  // the stream in-process too, so it stays on the loop's last CPU and its
  // in-process latencies compare with the daemon's.
  if (!args.trace) set_affinity(cpus);

  // Reference: every distinct spec run once in-process without the store,
  // on every thread; the traced run reports its latencies, so there it
  // runs as the daemon's checks do.
  const CampaignRunner runner(model.net, model.data);
  GoldenLru lru(2 * kImages + default_thread_count());
  CampaignSpec warm = warm_spec(args.seed, "");
  warm.warm_goldens = &lru;
  runner.run(warm);
  std::vector<std::size_t> distinct(specs.size());
  for (std::size_t j = 0; j < distinct.size(); ++j) distinct[j] = j;
  std::vector<double> plain_ms;
  const std::vector<CampaignResult> reference =
      run_in_process(runner, lru, specs, distinct, "",
                     args.trace ? kCheckThreads : 0, &plain_ms);
  std::int64_t bad = 0;
  for (std::size_t k = 0; k < subs.size(); ++k) {
    const bool ok = subs[k].ok &&
                    diverging_points(reference[subs[k].spec],
                                     subs[k].result) == 0;
    bad += !ok;
    OpLog& log = k < traced_from ? untraced : traced;
    log.ok[k < traced_from ? k : k - traced_from] = ok;
  }
  tally->record(static_cast<std::int64_t>(subs.size()), bad,
                "daemon submissions differ from the in-process run");
  // The stream must be the planner's own: plan_tmr journals the same
  // checks for the first plan of each policy.
  for (int k = 0; k < 2; ++k) {
    tally->integrity(
        stream_is_the_planners(model, plan_options(args.seed, k), orders[k],
                               args.work_dir + "/store-planner" +
                                   std::to_string(k)),
        "the submitted checks differ from plan_tmr's");
  }
  put_log(record, "op.", untraced);
  if (!args.trace) return;

  // Traced: the same stream in-process with the store, to split the
  // daemon's latency into store and service shares.
  const std::string replay_store = args.work_dir + "/store-inproc";
  std::filesystem::remove_all(replay_store);
  std::vector<std::size_t> sequence;
  Json kinds = Json::array();
  for (const Submission& sub : subs) {
    sequence.push_back(sub.spec);
    kinds.push(Json::str(sub.repeat ? "stored" : "fresh"));
  }
  const std::int64_t appends0 =
      series_value("winofault_store_journal_appends_total");
  const std::int64_t bytes0 =
      series_value("winofault_store_journal_write_bytes_total");
  std::vector<double> stored_ms;
  const std::vector<CampaignResult> stored =
      run_in_process(runner, lru, specs, sequence, replay_store,
                     kCheckThreads, &stored_ms);
  const double appends = static_cast<double>(
      series_value("winofault_store_journal_appends_total") - appends0);
  const double bytes = static_cast<double>(
      series_value("winofault_store_journal_write_bytes_total") - bytes0);
  std::int64_t stored_bad = 0;
  for (std::size_t k = 0; k < subs.size(); ++k) {
    stored_bad += diverging_points(reference[subs[k].spec], stored[k]) > 0;
  }
  tally->integrity(stored_bad == 0,
                   "in-process stored replay differs from the plain run");

  const auto fresh_count = static_cast<double>(specs.size());
  put_log(record, "trace.op.", traced);
  record->set("trace.inproc.ms", json_numbers(stored_ms))
      .set("trace.inproc.kind", std::move(kinds))
      .set("trace.plain.ms", json_numbers(plain_ms))
      .set("trace.service.queue_ms",
           Json::number(queue_count > 0 ? static_cast<double>(queue_sum) /
                                              static_cast<double>(queue_count) /
                                              1e3
                                        : 0.0))
      .set("trace.store.journal_appends",
           Json::number(fresh_count > 0 ? appends / fresh_count : 0.0))
      .set("trace.store.journal_bytes",
           Json::number(fresh_count > 0 ? bytes / fresh_count : 0.0))
      .set("trace.campaign.golden_builds",
           json_numbers({static_cast<double>(daemon_stats.golden_builds)}))
      .set("trace.campaign.golden_hits",
           json_numbers({static_cast<double>(daemon_stats.golden_hits)}))
      .set("trace.campaign.golden_evictions",
           json_numbers({static_cast<double>(daemon_stats.golden_evictions)}));
  std::printf("daemon: %zu submissions of %d plans checked against the "
              "in-process run (%zu traced)\n",
              subs.size(), plans, subs.size() - traced_from);
}

}  // namespace perfbench
