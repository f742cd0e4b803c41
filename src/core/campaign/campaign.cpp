#include "core/campaign/campaign.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/telemetry/events.h"
#include "common/telemetry/telemetry.h"
#include "core/dist/buckets.h"
#include "core/dist/claim_board.h"
#include "core/store/golden_store.h"
#include "core/store/handle_cache.h"
#include "core/store/hash.h"
#include "core/store/journal.h"
#include "core/store/segment_cache.h"
#include "fault/fault_model.h"
#include "fault/models/overlay.h"

namespace winofault {

// Trial 0 keeps the historical per-image derivation (odd, distinct per
// image) so single-trial runs are bit-compatible with earlier revisions;
// later trials re-mix through SplitMix64-style constants so streams never
// collide across images.
std::uint64_t fault_stream_seed(std::uint64_t seed, std::int64_t image,
                                int trial) {
  std::uint64_t base = seed * 0x9e3779b97f4a7c15ULL +
                       static_cast<std::uint64_t>(image) * 2 + 1;
  if (trial > 0) {
    base ^= (static_cast<std::uint64_t>(trial) + 1) * 0xbf58476d1ce4e5b9ULL;
    base *= 0x94d049bb133111ebULL;
    base |= 1;  // keep the stream odd like the trial-0 derivation
  }
  return base;
}

namespace {

// Installed by service clients (core/service); empty by default. Heap
// allocation keeps the hook alive for campaigns running past main's end.
CampaignSubmitHook& submit_hook_ref() {
  static CampaignSubmitHook* hook = new CampaignSubmitHook;
  return *hook;
}

// When the expected op-level flips per inference would reduce the output to
// noise, the point reports chance accuracy directly instead of simulating
// hundreds of thousands of replays (see EvalOptions::max_expected_flips).
// Only applies to unrestricted op-level injection.
std::optional<EvalResult> destruction_short_circuit(
    const Network& network, const Dataset& dataset,
    const CampaignPoint& point) {
  if (point.fault.mode != InjectionMode::kOpLevel ||
      !point.fault.model.is_default() || !point.fault.protection.empty() ||
      point.fault.fault_free_layer >= 0 ||
      point.fault.only_kind.has_value() || dataset.num_classes <= 1) {
    return std::nullopt;
  }
  const FaultModel model{point.fault.ber};
  const double expected =
      model.expected_flips(network.total_op_space(point.policy));
  if (expected <= point.max_expected_flips) return std::nullopt;
  EvalResult result;
  result.images = static_cast<int>(dataset.images.size());
  result.accuracy = 1.0 / static_cast<double>(dataset.num_classes);
  result.avg_flips = expected;
  return result;
}

// Campaign-tier telemetry. Observation-only: every series is an atomic
// side-counter or a duration; none feeds back into scheduling or results.
// The phase histogram carries the golden-build / replay / inject split the
// benches surface as golden_build_s / exec_s.
telemetry::Histogram& phase_metric(const char* phase) {
  return telemetry::histogram(
      "winofault_campaign_phase_us",
      "microseconds per campaign phase unit (golden build, per-cell replay "
      "or scratch inject)",
      std::string("phase=\"") + phase + "\"");
}
telemetry::Histogram& phase_replay_metric() {
  static telemetry::Histogram& h = phase_metric("replay");
  return h;
}
telemetry::Histogram& phase_inject_metric() {
  static telemetry::Histogram& h = phase_metric("inject");
  return h;
}
telemetry::Histogram& phase_golden_build_metric() {
  static telemetry::Histogram& h = phase_metric("golden_build");
  return h;
}
telemetry::Counter& waves_metric() {
  static telemetry::Counter& c = telemetry::counter(
      "winofault_campaign_waves_total", "image waves scheduled");
  return c;
}
telemetry::Counter& cells_metric() {
  static telemetry::Counter& c = telemetry::counter(
      "winofault_campaign_cells_total", "campaign cells executed");
  return c;
}
telemetry::Counter& trials_metric() {
  static telemetry::Counter& c = telemetry::counter(
      "winofault_campaign_trials_total",
      "fault-injection trials (inferences) simulated");
  return c;
}

// Golden-tier series are split per golden variant: "clean" is the
// clean-silicon key space, permanent-fault overlays appear under their
// digest, so a scraper can see a defective-silicon campaign thrash its
// variant goldens separately from the shared clean tier.
std::string golden_variant_labels(std::uint64_t variant) {
  if (variant == 0) return "variant=\"clean\"";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "variant=\"%016llx\"",
                static_cast<unsigned long long>(variant));
  return buf;
}
telemetry::Counter& golden_metric(const char* which, const char* help,
                                  std::uint64_t variant) {
  return telemetry::counter(std::string("winofault_golden_") + which, help,
                            golden_variant_labels(variant));
}

// GoldenLru key layout: image index over 8 policy bits. Packing and
// unpacking live side by side so they cannot diverge — a mismatched decode
// would spill evicted goldens under the wrong shard name.
constexpr std::uint64_t pack_golden_key(std::int64_t image,
                                        ConvPolicy policy) {
  return (static_cast<std::uint64_t>(image) << 8) |
         static_cast<std::uint64_t>(policy);
}
constexpr std::int64_t golden_key_image(std::uint64_t key) {
  return static_cast<std::int64_t>(key >> 8);
}
constexpr ConvPolicy golden_key_policy(std::uint64_t key) {
  return static_cast<ConvPolicy>(key & 0xff);
}

// Integer tallies of one (point, image) cell over the point's trials —
// the unit the executor schedules and journals. A non-null `overlay`
// (permanent-fault model, pure function of the point) keys the golden into
// its faulted-weights variant and counts its defective cells as the
// trial's flips; transient models leave it null. `cost` receives the
// cell's measured cost record (trial-loop wall-micros + exact sum of
// squared per-trial flips) for the journal's cost ledger; the
// measurement is observation-only — the tallies never depend on it.
JournalCell execute_cell(const Network& network, const Dataset& dataset,
                         const CampaignPoint& point,
                         std::uint64_t point_hash, std::int64_t i,
                         GoldenLru& lru, const FaultOverlay* overlay,
                         JournalCost& cost) {
  const TensorF& image = dataset.images[static_cast<std::size_t>(i)];
  const int label = dataset.labels[static_cast<std::size_t>(i)];
  // Every (point, image, trial) derives its own fault stream, so the
  // result is independent of the thread schedule, of reuse_golden, and of
  // cache eviction/rebuild.
  JournalCell cell;
  cell.point_hash = point_hash;
  cell.image = i;
  const std::int64_t overlay_flips =
      overlay != nullptr ? overlay->site_count : 0;
  std::int64_t flips_sq = 0;
  std::int64_t elapsed_us = 0;
  if (point.reuse_golden) {
    const GoldenLru::Ptr golden = lru.get_or_build(
        i, point.policy,
        [&] { return network.make_golden(image, point.policy, overlay); },
        overlay != nullptr ? overlay->digest : 0);
    telemetry::TraceSpan span("cell_replay", "campaign");
    const std::int64_t t0 = telemetry::now_us();
    for (int t = 0; t < point.trials; ++t) {
      FaultSession session(point.fault, fault_stream_seed(point.seed, i, t));
      cell.correct += network.predict_replay(*golden, session) == label;
      const std::int64_t trial_flips = session.total_flips() + overlay_flips;
      cell.flips += trial_flips;
      flips_sq += trial_flips * trial_flips;
    }
    elapsed_us = telemetry::now_us() - t0;
    phase_replay_metric().observe(elapsed_us);
  } else {
    telemetry::TraceSpan span("cell_inject", "campaign");
    const std::int64_t t0 = telemetry::now_us();
    for (int t = 0; t < point.trials; ++t) {
      FaultSession session(point.fault, fault_stream_seed(point.seed, i, t));
      ExecContext ctx;
      ctx.policy = point.policy;
      ctx.session = &session;
      ctx.overlay = overlay;
      cell.correct += network.predict(image, ctx) == label;
      const std::int64_t trial_flips = session.total_flips() + overlay_flips;
      cell.flips += trial_flips;
      flips_sq += trial_flips * trial_flips;
    }
    elapsed_us = telemetry::now_us() - t0;
    phase_inject_metric().observe(elapsed_us);
  }
  cost.point_hash = point_hash;
  cost.image = i;
  cost.wall_us = elapsed_us;
  cost.flips_sq = flips_sq;
  cells_metric().add(1);
  trials_metric().add(point.trials);
  return cell;
}

// Per-point permanent-fault overlays, parallel to spec.points (null for
// transient/default models and for overlays that sampled zero defects — an
// empty overlay IS clean silicon, so those points share the variant-0
// goldens). Each overlay is a pure function of (model, ber, point.seed,
// network geometry), so every worker, resume, and daemon session derives
// the identical defect set without communicating.
std::vector<std::unique_ptr<FaultOverlay>> build_point_overlays(
    const Network& network, const CampaignSpec& spec,
    const std::vector<std::size_t>& active) {
  std::vector<std::unique_ptr<FaultOverlay>> overlays(spec.points.size());
  for (const std::size_t p : active) {
    const CampaignPoint& point = spec.points[p];
    if (!point.fault.model.uses_overlay()) continue;
    auto overlay = std::make_unique<FaultOverlay>(
        build_fault_overlay(network, point.fault, point.seed));
    if (!overlay->empty()) overlays[p] = std::move(overlay);
  }
  return overlays;
}

// Relative execution cost of one (point, image) cell, for bucket balance
// in distributed runs. Replay cost scales with injected fault sites (each
// fault's dirty cone is recomputed), so expected flips per inference —
// capped at the destruction threshold, past which points short-circuit —
// is the dominant term; trials multiply. A heuristic: protection and
// injection-mode details shift the constant, not the orders of magnitude
// between a near-clean and a destruction-adjacent point.
double cell_cost_weight(const Network& network, const CampaignPoint& point) {
  const FaultModel model{point.fault.ber};
  const double expected =
      model.expected_flips(network.total_op_space(point.policy));
  return (1.0 + std::min(expected, point.max_expected_flips)) *
         static_cast<double>(std::max(point.trials, 1));
}

std::string sanitize_worker_tag(const std::string& tag) {
  std::string out;
  out.reserve(tag.size());
  for (const char c : tag) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-') {
      out += c;
    }
  }
  // Stripping must not collapse distinct tags onto one segment file ("w.1"
  // and "w:1" both sanitizing to "w1" would give two live workers the
  // same exclusive-writer segment): mark a changed tag with a hash of the
  // original so distinct inputs stay distinct.
  if (!tag.empty() && out != tag) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "-x%08x",
                  static_cast<unsigned>(Fnv64().bytes(tag.data(),
                                                      tag.size())
                                            .digest() &
                                        0xffffffffu));
    out += suffix;
  }
  return out;
}

// Default worker tag: pid alone is NOT unique across hosts sharing one
// store directory (the hand-started --shard multi-host mode), and two
// live workers sharing a tag would clobber each other's segment — so mix
// in entropy once per process.
std::string default_worker_tag() {
  static const std::string tag = [] {
    std::random_device rd;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "w%ld-%08x",
                  static_cast<long>(::getpid()),
                  static_cast<unsigned>(rd()));
    return std::string(buf);
  }();
  return tag;
}

// Distinct policies among the active points that reuse goldens (at least
// 1): each live image holds one golden per such policy.
std::int64_t golden_policy_count(const std::vector<CampaignPoint>& points,
                                 const std::vector<std::size_t>& active) {
  std::int64_t npol = 0;
  bool seen[3] = {false, false, false};
  for (const std::size_t p : active) {
    const int policy = static_cast<int>(points[p].policy);
    if (points[p].reuse_golden && !seen[policy]) {
      seen[policy] = true;
      ++npol;
    }
  }
  return std::max<std::int64_t>(npol, 1);
}

}  // namespace

void GoldenLru::ensure_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max(capacity_, std::max<std::size_t>(capacity, 1));
}

GoldenLru::Ptr GoldenLru::get_or_build(
    std::int64_t image, ConvPolicy policy,
    const std::function<GoldenCache()>& build, std::uint64_t variant) {
  // One consistent view of the spill target for this whole call: a
  // concurrent set_store only affects later calls.
  GoldenStore* const store = store_.load();
  const Key key{pack_golden_key(image, policy), variant};
  std::promise<Ptr> promise;
  std::shared_future<Ptr> future;
  std::uint64_t owner = 0;
  bool builder = false;
  // Ready entries evicted below spill to the tier-2 store as soon as the
  // lock is released: until a victim's shard lands on disk it exists in
  // neither tier, so a concurrent miss on it would pay a full rebuild.
  std::vector<std::pair<Key, Ptr>> spill;
  const auto flush_spill = [&] {
    for (auto& [victim, ready] : spill) {
      store->save(golden_key_image(victim.base),
                  golden_key_policy(victim.base), *ready, victim.variant);
    }
    spill.clear();
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = map_.find(key); it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      future = it->second.future;
      hits_.fetch_add(1, std::memory_order_relaxed);
      golden_metric("hits_total", "GoldenLru cache hits", variant).add(1);
    } else {
      golden_metric("misses_total", "GoldenLru cache misses", variant).add(1);
      builder = true;
      owner = ++next_owner_;
      future = promise.get_future().share();
      lru_.push_front(key);
      map_.emplace(key, Entry{future, lru_.begin(), owner});
      // Evict least-recently-used entries over capacity. In-flight users of
      // an evicted entry hold their own future/shared_ptr, so eviction only
      // costs a potential rebuild (or a disk restore), never correctness.
      while (map_.size() > capacity_) {
        const Key victim = lru_.back();
        const auto vit = map_.find(victim);
        if (store != nullptr &&
            vit->second.future.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
          try {
            if (Ptr ready = vit->second.future.get()) {
              spill.emplace_back(victim, std::move(ready));
            }
          } catch (...) {
            // failed build: nothing to spill
          }
        }
        map_.erase(vit);
        lru_.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
        golden_metric("evictions_total", "GoldenLru capacity evictions",
                      victim.variant)
            .add(1);
      }
    }
  }
  if (!builder) return future.get();
  // Spill the victims BEFORE the (much more expensive) restore/build:
  // GoldenStore::save never throws, and the ~ms of shard I/O closes the
  // window in which an evicted-but-unspilled golden could be rebuilt from
  // scratch by another worker.
  flush_spill();
  // The try block ends BEFORE promise.set_value: the catch below calls
  // promise.set_exception, which would itself throw (and escape into the
  // worker pool) if the promise were already satisfied.
  Ptr ptr;
  try {
    if (store != nullptr) {
      if (std::optional<GoldenCache> restored =
              store->load(image, policy, variant)) {
        ptr = std::make_shared<const GoldenCache>(std::move(*restored));
      }
    }
    if (ptr == nullptr) {
      builds_.fetch_add(1, std::memory_order_relaxed);
      golden_metric("builds_total", "golden activation builds", variant)
          .add(1);
      telemetry::TraceSpan span("golden_build", "campaign");
      const std::int64_t t0 = telemetry::now_us();
      ptr = std::make_shared<const GoldenCache>(build());
      phase_golden_build_metric().observe(telemetry::now_us() - t0);
    }
  } catch (...) {
    // Propagate the real error to concurrent waiters and drop the entry so
    // later lookups retry instead of replaying a broken promise. The owner
    // check keeps a healthy entry alive if this one was already evicted and
    // the key re-inserted by another builder.
    promise.set_exception(std::current_exception());
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (const auto it = map_.find(key);
          it != map_.end() && it->second.owner == owner) {
        lru_.erase(it->second.lru_it);
        map_.erase(it);
      }
    }
    throw;
  }
  promise.set_value(ptr);
  // If this entry was evicted while the build was in flight, the evictor
  // found an unready future and could not spill it — spill the finished
  // result here so the work is not lost to both tiers (save never
  // throws).
  if (store != nullptr) {
    bool still_cached;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = map_.find(key);
      still_cached = it != map_.end() && it->second.owner == owner;
    }
    if (!still_cached) store->save(image, policy, *ptr, variant);
  }
  return ptr;
}

std::int64_t GoldenLru::flush_to_store() {
  GoldenStore* const store = store_.load();
  if (store == nullptr) return 0;
  std::vector<std::pair<Key, Ptr>> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready.reserve(map_.size());
    for (const auto& [key, entry] : map_) {
      if (entry.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        continue;  // no in-flight builds at campaign end in practice
      }
      try {
        if (Ptr p = entry.future.get()) ready.emplace_back(key, std::move(p));
      } catch (...) {
        // failed build: nothing to flush
      }
    }
  }
  for (const auto& [key, p] : ready) {
    store->save(golden_key_image(key.base), golden_key_policy(key.base), *p,
                key.variant);
  }
  return static_cast<std::int64_t>(ready.size());
}

std::uint64_t CampaignRunner::env_hash() const {
  std::uint64_t h = env_hash_.load(std::memory_order_acquire);
  if (h == 0) {
    h = campaign_env_hash(network_, dataset_);
    env_hash_.store(h, std::memory_order_release);
  }
  return h;
}

// The one campaign executor. A local run and a distributed shard (core/dist:
// worker dist.shard_index of dist.shard_count sharing spec.store.dir) share
// the prepare step, the slice executor and the finalize step; only the
// schedule differs. A local run executes image waves of the pending list;
// a shard claims cost-weighted buckets of it through the claim board, then
// assembles the full result from the canonical journal plus every
// worker's segment. Tallies are integer sums of cells that are pure
// functions of their key, so every schedule gives bit-identical results
// (tests/campaign_test.cpp, store_test.cpp, dist_test.cpp).
CampaignResult CampaignRunner::run(const CampaignSpec& spec) const {
  WF_CHECK(network_.calibrated());
  WF_CHECK(!dataset_.images.empty());
  for (const CampaignPoint& point : spec.points) WF_CHECK(point.trials >= 1);

  // Service clients route campaigns to a resident daemon here; the daemon
  // side never installs a hook, so its own runs fall through. Results are
  // bit-identical either way (the daemon executes this same function
  // against an identically-built environment — tests/service_test.cpp).
  if (const CampaignSubmitHook& hook = submit_hook_ref()) {
    if (std::optional<CampaignResult> remote = hook(network_, dataset_, spec)) {
      return *std::move(remote);
    }
  }

  const DistOptions& dist = spec.store.dist;
  bool distributed = spec.store.enabled() && dist.enabled();
  if (distributed && !spec.store.journal) {
    WF_WARN << "campaign: distributed execution requires the result "
               "journal; falling back to a local run";
    distributed = false;
  }
  if (distributed) {
    WF_CHECK(dist.shard_index >= 0 && dist.shard_index < dist.shard_count);
  }
  telemetry::TraceSpan run_span(
      distributed ? "campaign_run_distributed" : "campaign_run",
      distributed ? "dist" : "campaign");

  // Workers of a local coordinator run side by side on one machine and
  // split it evenly; a hand-started shard on its own host uses all of it.
  const int threads =
      spec.threads > 0 ? spec.threads
      : distributed && dist.share_host
          ? std::max(1, default_thread_count() / dist.shard_count)
          : default_thread_count();
  const std::int64_t images =
      static_cast<std::int64_t>(dataset_.images.size());

  CampaignResult result;
  result.points.resize(spec.points.size());

  // Persistent store (core/store): both tiers are keyed by content hashes
  // of the (network, dataset) environment and of each point, so recovered
  // journal cells and restored goldens can never come from different
  // state than this campaign would compute. A shard opens the canonical
  // journal read-only — only the coordinator's merge writes it — so every
  // worker derives the identical pending set without communicating.
  std::uint64_t env = 0;
  std::shared_ptr<ResultJournal> journal;  // the canonical journal
  std::shared_ptr<GoldenStore> golden_store;
  std::vector<std::uint64_t> point_hashes;
  if (spec.store.enabled()) {
    env = env_hash();
    point_hashes.resize(spec.points.size());
    for (std::size_t p = 0; p < spec.points.size(); ++p) {
      point_hashes[p] = campaign_point_hash(spec.points[p]);
    }
    const ResultJournal::Mode mode = distributed
                                         ? ResultJournal::Mode::kReadOnly
                                         : ResultJournal::Mode::kAppend;
    if (spec.store.reuse_handles) {
      const StoreHandles handles = acquire_store_handles(spec.store, env, mode);
      journal = handles.journal;
      golden_store = handles.goldens;
    } else {
      if (spec.store.journal) {
        journal = std::make_shared<ResultJournal>(spec.store.dir, env, mode);
      }
      if (spec.store.spill_goldens) {
        golden_store = std::make_shared<GoldenStore>(
            spec.store.dir, env, spec.store.golden_disk_budget);
      }
    }
  }

  // Reused (cached) handles carry activity from earlier campaigns in this
  // process; per-run accounting is relative to these baselines.
  const std::int64_t spills_base =
      golden_store != nullptr ? golden_store->spills() : 0;
  const std::int64_t restores_base =
      golden_store != nullptr ? golden_store->restores() : 0;

  // Resolve destruction short-circuits up front; only surviving points are
  // scheduled. Overlays are derived, not communicated: every worker
  // computes the identical per-point defect sets from the spec alone.
  std::vector<std::size_t> active;
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    if (const auto sc =
            destruction_short_circuit(network_, dataset_, spec.points[p])) {
      result.points[p] = *sc;
      ++result.stats.short_circuited_points;
    } else {
      active.push_back(p);
    }
  }
  if (active.empty()) return result;
  const std::vector<std::unique_ptr<FaultOverlay>> overlays =
      build_point_overlays(network_, spec, active);

  // Per-active-point tallies; integer sums make the result independent of
  // the schedule.
  std::vector<std::atomic<std::int64_t>> correct(active.size());
  std::vector<std::atomic<std::int64_t>> flips(active.size());

  // One unit = (image, point), image-major: a contiguous slice covers a
  // few images across all their points, so one golden per (image, policy)
  // serves the whole slice, and the pool's per-worker starting ranges land
  // on distinct images, so golden builds spread across workers.
  //
  // Cells already journaled by a previous run seed the tallies directly;
  // only the remainder is pending. Because every cell is a pure function
  // of (point, image) within this environment, the resumed totals are
  // bit-identical to an uninterrupted run (proved in store_test).
  struct Unit {
    std::int64_t image;
    std::uint32_t a;  // index into `active`
  };
  std::vector<Unit> pending;
  pending.reserve(static_cast<std::size_t>(images) * active.size());
  for (std::int64_t i = 0; i < images; ++i) {
    for (std::size_t a = 0; a < active.size(); ++a) {
      JournalCell cell;
      if (journal != nullptr &&
          journal->lookup(point_hashes[active[a]], i, &cell)) {
        correct[a].fetch_add(cell.correct, std::memory_order_relaxed);
        flips[a].fetch_add(cell.flips, std::memory_order_relaxed);
        ++result.stats.journal_cells_loaded;
        continue;
      }
      pending.push_back(Unit{i, static_cast<std::uint32_t>(a)});
    }
  }

  // The sink takes this run's finished cells: the canonical journal for a
  // local run, this worker's own segment for a shard with work to do —
  // cached under reuse_handles so a sequential-adaptive consumer (TMR
  // planner checks) does not re-read its own growing segment per campaign.
  std::shared_ptr<ResultJournal> sink = journal;
  std::string tag;
  if (distributed && !pending.empty()) {
    tag = sanitize_worker_tag(dist.worker_tag);
    if (tag.empty()) tag = default_worker_tag();
    sink = spec.store.reuse_handles
               ? acquire_store_handles(spec.store, env,
                                       ResultJournal::Mode::kAppend, tag)
                     .journal
               : std::make_shared<ResultJournal>(
                     spec.store.dir, env, ResultJournal::Mode::kAppend, tag);
  }
  const std::int64_t sink_base = sink != nullptr ? sink->appended_cells() : 0;

  // The budget only applies when the sink can take appends: without that
  // (store disabled, or the journal or segment unwritable) a truncated run
  // could never be resumed, so the budget would silently lose cells
  // instead of checkpointing them. The cut is a prefix of the pending
  // list, so every shard of a group cuts the same cells and derives the
  // same buckets and board.
  if (sink != nullptr && sink->can_append() && spec.store.cell_budget > 0 &&
      static_cast<std::int64_t>(pending.size()) > spec.store.cell_budget) {
    result.stats.cells_deferred =
        static_cast<std::int64_t>(pending.size()) - spec.store.cell_budget;
    pending.resize(static_cast<std::size_t>(spec.store.cell_budget));
    // Partial tallies flow into the returned accuracies, so no consumer
    // may mistake a budgeted checkpoint run for finished results.
    WF_WARN << "campaign: cell budget deferred "
            << result.stats.cells_deferred << " of "
            << result.stats.cells_deferred + spec.store.cell_budget
            << " pending cells; reported point results are PARTIAL until a "
               "resume finishes them";
  }

  // Wave width: how many images are live at once. The default LRU
  // capacity is the wave working set, one entry per live (image, policy),
  // plus one-per-worker slack for workers straddling a wave boundary.
  const std::int64_t wave_width =
      std::min<std::int64_t>(images, std::max(threads, 1));
  const std::int64_t policies = golden_policy_count(spec.points, active);
  const std::size_t capacity =
      spec.golden_capacity > 0
          ? spec.golden_capacity
          : static_cast<std::size_t>(
                std::max<std::int64_t>(wave_width * policies + threads, 2));
  // External warm tier (core/service): serve goldens from the caller's
  // shared cross-campaign LRU instead of a campaign-local one. Its spill
  // target and end-of-run flush belong to its owner; stats below are
  // reported relative to the baselines so a long-lived LRU's history does
  // not leak into this run's numbers.
  GoldenLru local_lru(capacity, golden_store.get());
  GoldenLru& lru =
      spec.warm_goldens != nullptr ? *spec.warm_goldens : local_lru;
  if (spec.warm_goldens != nullptr) {
    // A cross-submission warm tier exists to serve the NEXT submission,
    // so it must retain this campaign's full golden set — the wave-sized
    // `capacity` above only covers one pass and would evict everything a
    // resident daemon keeps warm (images stream through it).
    lru.ensure_capacity(std::max(
        capacity, static_cast<std::size_t>(images * policies + threads)));
  }
  const std::int64_t lru_builds_base = lru.builds();
  const std::int64_t lru_hits_base = lru.hits();
  const std::int64_t lru_evictions_base = lru.evictions();

  // Progress/cancel bookkeeping (core/service): `done` counts executed
  // cells and feeds on_progress snapshots; `cancelled` counts cells
  // skipped after the cancel flag flipped — they join cells_deferred, so a
  // cancelled stored job is exactly a budget-truncated one (resubmitting
  // resumes from the journal).
  std::atomic<std::int64_t> done{0};
  std::atomic<std::int64_t> cancelled{0};
  std::atomic<std::int64_t> inferences{0};
  const auto is_cancelled = [&] {
    return spec.cancel != nullptr &&
           spec.cancel->load(std::memory_order_relaxed);
  };
  const auto emit_progress = [&] {
    if (!spec.on_progress) return;
    CampaignProgress progress;
    progress.cells_total = static_cast<std::int64_t>(pending.size());
    progress.cells_done = done.load(std::memory_order_relaxed);
    progress.cells_loaded = result.stats.journal_cells_loaded;
    progress.cells_deferred = result.stats.cells_deferred +
                              cancelled.load(std::memory_order_relaxed);
    spec.on_progress(progress);
  };
  emit_progress();  // totals up front, even for fully journal-served runs

  // The slice executor: runs units[0, n) on the pool, appending every
  // finished cell with its cost record to the sink. With `tally` false
  // (shard buckets) the point tallies come from the segments at assembly
  // instead; a cancelled cell is counted as deferred only where its tally
  // would have been taken, so a cell a bucket skipped counts once, when
  // assembly finds it missing. `heartbeat` runs before each cell.
  const std::int64_t die_after = distributed ? dist.die_after_cells : 0;
  const auto run_slice = [&](const Unit* units, std::size_t n, bool tally,
                             const std::function<void()>& heartbeat) {
    parallel_for(static_cast<std::int64_t>(n), threads, [&](std::int64_t k) {
      if (is_cancelled()) {
        if (tally) {
          cancelled.fetch_add(1, std::memory_order_relaxed);
          emit_progress();
        }
        return;
      }
      if (heartbeat) heartbeat();
      const Unit& unit = units[k];
      const std::size_t p = active[unit.a];
      JournalCost cost;
      const JournalCell cell =
          execute_cell(network_, dataset_, spec.points[p],
                       point_hashes.empty() ? 0 : point_hashes[p], unit.image,
                       lru, overlays[p].get(), cost);
      if (sink != nullptr) {
        // no-op if the sink is unwritable
        sink->append(cell, spec.store.cost_ledger ? &cost : nullptr);
      }
      const std::int64_t executed =
          done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (die_after > 0 && executed >= die_after) {
        // Deterministic crash simulation for tests/CI: die exactly like a
        // kill -9 — no cleanup, claims left to go stale and be stolen.
        WF_WARN << "campaign: worker " << tag << " self-SIGKILL after "
                << die_after << " cells (die_after_cells)";
        std::raise(SIGKILL);
      }
      if (tally) {
        correct[unit.a].fetch_add(cell.correct, std::memory_order_relaxed);
        flips[unit.a].fetch_add(cell.flips, std::memory_order_relaxed);
      }
      inferences.fetch_add(spec.points[p].trials, std::memory_order_relaxed);
      emit_progress();
    });
  };

  if (!distributed || pending.empty() || !sink->can_append()) {
    if (distributed && !pending.empty()) {
      // Claimed work would be lost to every other worker: run the local
      // schedule over all pending cells (correct, just not cooperative).
      WF_WARN << "campaign: worker segment " << sink->path()
              << " is unwritable; executing all pending cells locally "
                 "(results stay correct but are not shared)";
    }
    // Local schedule: image waves of `wave_width` images, each a
    // contiguous slice of the image-major pending list and one
    // parallel_for. The pool starts each worker on its own contiguous
    // range, so one loop over all units would put workers on images far
    // apart and the live goldens would outgrow `capacity`; the per-wave
    // barrier keeps them to one wave's images. Goldens build on demand
    // inside execute_cell.
    for (std::size_t begin = 0; begin < pending.size();) {
      const std::int64_t wave_end =
          (pending[begin].image / wave_width + 1) * wave_width;
      std::size_t end = begin;
      while (end < pending.size() && pending[end].image < wave_end) ++end;
      waves_metric().add(1);
      telemetry::TraceSpan wave_span("campaign_wave", "campaign");
      run_slice(pending.data() + begin, end - begin, true, {});
      begin = end;
    }
  } else {
    static telemetry::Counter& claims_metric = telemetry::counter(
        "winofault_dist_buckets_claimed_total",
        "cost buckets this process claimed from the board");
    static telemetry::Counter& steals_metric = telemetry::counter(
        "winofault_dist_buckets_stolen_total",
        "stale claims of dead workers taken over");
    static telemetry::Counter& recovered_metric = telemetry::counter(
        "winofault_dist_cells_recovered_total",
        "cells folded in from rival worker segments at assembly");
    static telemetry::Counter& healed_metric = telemetry::counter(
        "winofault_dist_cells_healed_total",
        "cells missing from every segment and re-executed locally");

    // Cost-aware buckets + claim board: identical in every worker because
    // both derive from the canonical pending set alone.
    std::vector<double> point_weight(active.size());
    for (std::size_t a = 0; a < active.size(); ++a) {
      point_weight[a] = cell_cost_weight(network_, spec.points[active[a]]);
    }
    // Prefer MEASURED costs from the canonical journal's cost ledger (cells
    // of the same point finished in earlier runs/resumes): a point with
    // measured cells weighs its mean replay wall-micros; unmeasured points
    // scale their estimate by the measured/estimated ratio over the
    // measured ones so the two weight spaces stay commensurable.
    // Deterministic across workers — the canonical journal is read-only and
    // shared, and the fold below iterates in `active` order — so every
    // worker still derives the identical bucket partition. Weights steer
    // scheduling only; results are pure functions of the cell key either
    // way.
    {
      const auto measured = journal->point_costs();
      std::vector<double> mean_us(active.size(), 0.0);
      double measured_sum = 0.0, estimate_sum = 0.0;
      std::size_t measured_points = 0;
      for (std::size_t a = 0; a < active.size(); ++a) {
        const auto it = measured.find(point_hashes[active[a]]);
        if (it == measured.end() || it->second.cells <= 0) continue;
        mean_us[a] = std::max(static_cast<double>(it->second.wall_us) /
                                  static_cast<double>(it->second.cells),
                              1.0);
        measured_sum += mean_us[a];
        estimate_sum += point_weight[a];
        ++measured_points;
      }
      if (measured_points > 0 && measured_sum > 0.0 && estimate_sum > 0.0) {
        const double ratio = measured_sum / estimate_sum;
        for (std::size_t a = 0; a < active.size(); ++a) {
          point_weight[a] =
              mean_us[a] > 0.0 ? mean_us[a] : point_weight[a] * ratio;
        }
        static telemetry::Counter& measured_metric = telemetry::counter(
            "winofault_dist_measured_weight_points_total",
            "dist points bucket-weighted by measured ledger costs");
        measured_metric.add(static_cast<std::int64_t>(measured_points));
        WF_INFO << "campaign: dist bucket weights use measured costs for "
                << measured_points << "/" << active.size() << " point(s)";
      }
    }
    std::vector<double> weights(pending.size());
    std::vector<std::uint64_t> pending_keys(pending.size());
    for (std::size_t u = 0; u < pending.size(); ++u) {
      weights[u] = point_weight[pending[u].a];
      pending_keys[u] = journal_cell_key(point_hashes[active[pending[u].a]],
                                         pending[u].image);
    }
    const std::size_t target_buckets =
        std::min(pending.size(),
                 static_cast<std::size_t>(dist.shard_count) *
                     static_cast<std::size_t>(
                         std::max(dist.buckets_per_worker, 1)));
    const std::vector<CostBucket> buckets =
        make_cost_buckets(weights, target_buckets);
    ClaimBoard board(spec.store.dir,
                     dist_board_key(env, pending_keys, buckets.size()), tag,
                     dist.claim_stale_ms);

    // Executes claimed bucket `b` and marks it done. A bucket cut short by
    // cancel keeps its claim instead — no segment holds its skipped cells —
    // which goes stale and is stolen like a dead worker's; returns false.
    std::atomic<std::int64_t> last_heartbeat_ms{0};
    const auto now_ms = [] {
      return std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
    const auto run_bucket = [&](int b) {
      const CostBucket& bucket = buckets[static_cast<std::size_t>(b)];
      last_heartbeat_ms.store(now_ms(), std::memory_order_relaxed);
      run_slice(pending.data() + bucket.begin, bucket.end - bucket.begin,
                false, [&] {
        // Freshen the claim BEFORE the (possibly long) cell so the mtime is
        // at worst one cell old; rate-limited to a fraction of the
        // staleness window. A single cell longer than claim_stale_ms can
        // still be presumed abandoned and stolen — wasted duplicate work,
        // never divergence — so size the window above the heaviest cell.
        const std::int64_t now = now_ms();
        std::int64_t last = last_heartbeat_ms.load(std::memory_order_relaxed);
        if (now - last >= std::max<std::int64_t>(dist.claim_stale_ms / 4, 1) &&
            last_heartbeat_ms.compare_exchange_strong(last, now)) {
          board.heartbeat(b);
        }
      });
      if (is_cancelled()) return false;
      board.mark_done(b);
      ++result.stats.dist_buckets_claimed;
      claims_metric.add(1);
      return true;
    };

    // Claim / steal / wait until every bucket is done or the run is
    // cancelled. `order` rotates the heaviest-first preference per shard so
    // workers fan out instead of racing on the same bucket.
    const std::vector<int> order =
        bucket_claim_order(buckets, dist.shard_index, dist.shard_count);
    int fruitless_rounds = 0;  // no progress AND no live claim anywhere
    while (!is_cancelled()) {
      int finished = 0;
      bool progressed = false;
      for (const int b : order) {
        if (board.is_done(b)) {
          ++finished;
        } else if (!is_cancelled() && board.try_claim(b) && run_bucket(b)) {
          ++finished;
          progressed = true;
        }
      }
      if (finished >= static_cast<int>(buckets.size())) break;
      if (!progressed) {
        // Every unfinished bucket is claimed by a rival: steal the stale
        // ones (dead workers), otherwise wait for the live ones.
        for (const int b : order) {
          if (board.is_done(b) || is_cancelled() || !board.try_steal(b)) {
            continue;
          }
          if (telemetry::events_enabled()) {
            telemetry::emit_event("dist_steal", {{"worker", tag}},
                                  {{"bucket", b}});
          }
          if (run_bucket(b)) {
            ++result.stats.dist_buckets_stolen;
            steals_metric.add(1);
            progressed = true;
          }
        }
      }
      if (!progressed) {
        // Liveness guard: if our claims fail while NO unfinished bucket has
        // a claim either, nobody can be making progress — the board is
        // unusable (directory uncreatable, or deleted out from under live
        // workers by a premature merge). Waiting would hang forever;
        // execute the remainder non-cooperatively instead (duplicate work
        // at worst, never divergence).
        bool any_claim = false;
        for (const int b : order) {
          if (!board.is_done(b) && board.has_claim(b)) {
            any_claim = true;
            break;
          }
        }
        fruitless_rounds = any_claim ? 0 : fruitless_rounds + 1;
        if (!board.usable() || fruitless_rounds >= 3) {
          WF_WARN << "campaign: claim board " << board.dir()
                  << " is unusable; executing remaining buckets without "
                     "coordination";
          for (const int b : order) {
            if (!board.is_done(b)) run_bucket(b);  // mark_done best-effort
          }
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::max<std::int64_t>(dist.poll_ms, 1)));
      }
    }

    // Assembly: every pending cell is durable in some segment (done markers
    // imply flushed appends). Own cells first — everything this worker
    // executed is already in its segment handle's in-memory map, no disk —
    // then rival segments (and leftovers of crashed workers of earlier
    // generations) only for the cells still unaccounted for. A worker that
    // executed everything, and a sequential-adaptive consumer re-entering
    // with a cached segment handle, never re-read the directory.
    std::vector<std::size_t> unresolved;
    for (std::size_t u = 0; u < pending.size(); ++u) {
      const Unit& unit = pending[u];
      JournalCell cell;
      if (sink->lookup(point_hashes[active[unit.a]], unit.image, &cell)) {
        correct[unit.a].fetch_add(cell.correct, std::memory_order_relaxed);
        flips[unit.a].fetch_add(cell.flips, std::memory_order_relaxed);
      } else {
        unresolved.push_back(u);
      }
    }
    std::vector<Unit> missing;
    if (!unresolved.empty()) {
      std::unordered_map<std::uint64_t, JournalCell> durable;
      for (const ResultJournal::SegmentRef& seg :
           ResultJournal::list_segments(spec.store.dir)) {
        if (seg.env_hash != env || seg.path == sink->path()) continue;
        // Rival segments go through the process-wide read cache: only the
        // suffix appended since the last campaign is parsed, so
        // sequential-adaptive consumers (TMR planner checks) are O(new
        // cells), not O(all rival cells), per campaign. Torn tails are
        // tolerated exactly as with a direct read.
        std::vector<JournalCell> cells;
        if (!read_segment_cells_cached(seg.path, env, &cells)) continue;
        for (const JournalCell& cell : cells) {
          durable.emplace(journal_cell_key(cell.point_hash, cell.image),
                          cell);
        }
      }
      for (const std::size_t u : unresolved) {
        const Unit& unit = pending[u];
        const auto it = durable.find(pending_keys[u]);
        // journal_cell_key is a lossy 64-bit hash: verify the full identity
        // (as ResultJournal::lookup does) so a key collision counts as
        // missing and self-heals instead of tallying the wrong cell.
        if (it == durable.end() ||
            it->second.point_hash != point_hashes[active[unit.a]] ||
            it->second.image != unit.image) {
          missing.push_back(unit);
          continue;
        }
        correct[unit.a].fetch_add(it->second.correct,
                                  std::memory_order_relaxed);
        flips[unit.a].fetch_add(it->second.flips, std::memory_order_relaxed);
      }
    }
    result.stats.dist_cells_recovered =
        static_cast<std::int64_t>(unresolved.size() - missing.size());
    recovered_metric.add(result.stats.dist_cells_recovered);
    if (!missing.empty()) {
      // Self-heal: a done marker without durable cells (e.g. a segment hit
      // disk-full after its bucket was marked) — execute the gap here. The
      // cells a cancelled run skipped land here too; the executor defers
      // them.
      if (!is_cancelled()) {
        WF_WARN << "campaign: " << missing.size()
                << " cell(s) missing from every segment; re-executing "
                   "locally";
        if (telemetry::events_enabled()) {
          telemetry::emit_event(
              "dist_heal", {{"worker", tag}},
              {{"cells", static_cast<std::int64_t>(missing.size())}});
        }
      }
      const std::int64_t done_before = done.load();
      run_slice(missing.data(), missing.size(), true, {});
      result.stats.dist_cells_healed = done.load() - done_before;
      healed_metric.add(result.stats.dist_cells_healed);
    }
  }

  result.stats.cells_deferred += cancelled.load();
  for (std::size_t a = 0; a < active.size(); ++a) {
    const CampaignPoint& point = spec.points[active[a]];
    const double point_inferences = static_cast<double>(images) *
                                    static_cast<double>(point.trials);
    EvalResult& r = result.points[active[a]];
    r.images = static_cast<int>(images);
    r.accuracy = static_cast<double>(correct[a].load()) / point_inferences;
    r.avg_flips = static_cast<double>(flips[a].load()) / point_inferences;
  }
  result.stats.inferences = inferences.load();
  if (distributed) result.stats.dist_cells_executed = done.load();
  // A shared warm tier outlives this campaign: flushing (and the decision
  // when to) belongs to its owner — the daemon flushes at drain.
  if (spec.warm_goldens == nullptr) {
    result.stats.golden_flushed = lru.flush_to_store();
  }
  result.stats.golden_builds = lru.builds() - lru_builds_base;
  result.stats.golden_hits = lru.hits() - lru_hits_base;
  result.stats.golden_evictions = lru.evictions() - lru_evictions_base;
  if (sink != nullptr) {
    result.stats.journal_cells_written = sink->appended_cells() - sink_base;
  }
  if (golden_store != nullptr) {
    result.stats.golden_spills = golden_store->spills() - spills_base;
    result.stats.golden_restores = golden_store->restores() - restores_base;
  }
  return result;
}

CampaignResult run_campaign(const Network& network, const Dataset& dataset,
                            const CampaignSpec& spec) {
  return CampaignRunner(network, dataset).run(spec);
}

void set_campaign_submit_hook(CampaignSubmitHook hook) {
  submit_hook_ref() = std::move(hook);
}

}  // namespace winofault
