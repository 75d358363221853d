// Engine workloads: static-8k, mobile-8k, far-64k (see perfbench/README.md
// for why each exists and which layers it loads or bypasses).
//
// A run repeats "build the instance, run it" until --seconds have passed.
// Every repetition is timed from outside through public calls only
// (Engine::step, Dynamics::step, Protocol, Recorder, Channel::resolve and
// resolve_into, GainTable::ensure_rows, the field kernels), and every one
// is checked:
//   * its per-slot outcome digest (TraceHashRecorder) must equal the first
//     repetition's — the engine is deterministic under a seed;
//   * sampled slots are re-resolved with Channel::resolve(), the reference
//     specification, and every decode source, clear flag, CD/busy and ACK
//     decision is compared. The time spent checking is subtracted from the
//     round it happened in.
//
// In traced runs (--trace 1) repetitions alternate between untraced and
// traced; traced ones wrap the dynamics and every protocol in timing
// decorators, attach an Obs handle, and keep all phase spans in memory
// until the run ends.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/determinism.h"
#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "bench.h"
#include "common/rng.h"
#include "core/broadcast.h"
#include "core/local_broadcast.h"
#include "core/try_adjust.h"
#include "obs/obs.h"
#include "phy/channel.h"
#include "phy/far_field.h"
#include "phy/gain_table.h"
#include "phy/interference.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "topo/generators.h"

namespace perfbench {
namespace {

using namespace udwn;

enum class Kind { kStatic, kMobile, kFar };

struct Spec {
  Kind kind = Kind::kStatic;
  std::size_t n = 0;
  int threads = 1;
  int slots = 1;
  /// Rounds per repetition; 0 = run LocalBcast until every node is done.
  Round rounds_per_rep = 0;
  /// Completion budget of a run-to-completion repetition.
  Round max_rounds = 0;
  double far_eps = 0;
  double cell_factor = 2.0;
  /// Quantile reported as tail_ms. p99 where a run has the samples for it
  /// and one thread; with more threads the p99 round is the one in which
  /// the host preempted a worker at the slot barrier, and it swung 2x
  /// between identical runs, so those workloads report p90.
  double tail_q = 0.99;
  /// A resolve() check every this many slots, at most check_budget checks
  /// per run (all in the first repetition).
  std::uint64_t check_every = 1;
  int check_budget = 0;
  /// Kernel replay window (first repetition of a traced run): the
  /// transmitter sets of capture_warm + capture_timed consecutive slots
  /// from slot capture_start on. Replaying them in order repeats the run's
  /// gain-table LRU traffic; the first capture_warm slots only warm it.
  std::uint64_t capture_start = 0;
  std::uint64_t capture_warm = 0;
  std::uint64_t capture_timed = 0;
};

// Density 8 nodes per unit area (R = 1) everywhere: the instance's extent
// is sqrt(n / 8).
constexpr double kDensity = 8.0;
// far-64k: expected transmitters per slot, independent of n (the committed
// bench_bignode setting).
constexpr double kFarTargetTx = 768.0;

Spec spec_for(const std::string& name, bool smoke) {
  Spec s;
  if (name == "static-8k") {
    s = {.kind = Kind::kStatic, .n = 8192, .threads = 1, .slots = 1,
         .rounds_per_rep = 0, .max_rounds = 100000, .tail_q = 0.99,
         .check_every = 97, .check_budget = 8, .capture_start = 200,
         .capture_warm = 80, .capture_timed = 48};
  } else if (name == "mobile-8k") {
    // Two threads: at n = 8192 the gain table has two column blocks, and
    // the sharded field engages only with at least one block per thread.
    // With four threads the unsharded path ran, and its rounds/s halved in
    // 4 of 10 runs whenever the host stole time from one of the 4 CPUs.
    s = {.kind = Kind::kMobile, .n = 8192, .threads = 2, .slots = 2,
         .rounds_per_rep = 600, .tail_q = 0.90, .check_every = 151,
         .check_budget = 8, .capture_start = 200, .capture_warm = 80,
         .capture_timed = 48};
  } else {
    s = {.kind = Kind::kFar, .n = 65536, .threads = 4, .slots = 1,
         .rounds_per_rep = 30, .far_eps = 0.25, .cell_factor = 0.5,
         .tail_q = 0.90, .check_every = 11, .check_budget = 2,
         .capture_start = 10, .capture_warm = 1, .capture_timed = 6};
  }
  if (smoke) {
    s.n = s.kind == Kind::kFar ? 4096 : 256;
    if (s.rounds_per_rep != 0) s.rounds_per_rep = s.kind == Kind::kFar ? 4 : 30;
    s.check_every = 3;
    s.capture_start = 2;
    s.capture_warm = 2;
    s.capture_timed = 2;
  }
  return s;
}

/// Fixed transmit probability (bench_bignode's FixedProbProtocol): the
/// contention stays ~kFarTargetTx per slot whatever n is.
class FixedProbProtocol final : public Protocol {
 public:
  explicit FixedProbProtocol(double p) : p_(p) {}
  double transmit_probability(Slot) override { return p_; }
  void on_slot(const SlotFeedback&) override {}

 private:
  double p_;
};

/// Phase boundaries of one slot as seen from outside the engine:
///   round start / end of dynamics -> first transmit_probability
///     = invalidation (collect_delta + apply_delta + clock advance)
///   first -> last transmit_probability            = protocol decisions
///   last transmit_probability -> first on_slot    = Channel::resolve_into
///   first on_slot -> Recorder::on_slot            = feedback to protocols
/// The engine asks every alive node (synchronous clocks) for its
/// probability, so the last call is the alive_count()-th one.
struct PhaseClock {
  struct Span {
    std::uint32_t round = 0;
    std::uint8_t slot = 0;
    std::int64_t start_ns = 0;
    std::int64_t decide_ns = 0;
    std::int64_t resolve_ns = 0;
    std::int64_t feedback_ns = 0;
  };

  const Network* network = nullptr;
  std::int64_t round_start = 0;
  std::int64_t dyn_end = 0;
  bool first_slot = true;
  std::size_t tp_calls = 0;
  std::size_t fb_calls = 0;
  std::int64_t decide_start = 0;
  std::int64_t decide_end = 0;
  std::int64_t feedback_start = 0;

  std::int64_t dynamics_ns = 0;
  std::int64_t invalidate_ns = 0;
  std::int64_t decide_ns = 0;
  std::int64_t resolve_ns = 0;
  std::int64_t feedback_ns = 0;
  std::uint64_t slots = 0;
  std::uint64_t rounds = 0;
  std::uint32_t round_index = 0;
  std::uint8_t slot_index = 0;
  std::vector<Span> spans;  // kept in memory, written when the run ends

  void begin_round(std::uint32_t round) {
    round_start = now_ns();
    dyn_end = 0;
    first_slot = true;
    round_index = round;
    slot_index = 0;
    ++rounds;
  }
  void dynamics_done(std::int64_t start, std::int64_t end) {
    dynamics_ns += end - start;
    dyn_end = end;
  }
  void on_probability() {
    if (tp_calls == 0) {
      decide_start = now_ns();
      if (first_slot) {
        invalidate_ns += decide_start - (dyn_end != 0 ? dyn_end : round_start);
        first_slot = false;
      }
    }
    if (++tp_calls == network->alive_count()) decide_end = now_ns();
  }
  void on_feedback() {
    if (fb_calls++ == 0) {
      feedback_start = now_ns();
      if (tp_calls == 0) decide_start = decide_end = feedback_start;
      decide_ns += decide_end - decide_start;
      resolve_ns += feedback_start - decide_end;
    }
  }
  void slot_end() {
    const std::int64_t t = now_ns();
    if (fb_calls == 0) feedback_start = t;
    feedback_ns += t - feedback_start;
    spans.push_back(Span{.round = round_index,
                         .slot = slot_index,
                         .start_ns = decide_start,
                         .decide_ns = decide_end - decide_start,
                         .resolve_ns = feedback_start - decide_end,
                         .feedback_ns = t - feedback_start});
    tp_calls = 0;
    fb_calls = 0;
    ++slots;
    ++slot_index;
  }
};

/// Forwards every call to the wrapped protocol, reporting the boundaries of
/// the decide and feedback phases to the shared PhaseClock.
class TimedProtocol final : public Protocol {
 public:
  TimedProtocol(std::unique_ptr<Protocol> inner, PhaseClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}
  void on_start() override { inner_->on_start(); }
  double transmit_probability(Slot slot) override {
    clock_->on_probability();
    return inner_->transmit_probability(slot);
  }
  std::uint32_t payload(Slot slot) const override {
    return inner_->payload(slot);
  }
  void on_slot(const SlotFeedback& feedback) override {
    clock_->on_feedback();
    inner_->on_slot(feedback);
  }
  bool finished() const override { return inner_->finished(); }
  std::uint32_t obs_state() const override { return inner_->obs_state(); }

 private:
  std::unique_ptr<Protocol> inner_;
  PhaseClock* clock_;
};

class TimedDynamics final : public Dynamics {
 public:
  TimedDynamics(Dynamics* inner, PhaseClock* clock)
      : inner_(inner), clock_(clock) {}
  ChangeSet step(Network& network, Rng& rng, Round round) override {
    const std::int64_t t0 = now_ns();
    ChangeSet changes = inner_->step(network, rng, round);
    clock_->dynamics_done(t0, now_ns());
    return changes;
  }

 private:
  Dynamics* inner_;
  PhaseClock* clock_;
};

/// Decisions compared against Channel::resolve() on sampled slots.
struct CheckStats {
  std::uint64_t slots = 0;
  std::uint64_t decisions = 0;
  std::uint64_t decode = 0;  // decoded_from differs
  std::uint64_t clear = 0;   // Def. 1 clear flag differs (transmitters)
  std::uint64_t busy = 0;    // CD outcome differs (alive listeners)
  std::uint64_t ack = 0;     // ACK outcome differs (transmitters)
  std::int64_t ns = 0;       // time spent checking (excluded from rounds)
  [[nodiscard]] std::uint64_t mismatches() const {
    return decode + clear + busy + ack;
  }
};

struct Instance {
  std::unique_ptr<Scenario> scenario;
  std::optional<CarrierSensing> sensing;
  std::vector<std::unique_ptr<Protocol>> protocols;
  std::unique_ptr<ChurnDynamics> churn;
  std::unique_ptr<WaypointMobility> mobility;
  std::unique_ptr<CompositeDynamics> dynamics;
  std::unique_ptr<TimedDynamics> timed_dynamics;
  std::unique_ptr<Engine> engine;
};

std::unique_ptr<Scenario> build_scenario(const Spec& spec,
                                         std::uint64_t seed) {
  Rng rng(mix_seed(seed, 1));
  const double extent = std::sqrt(static_cast<double>(spec.n) / kDensity);
  return std::make_unique<Scenario>(uniform_square(spec.n, extent, rng),
                                    ScenarioConfig{});
}

EngineConfig engine_config(const Spec& spec, std::uint64_t seed, Obs* obs) {
  return EngineConfig{.slots_per_round = spec.slots,
                      .seed = mix_seed(seed, 2),
                      .threads = spec.threads,
                      .far_field_eps = spec.far_eps,
                      .far_field_cell_factor = spec.cell_factor,
                      .obs = obs};
}

Instance build(const Spec& spec, std::uint64_t seed, Obs* obs,
               PhaseClock* clock) {
  Instance in;
  in.scenario = build_scenario(spec, seed);
  Scenario& s = *in.scenario;
  const std::size_t n = spec.n;
  const double extent = std::sqrt(static_cast<double>(n) / kDensity);
  in.sensing.emplace(spec.kind == Kind::kMobile ? s.sensing_broadcast()
                                                : s.sensing_local());
  in.protocols = make_protocols(n, [&](NodeId) -> std::unique_ptr<Protocol> {
    std::unique_ptr<Protocol> p;
    switch (spec.kind) {
      case Kind::kStatic:
        p = std::make_unique<LocalBcastProtocol>(TryAdjust::standard(n, 1.0));
        break;
      case Kind::kMobile:
        // Every node starts with a message (spontaneous): each round then
        // carries a fully informed network's contention. From a single
        // source, round cost tracks how far the wave has spread, which
        // varies by seed by up to 3x over the first thousands of rounds.
        p = std::make_unique<BcastProtocol>(TryAdjust::standard(n, 2.0),
                                            BcastProtocol::Mode::Dynamic,
                                            /*source=*/false,
                                            /*spontaneous=*/true);
        break;
      case Kind::kFar:
        p = std::make_unique<FixedProbProtocol>(
            std::min(1.0, kFarTargetTx / static_cast<double>(n)));
        break;
    }
    if (clock != nullptr)
      return std::make_unique<TimedProtocol>(std::move(p), clock);
    return p;
  });
  in.engine = std::make_unique<Engine>(s.channel(), s.network(), *in.sensing,
                                       in.protocols,
                                       engine_config(spec, seed, obs));
  if (spec.kind == Kind::kMobile) {
    in.churn = std::make_unique<ChurnDynamics>(
        ChurnDynamics::Config{.arrival_rate = 1,
                              .departure_rate = 1,
                              .placement_extent = extent,
                              .pinned = {NodeId{0}}});
    in.mobility = std::make_unique<WaypointMobility>(
        *s.euclidean(), WaypointMobility::Config{.speed = 0.01,
                                                 .extent = extent,
                                                 .mobile_fraction = 1.0 / 32});
    in.dynamics = std::make_unique<CompositeDynamics>(
        std::vector<Dynamics*>{in.churn.get(), in.mobility.get()});
    Dynamics* d = in.dynamics.get();
    if (clock != nullptr) {
      in.timed_dynamics = std::make_unique<TimedDynamics>(d, clock);
      d = in.timed_dynamics.get();
    }
    in.engine->set_dynamics(d);
  }
  if (clock != nullptr) clock->network = &s.network();
  return in;
}

/// Digest + oracle check + transmitter-set capture + phase slot end.
class BenchRecorder final : public Recorder {
 public:
  BenchRecorder(const Scenario& scenario, const CarrierSensing& sensing,
                const Spec& spec, CheckStats* check, PhaseClock* clock,
                std::vector<std::vector<NodeId>>* capture)
      : scenario_(&scenario),
        sensing_(&sensing),
        spec_(&spec),
        check_(check),
        clock_(clock),
        capture_(capture) {}

  void on_slot(Round round, Slot slot, const SlotOutcome& outcome,
               const Engine& engine) override {
    if (clock_ != nullptr) clock_->slot_end();
    hash_.on_slot(round, slot, outcome, engine);
    if (check_ != nullptr &&
        check_->slots < static_cast<std::uint64_t>(spec_->check_budget) &&
        slot_counter_ % spec_->check_every == spec_->check_every - 1)
      compare(outcome);
    if (capture_ != nullptr && slot_counter_ >= spec_->capture_start &&
        capture_->size() < spec_->capture_warm + spec_->capture_timed)
      capture_->push_back(outcome.transmitters);
    ++slot_counter_;
  }
  void on_round_end(Round round, const Engine& engine) override {
    hash_.on_round_end(round, engine);
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_.final_hash(); }

 private:
  void compare(const SlotOutcome& out) {
    const std::int64_t t0 = now_ns();
    const auto alive = scenario_->network().alive_mask();
    // Every engine here runs both slots at full power
    // (EngineConfig::notify_power_scale = 1).
    const SlotOutcome ref =
        scenario_->channel().resolve(out.transmitters, alive, 1.0);
    CheckStats& c = *check_;
    for (std::size_t v = 0; v < alive.size(); ++v) {
      if (alive[v] == 0) continue;
      c.decisions += 2;
      c.decode += ref.decoded_from[v] != out.decoded_from[v];
      c.busy += sensing_->busy(ref.interference[v]) !=
                sensing_->busy(out.interference[v]);
    }
    for (NodeId u : out.transmitters) {
      c.decisions += 2;
      c.clear += (ref.clear[u.value] != 0) != (out.clear[u.value] != 0);
      c.ack += sensing_->ack(ref.interference[u.value]) !=
               sensing_->ack(out.interference[u.value]);
    }
    ++c.slots;
    c.ns += now_ns() - t0;
  }

  const Scenario* scenario_;
  const CarrierSensing* sensing_;
  const Spec* spec_;
  CheckStats* check_;
  PhaseClock* clock_;
  std::vector<std::vector<NodeId>>* capture_;
  TraceHashRecorder hash_;
  std::uint64_t slot_counter_ = 0;
};

bool all_done(const Instance& in) {
  const Network& net = in.scenario->network();
  for (std::uint32_t v = 0; v < net.size(); ++v)
    if (net.alive(NodeId{v}) && !in.protocols[v]->finished()) return false;
  return true;
}

struct ReplayTimes {
  double fill_us = 0;
  double field_us = 0;
  double decode_us = 0;
  std::size_t slots = 0;
};

/// Replays the captured window in order through one workspace, so the
/// gain table sees the run's LRU traffic; the first capture_warm slots only
/// warm it. Each timed slot runs three public calls in turn:
///   GainTable::ensure_rows           -> fill (the slot's tile refills)
///   Channel::resolve_into            -> rows now resident: field + decode
///   the field kernel the pipeline picks, again -> field
/// and decode = resolve_into − field is resolve_into's self time. On
/// far-64k the gain table is bypassed and the kernel is
/// FarFieldWorkspace::field_into.
ReplayTimes replay(const Spec& spec, std::uint64_t seed,
                   const std::vector<std::vector<NodeId>>& sets) {
  ReplayTimes out;
  const auto scenario = build_scenario(spec, seed);
  Scenario& s = *scenario;
  const auto alive = s.network().alive_mask();
  const std::uint64_t epoch = s.network().topology_epoch();
  SlotWorkspace ws(SlotWorkspaceConfig{
      .far_field_eps = spec.far_eps,
      .far_field_cell_factor = spec.cell_factor,
      .threads = spec.threads});
  const std::optional<FarFieldParams> far =
      spec.far_eps > 0
          ? far_field_params(spec.far_eps,
                             spec.cell_factor * s.model().max_range(),
                             s.pathloss())
          : std::nullopt;
  FarFieldWorkspace far_ws;
  std::vector<double> field;
  std::vector<const double*> scratch;
  std::int64_t fill = 0;
  std::int64_t resolve = 0;
  std::int64_t kernel = 0;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const std::vector<NodeId>& set = sets[i];
    GainTable* gains = ws.cache().gains();
    if (i < spec.capture_warm || (gains == nullptr && !far.has_value())) {
      // Also binds the cache on the first call.
      (void)s.channel().resolve_into(set, alive, 1.0, epoch, ws);
      continue;
    }
    const std::int64_t t0 = now_ns();
    const bool resident =
        !far.has_value() && gains->ensure_rows(set, ws.pool());
    const std::int64_t t1 = now_ns();
    (void)s.channel().resolve_into(set, alive, 1.0, epoch, ws);
    const std::int64_t t2 = now_ns();
    if (far.has_value()) {
      far_ws.field_into(*s.euclidean(), s.pathloss(), set, *far, field,
                        ws.pool());
    } else if (resident) {
#if __has_include("phy/simd.h")
      interference_field_simd(*gains, set, scratch, field, ws.simd_level(),
                              ws.pool());
#else
      interference_field_soa(*gains, set, scratch, field, ws.pool());
#endif
    }
    const std::int64_t t3 = now_ns();
    fill += t1 - t0;
    resolve += t2 - t1;
    kernel += t3 - t2;
    ++out.slots;
  }
  if (out.slots == 0) return out;
  const double k = 1e3 * static_cast<double>(out.slots);
  out.fill_us = static_cast<double>(fill) / k;
  out.field_us = static_cast<double>(kernel) / k;
  out.decode_us = std::max<double>(0, static_cast<double>(resolve - kernel) / k);
  return out;
}

}  // namespace

Result run_engine_workload(const Options& o) {
  const Spec spec = spec_for(o.workload, o.smoke);
  Result r;
  const std::int64_t t_start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(o.seconds * 1e9);
  const int min_reps = 2;

  Obs obs(ObsConfig{.worker_spans = true});
  PhaseClock clock;
  CheckStats check;
  std::vector<std::vector<NodeId>> captured;

  std::vector<double> setup_s;
  std::vector<double> rps_plain;   // untraced repetitions
  std::vector<double> rps_traced;  // traced repetitions
  std::vector<double> round_ms_plain;
  std::vector<double> round_ms_traced;
  std::optional<std::uint64_t> digest0;
  std::uint64_t rounds_total = 0;
  Round rounds_first = 0;

  // Set-up is cheap next to a repetition; sample it a few extra times so
  // its median is steady.
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = now_ns();
    const Instance in = build(spec, o.seed, nullptr, nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  for (int rep = 0;; ++rep) {
    const bool traced = o.trace && rep % 2 == 1;
    const std::int64_t t0 = now_ns();
    Instance in = build(spec, o.seed, traced ? &obs : nullptr,
                        traced ? &clock : nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);

    BenchRecorder rec(*in.scenario, *in.sensing, spec,
                      rep == 0 ? &check : nullptr, traced ? &clock : nullptr,
                      rep == 0 && o.trace ? &captured : nullptr);
    in.engine->set_recorder(&rec);

    std::int64_t step_ns = 0;
    Round rounds = 0;
    bool done = false;
    auto& round_ms = traced ? round_ms_traced : round_ms_plain;
    while (true) {
      if (traced) clock.begin_round(static_cast<std::uint32_t>(rounds));
      const std::int64_t check_before = check.ns;
      const std::int64_t t = now_ns();
      in.engine->step();
      const std::int64_t dt = now_ns() - t - (check.ns - check_before);
      step_ns += dt;
      round_ms.push_back(static_cast<double>(dt) / 1e6);
      ++rounds;
      if (spec.rounds_per_rep == 0) {
        if (all_done(in)) {
          done = true;
          break;
        }
        if (rounds >= spec.max_rounds) break;
      } else if (rounds >= spec.rounds_per_rep) {
        break;
      }
    }
    rounds_total += static_cast<std::uint64_t>(rounds);
    if (spec.rounds_per_rep == 0 && !done)
      r.fail("LocalBcast did not complete within " +
             std::to_string(spec.max_rounds) + " rounds");
    if (rep == 0) rounds_first = rounds;
    const std::uint64_t digest = rec.digest();
    if (!digest0.has_value()) {
      digest0 = digest;
    } else if (digest != *digest0 || rounds != rounds_first) {
      r.fail("repetition " + std::to_string(rep) + " digest " + hex64(digest) +
             " differs from repetition 0 digest " + hex64(*digest0));
    }
    (traced ? rps_traced : rps_plain)
        .push_back(static_cast<double>(rounds) /
                   (static_cast<double>(step_ns) / 1e9));
    std::fprintf(stderr, "%s rep %d%s: %lld rounds, %.1f rounds/s\n",
                 o.workload.c_str(), rep, traced ? " (traced)" : "",
                 static_cast<long long>(rounds),
                 static_cast<double>(rounds) /
                     (static_cast<double>(step_ns) / 1e9));
    // The resolve() checks are not part of the measured work: at n = 65536
    // one checked slot costs several seconds.
    if (rep + 1 >= min_reps && now_ns() - t_start - check.ns >= budget_ns)
      break;
  }

  // Correctness: the exact workloads must agree with resolve() on every
  // checked decision, so the failed-operation share is the mismatch ratio.
  // far-64k runs the ε-certified approximation, whose certificate bounds
  // the field and not the decisions: its flips are reported as measured
  // (phy.far.* in traced runs, the detail line always), not counted failed.
  const bool exact = spec.far_eps == 0;
  r.attempted = std::max<std::uint64_t>(1, check.decisions);
  if (exact && check.mismatches() != 0) {
    r.failed = check.mismatches();
    r.fail("slot pipeline disagrees with Channel::resolve() on " +
           std::to_string(check.mismatches()) + " of " +
           std::to_string(check.decisions) + " checked decisions");
  }
  if (check.slots == 0) r.fail("no slot was checked against resolve()");
  const double mismatch_ratio =
      check.decisions == 0 ? 0
                           : static_cast<double>(check.mismatches()) /
                                 static_cast<double>(check.decisions);

  r.note("digest", json_string(hex64(digest0.value_or(0))));
  r.note("rounds_first_rep", std::to_string(rounds_first));
  r.note("rounds_total", std::to_string(rounds_total));
  r.note("repetitions", std::to_string(rps_plain.size() + rps_traced.size()));
  r.note("round_samples", std::to_string(round_ms_plain.size()));
  r.note("tail_quantile", json_number(spec.tail_q));
  r.note("checked_slots", std::to_string(check.slots));
  r.note("checked_decisions", std::to_string(check.decisions));
  r.note("check_s", json_number(static_cast<double>(check.ns) / 1e9));
  r.note("mismatch_ratio", json_number(mismatch_ratio));
  r.note("flipped", "{\"decode\": " + std::to_string(check.decode) +
                        ", \"clear\": " + std::to_string(check.clear) +
                        ", \"busy\": " + std::to_string(check.busy) +
                        ", \"ack\": " + std::to_string(check.ack) + "}");
  r.note("n", std::to_string(spec.n));
  r.note("threads", std::to_string(spec.threads));

  if (!o.trace) {
    r.metric("setup_s", median(setup_s), "s");
    r.metric("rounds_per_s", median(rps_plain), "1/s");
    r.metric("p50_ms", median(round_ms_plain), "ms");
    r.metric("tail_ms", quantile(round_ms_plain, spec.tail_q), "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  // ---- traced run: per-layer metrics ------------------------------------
  const ReplayTimes rt = replay(spec, o.seed, captured);
  const MetricsRegistry& m = obs.metrics();
  const EngineCounterIds& id = obs.ids();
  const auto total = [&](MetricId x) {
    return static_cast<double>(m.total(x));
  };
  const double rounds = std::max(1.0, total(id.rounds));
  const double slots = std::max(1.0, total(id.slots));
  const double per_round = 1.0 / (1e6 * static_cast<double>(clock.rounds));
  const double per_slot = 1.0 / (1e6 * static_cast<double>(clock.slots));
  const double hits = total(id.gain_hits);
  const double lookups = hits + total(id.gain_misses);

  r.metric("sim.round_ms.p50", median(round_ms_traced), "ms");
  r.metric("sim.round_ms.p99", quantile(round_ms_traced, 0.99), "ms");
  r.metric("sim.dynamics_ms", static_cast<double>(clock.dynamics_ns) * per_round,
           "ms");
  r.metric("phy.invalidate_ms",
           static_cast<double>(clock.invalidate_ns) * per_round, "ms");
  r.metric("core.decide_ms", static_cast<double>(clock.decide_ns) * per_slot,
           "ms");
  r.metric("phy.resolve_ms", static_cast<double>(clock.resolve_ns) * per_slot,
           "ms");
  r.metric("core.feedback_ms",
           static_cast<double>(clock.feedback_ns) * per_slot, "ms");
  r.metric("phy.gain_fill_us", rt.fill_us, "us");
  r.metric("phy.field_us", rt.field_us, "us");
  r.metric("phy.decode_us", rt.decode_us, "us");
  r.metric("phy.gain.hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  r.metric("phy.gain.fills_per_round", total(id.gain_fills) / rounds, "count");
  r.metric("phy.gain.evictions_per_round", total(id.gain_evictions) / rounds,
           "count");
  r.metric("sim.pool.wait_ms_per_round", total(id.pool_wait_ns) / rounds / 1e6,
           "ms");
  r.metric("sim.pool.idle_ms_per_round", total(id.pool_idle_ns) / rounds / 1e6,
           "ms");
  r.metric("core.tx_per_slot", total(id.transmissions) / slots, "count");
  r.metric("core.deliveries_per_tx",
           total(id.deliveries) / std::max(1.0, total(id.transmissions)),
           "ratio");
  r.metric("core.collisions_per_slot", total(id.collisions) / slots, "count");
  r.metric("phy.far.flipped_decodes", exact ? 0 : static_cast<double>(check.decode),
           "count");
  r.metric("phy.far.flipped_clear", exact ? 0 : static_cast<double>(check.clear),
           "count");
  r.metric("phy.far.flipped_busy", exact ? 0 : static_cast<double>(check.busy),
           "count");
  r.metric("check.mismatch_ratio", mismatch_ratio, "ratio");
  r.metric("trace.overhead_pct",
           100.0 * (median(rps_plain) / median(rps_traced) - 1.0), "%");
  r.note("replay_slots", std::to_string(rt.slots));

  // Spans were kept in memory; write them (and the Obs trace) now.
  const std::string base = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed);
  if (!obs.write(base + ".udwntrc")) r.fail("cannot write " + base + ".udwntrc");
  std::ofstream spans(base + ".phases.jsonl");
  for (const PhaseClock::Span& sp : clock.spans)
    spans << "{\"round\":" << sp.round << ",\"slot\":" << int(sp.slot)
          << ",\"start_ns\":" << sp.start_ns << ",\"decide_ns\":"
          << sp.decide_ns << ",\"resolve_ns\":" << sp.resolve_ns
          << ",\"feedback_ns\":" << sp.feedback_ns << "}\n";
  if (!spans) r.fail("cannot write " + base + ".phases.jsonl");
  r.note("trace_files", json_string(base + ".{udwntrc,phases.jsonl}"));
  return r;
}

}  // namespace perfbench
