/// Sharded parallel-DES engine (DESIGN.md §4.11, §4.12) through the full
/// runtime: determinism per shard count and identical results across shard
/// counts, cross-shard asynchronous constructs at paper scale, cross-shard
/// deadlock and watchdog postmortems, fault plans and obs span capture
/// under sharding, conservative windows, and the remaining zero-lookahead
/// fallback to one shard.

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/caf2.hpp"
#include "core/detectors.hpp"
#include "obs/export.hpp"
#include "obs/postmortem.hpp"
#include "runtime/internal.hpp"
#include "runtime/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace {

using namespace caf2;

RuntimeOptions shard_options(int images, int shards, std::uint64_t seed) {
  RuntimeOptions options;
  options.num_images = images;
  options.shards = shards;
  options.net.latency_us = 4.0;
  options.net.bandwidth_bytes_per_us = 400.0;
  options.net.handler_cost_us = 0.1;
  options.net.jitter_us = 2.0;
  options.seed = seed;
  options.max_events = 50'000'000;
  options.record_trace = true;
  return options;
}

constexpr int kMixedRounds = 5;
/// Slots after the rounds: the world allreduce, the nested team's copy and
/// the half team's allreduce.
constexpr int kWorldSumSlot = kMixedRounds;
constexpr int kPartnerSlot = kMixedRounds + 1;
constexpr int kHalfSumSlot = kMixedRounds + 2;
constexpr int kMixedSlots = kMixedRounds + 3;

/// Mixed workload with plenty of cross-image (and, when sharded,
/// cross-shard) traffic: asynchronous copies under a finish, a cofence per
/// round, an allreduce, and barriers. Round r writes the sender's rank into
/// slot r of its r-th successor; the slots after the rounds hold the world
/// allreduce and the results of split teams: the world splits into halves
/// by parity and each half again into quarters, every quarter member copies
/// its rank to its quarter successor under a finish on the quarter, and each
/// half sums its ranks. Returns the calling image's slots.
std::vector<long> mixed_workload_slots() {
  Team world = team_world();
  Coarray<long> slots(world, kMixedSlots);
  for (int i = 0; i < kMixedSlots; ++i) {
    slots[i] = -1;
  }
  team_barrier(world);
  const std::vector<long> payload{world.rank()};
  finish(world, [&] {
    for (int round = 0; round < kMixedRounds; ++round) {
      copy_async(
          slots((world.rank() + round) % world.size()).subslice(round, 1),
          std::span<const long>(payload));
      cofence();
    }
  });
  slots[kWorldSumSlot] = allreduce<long>(world, world.rank(), RedOp::kSum);
  Team half = world.split(world.rank() % 2, world.rank());
  Team quarter = half.split(half.rank() % 2, half.rank());
  finish(quarter, [&] {
    const int successor = (quarter.rank() + 1) % quarter.size();
    copy_async(slots(quarter.world_rank(successor)).subslice(kPartnerSlot, 1),
               std::span<const long>(payload));
    cofence();
  });
  slots[kHalfSumSlot] = allreduce<long>(half, world.rank(), RedOp::kSum);
  team_barrier(world);
  std::vector<long> out;
  for (int i = 0; i < kMixedSlots; ++i) {
    out.push_back(slots[i]);
  }
  return out;
}

void mixed_workload() { mixed_workload_slots(); }

struct Fingerprint {
  std::string trace;
  std::uint64_t events = 0;
  double end_us = 0.0;
  double image0_us = 0.0;
  int shards = 0;
  std::uint64_t windows = 0;
  std::vector<std::uint64_t> shard_events;
};

/// Run \p workload on a full runtime and capture the engine trace plus the
/// stats the determinism assertions compare.
Fingerprint fingerprint_run(const RuntimeOptions& options,
                            const std::function<void()>& workload) {
  rt::Runtime runtime(options);
  rt::install_event_handlers(runtime);
  ops::install_copy_handlers(runtime);
  ops::install_spawn_handlers(runtime);
  ops::install_collective_handlers(runtime);
  core::install_detector_handlers(runtime);
  Fingerprint fp;
  runtime.run([&] {
    workload();
    if (this_image() == 0) {
      fp.image0_us = now_us();
    }
  });
  fp.trace = sim::render_trace(runtime.engine().trace());
  fp.events = runtime.engine().event_count();
  fp.end_us = runtime.engine().now();
  fp.shards = runtime.engine().shard_count();
  fp.windows = runtime.engine().window_count();
  fp.shard_events = runtime.engine().shard_event_counts();
  return fp;
}

/// --- shards=1: one unbounded window, bit for bit -----------------------------

TEST(Shards, SerialEngineIsBitIdenticalAcrossRepeats) {
  const Fingerprint a = fingerprint_run(shard_options(3, 1, 7), mixed_workload);
  const Fingerprint b = fingerprint_run(shard_options(3, 1, 7), mixed_workload);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_us, b.end_us);
  EXPECT_EQ(a.image0_us, b.image0_us);
  // shards=1 runs the whole program in one unbounded window, with one
  // per-shard bucket holding every event.
  EXPECT_EQ(a.shards, 1);
  EXPECT_EQ(a.windows, 1u);
  ASSERT_EQ(a.shard_events.size(), 1u);
  EXPECT_EQ(a.shard_events[0], a.events);
}

TEST(Shards, ExplicitRequestBeatsEnvironment) {
  char* prior = std::getenv("CAF2_SIM_SHARDS");
  const std::string saved = prior != nullptr ? prior : "";
  ::setenv("CAF2_SIM_SHARDS", "3", 1);
  const RunStats pinned = run_stats(shard_options(4, 1, 11), mixed_workload);
  EXPECT_EQ(pinned.shards, 1);
  const RunStats from_env = run_stats(shard_options(4, 0, 11), mixed_workload);
  EXPECT_EQ(from_env.shards, 3);
  if (prior != nullptr) {
    ::setenv("CAF2_SIM_SHARDS", saved.c_str(), 1);
  } else {
    ::unsetenv("CAF2_SIM_SHARDS");
  }
}

/// --- fixed shard count: deterministic across repeats ------------------------

TEST(Shards, FixedCountIsDeterministicAcrossRepeats) {
  for (const int shards : {2, 4}) {
    const Fingerprint a =
        fingerprint_run(shard_options(8, shards, 21), mixed_workload);
    const Fingerprint b =
        fingerprint_run(shard_options(8, shards, 21), mixed_workload);
    EXPECT_EQ(a.trace, b.trace) << "shards=" << shards;
    EXPECT_EQ(a.events, b.events) << "shards=" << shards;
    EXPECT_EQ(a.end_us, b.end_us) << "shards=" << shards;
    EXPECT_EQ(a.image0_us, b.image0_us) << "shards=" << shards;
    EXPECT_EQ(a.shards, shards);
    ASSERT_EQ(a.shard_events.size(), static_cast<std::size_t>(shards));
    EXPECT_EQ(a.shard_events, b.shard_events) << "shards=" << shards;
    EXPECT_GT(a.windows, 0u) << "shards=" << shards;
  }
}

/// --- every shard count: the same results ------------------------------------

TEST(Shards, MixedWorkloadContentsMatchAcrossShardCounts) {
  const int images = 8;
  auto contents_at = [](int shards) {
    std::vector<std::vector<long>> per_image(images);
    run(shard_options(images, shards, 23),
        [&] { per_image[this_image()] = mixed_workload_slots(); });
    return per_image;
  };
  const std::vector<std::vector<long>> one = contents_at(1);
  for (int rank = 0; rank < images; ++rank) {
    ASSERT_EQ(one[rank].size(), static_cast<std::size_t>(kMixedSlots));
    for (int round = 0; round < kMixedRounds; ++round) {
      EXPECT_EQ(one[rank][round], (rank - round + images) % images)
          << "image " << rank << " round " << round;
    }
    EXPECT_EQ(one[rank][kWorldSumSlot], images * (images - 1) / 2);
    // Eight images: the quarters are {r, r + 4}, so each member's quarter
    // successor is its partner, and the half of parity p sums to 4p + 12.
    EXPECT_EQ(one[rank][kPartnerSlot], (rank + 4) % images) << "image " << rank;
    EXPECT_EQ(one[rank][kHalfSumSlot], 4 * (rank % 2) + 12) << "image " << rank;
  }
  EXPECT_EQ(contents_at(2), one);
  EXPECT_EQ(contents_at(4), one);
}

/// --- team splits: repeat-identical on every shard count ---------------------

constexpr int kNestedRounds = 4;

/// What one image saw of split_probe: the virtual time each split returned
/// at and the id of the team it returned, split by split.
struct SplitTrail {
  std::vector<double> exit_us;
  std::vector<int> ids;
  bool operator==(const SplitTrail&) const = default;
};

/// A world split into halves, then kNestedRounds rounds of concurrent nested
/// splits of each half. Each round first puts to the world successor
/// without waiting, so the put's ack lands while the image waits inside
/// the split.
SplitTrail split_probe() {
  Team world = team_world();
  Coarray<long> box(world, kNestedRounds);
  team_barrier(world);
  SplitTrail trail;
  const auto record = [&trail](const Team& team) {
    trail.exit_us.push_back(now_us());
    trail.ids.push_back(team.id());
  };
  Team half = world.split(world.rank() % 2, world.rank());
  record(half);
  const std::vector<long> payload{world.rank()};
  finish(world, [&] {
    for (int round = 0; round < kNestedRounds; ++round) {
      copy_async(box((world.rank() + 1) % world.size()).subslice(round, 1),
                 std::span<const long>(payload));
      record(half.split((half.rank() + round) % 2,
                        half.size() - half.rank()));
      cofence();
    }
  });
  return trail;
}

TEST(Shards, ConcurrentSplitsAreRepeatIdentical) {
  constexpr int kImages = 16;
  constexpr int kRepeats = 8;
  for (const int shards : {2, 4}) {
    const auto once = [shards] {
      RuntimeOptions options = shard_options(kImages, shards, 31);
      options.record_trace = false;
      std::vector<SplitTrail> trails(kImages);
      const RunStats stats = run_stats(options, [&trails] {
        trails[static_cast<std::size_t>(this_image())] = split_probe();
      });
      return std::make_pair(stats, trails);
    };
    const auto [first, first_trails] = once();
    ASSERT_EQ(first.shards, shards);
    ASSERT_EQ(first_trails[0].ids.size(),
              static_cast<std::size_t>(kNestedRounds + 1));
    for (int repeat = 1; repeat < kRepeats; ++repeat) {
      const auto [stats, trails] = once();
      EXPECT_EQ(stats.events, first.events)
          << "shards=" << shards << " repeat " << repeat;
      EXPECT_EQ(stats.context_switches, first.context_switches)
          << "shards=" << shards << " repeat " << repeat;
      EXPECT_EQ(stats.virtual_us, first.virtual_us)
          << "shards=" << shards << " repeat " << repeat;
      for (int image = 0; image < kImages; ++image) {
        const auto index = static_cast<std::size_t>(image);
        EXPECT_EQ(trails[index], first_trails[index])
            << "shards=" << shards << " repeat " << repeat << " image "
            << image;
      }
    }
  }
}

/// --- cross-shard constructs at paper scale ----------------------------------

TEST(Shards, CrossShardConstructsAtPaperScale) {
  RuntimeOptions options = shard_options(4096, 4, 5);
  options.record_trace = false;  // 4K images: keep memory flat
  const RunStats stats = run_stats(options, [] {
    Team world = team_world();
    Coarray<long> ring(world, 4);
    for (int i = 0; i < 4; ++i) {
      ring[i] = 0;
    }
    team_barrier(world);
    // Every image writes its rank to its ring successor; the edges that
    // straddle shard boundaries exercise staged cross-shard delivery.
    const std::vector<long> payload(4, world.rank());
    finish(world, [&] {
      copy_async(ring((world.rank() + 1) % world.size()),
                 std::span<const long>(payload));
      cofence();
    });
    const int prev = (world.rank() + world.size() - 1) % world.size();
    EXPECT_EQ(ring[0], prev);
    // A collective whose contributions cross every shard boundary.
    const long total = allreduce<long>(world, 1, RedOp::kSum);
    EXPECT_EQ(total, static_cast<long>(world.size()));
    team_barrier(world);
  });
  EXPECT_EQ(stats.shards, 4);
  ASSERT_EQ(stats.shard_events.size(), 4u);
  for (const std::uint64_t per_shard : stats.shard_events) {
    EXPECT_GT(per_shard, 0u);
  }
  EXPECT_GT(stats.windows, 0u);
}

void count_chain(std::int32_t remaining, Coref<long> counter) {
  counter.local()[0] += 1;
  if (remaining > 0) {
    const int next = (this_image() + 1) % num_images();
    spawn<count_chain>(next, remaining - 1, counter);
  }
}

TEST(Shards, FinishDetectionBoundHoldsAtPaperScaleSharded) {
  // Paper Theorem 1 (at most L+1 reduction waves) at 4K images on four
  // shards: the termination detector must stay within the bound when its
  // reduction waves cross shard boundaries, not merely terminate.
  const int depth = 6;
  RuntimeOptions options = shard_options(4096, 4, 53);
  options.record_trace = false;  // 4K images: keep memory flat
  const RunStats stats = run_stats(options, [depth] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      if (this_image() == 0) {
        spawn<count_chain>(1, depth, counter.ref());
      }
    });
    const long total = allreduce<long>(world, counter[0], RedOp::kSum);
    EXPECT_EQ(total, depth + 1);
    EXPECT_LE(last_finish_report().rounds, depth + 2);
    team_barrier(world);
  });
  EXPECT_EQ(stats.shards, 4);
}

/// --- cross-shard failure handling -------------------------------------------

std::string stalled_postmortem_text(const RuntimeOptions& options) {
  try {
    run(options, [] {
      // Every image waits on its own event; nobody notifies. The stall spans
      // shard boundaries, so detection requires the inter-shard quiescence
      // protocol, not just one shard running dry.
      CoEvent never(team_world());
      never.local().wait();
    });
  } catch (const obs::StallError& error) {
    if (error.postmortem() == nullptr) {
      ADD_FAILURE() << "stall error carried no postmortem";
      return {};
    }
    return obs::to_text(*error.postmortem());
  }
  ADD_FAILURE() << "expected obs::StallError";
  return {};
}

TEST(Shards, QuietPeriodWatchdogFiresAtWindowBoundariesOnEveryShardCount) {
  // The Postmortem.SlowNetworkQuietPeriodIsAStallNotACycle pattern: every
  // image blocks in a barrier whose messages are far beyond the quiet
  // period. Windows are capped at the quiet period on every shard count, so
  // the barrier-time check catches the gap on one shard and on two alike.
  std::string headline;
  for (const int shards : {1, 2}) {
    RuntimeOptions options = shard_options(2, shards, 19);
    options.net.latency_us = 5'000'000.0;
    options.net.jitter_us = 0.0;
    options.watchdog_quiet_us = 1'000.0;
    options.record_trace = false;
    try {
      run(options, [] { team_barrier(team_world()); });
      ADD_FAILURE() << "expected obs::StallError, shards=" << shards;
      continue;
    } catch (const obs::StallError& error) {
      ASSERT_NE(error.postmortem(), nullptr) << "shards=" << shards;
      const obs::Postmortem& pm = *error.postmortem();
      EXPECT_EQ(pm.kind, obs::FailKind::kQuietWatchdog) << "shards=" << shards;
      const std::string prefix =
          pm.headline.substr(0, pm.headline.find(" (next event"));
      EXPECT_EQ(prefix.rfind("watchdog: every image is blocked", 0), 0u)
          << pm.headline;
      if (headline.empty()) {
        headline = prefix;
      } else {
        EXPECT_EQ(prefix, headline) << "shards=" << shards;
      }
    }
  }
}

TEST(Shards, CrossShardDeadlockProducesDeterministicPostmortem) {
  RuntimeOptions options = shard_options(4, 2, 17);
  const std::string a = stalled_postmortem_text(options);
  const std::string b = stalled_postmortem_text(options);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The postmortem names every blocked image.
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_NE(a.find("image " + std::to_string(rank)), std::string::npos)
        << a;
  }
}

/// --- fault plans under sharding (DESIGN.md §4.12) ---------------------------

RuntimeOptions faulty_shard_options(int images, int shards,
                                    std::uint64_t seed) {
  RuntimeOptions options = shard_options(images, shards, seed);
  options.net.faults.all.drop_probability = 0.1;
  options.net.faults.all.dup_probability = 0.1;
  options.net.faults.all.ack_drop_probability = 0.1;
  options.net.faults.all.delay_probability = 0.1;
  options.net.faults.all.delay_max_us = 10.0;
  return options;
}

TEST(Shards, FaultPlansRunShardedAndDeterministically) {
  // Reliable delivery (retransmission, dedup, ack loss) runs under the
  // sharded engine with per-shard protocol cells: the run must keep
  // RunStats.shards > 1 and stay bit-identical across repeats.
  const RuntimeOptions options = faulty_shard_options(8, 4, 29);
  const Fingerprint a = fingerprint_run(options, mixed_workload);
  const Fingerprint b = fingerprint_run(options, mixed_workload);
  EXPECT_EQ(a.shards, 4);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_us, b.end_us);
  EXPECT_EQ(a.shard_events, b.shard_events);

  const RunStats stats = run_stats(options, mixed_workload);
  EXPECT_EQ(stats.shards, 4);
  // The plan fired across the whole fault surface.
  EXPECT_GT(stats.faults.deliveries_dropped, 0u);
  EXPECT_GT(stats.faults.retransmits, 0u);
  // Per-shard counters partition the totals.
  ASSERT_EQ(stats.shard_faults.size(), 4u);
  FaultStats summed;
  for (const FaultStats& cell : stats.shard_faults) {
    summed.deliveries_dropped += cell.deliveries_dropped;
    summed.deliveries_duplicated += cell.deliveries_duplicated;
    summed.deliveries_delayed += cell.deliveries_delayed;
    summed.acks_dropped += cell.acks_dropped;
    summed.retransmits += cell.retransmits;
    summed.duplicates_suppressed += cell.duplicates_suppressed;
    summed.scripted_applied += cell.scripted_applied;
  }
  EXPECT_EQ(summed.deliveries_dropped, stats.faults.deliveries_dropped);
  EXPECT_EQ(summed.retransmits, stats.faults.retransmits);
  EXPECT_EQ(summed.duplicates_suppressed, stats.faults.duplicates_suppressed);
  EXPECT_EQ(summed.acks_dropped, stats.faults.acks_dropped);
}

/// --- obs span capture under sharding (DESIGN.md §4.12) ----------------------

RuntimeOptions obs_shard_options(int images, int shards, std::uint64_t seed) {
  RuntimeOptions options = shard_options(images, shards, seed);
  options.record_trace = false;  // the capture text is the fingerprint here
  options.obs.enabled = true;
  return options;
}

TEST(Shards, ObsCaptureRunsShardedAndIsByteIdentical) {
  // Span capture no longer forces the engine serial: each shard records into
  // its own recorder lane and the merged capture must be byte-identical
  // across repeats (composite span ids + the deterministic merge order).
  const RuntimeOptions options = obs_shard_options(8, 4, 37);
  const RunStats a = run_stats(options, mixed_workload);
  const RunStats b = run_stats(options, mixed_workload);
  EXPECT_EQ(a.shards, 4);
  ASSERT_NE(a.obs, nullptr);
  ASSERT_NE(b.obs, nullptr);
  EXPECT_EQ(obs::to_text(*a.obs), obs::to_text(*b.obs));
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.virtual_us, b.virtual_us);
}

TEST(Shards, ObsCaptureDoesNotPerturbShardedSchedules) {
  // The obs-on/obs-off schedule-identity guarantee must survive sharding:
  // recording only ever appends to per-shard buffers.
  RuntimeOptions off = shard_options(8, 4, 39);
  RuntimeOptions on = shard_options(8, 4, 39);
  on.obs.enabled = true;
  const Fingerprint a = fingerprint_run(off, mixed_workload);
  const Fingerprint b = fingerprint_run(on, mixed_workload);
  EXPECT_EQ(a.shards, 4);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_us, b.end_us);
}

/// --- conservative windows (DESIGN.md §4.11) ---------------------------------

TEST(Shards, WindowsAreDeterministicAndReported) {
  const RuntimeOptions options = shard_options(8, 4, 43);
  const Fingerprint a = fingerprint_run(options, mixed_workload);
  const Fingerprint b = fingerprint_run(options, mixed_workload);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_us, b.end_us);
  EXPECT_EQ(a.windows, b.windows);
  const RunStats stats = run_stats(options, mixed_workload);
  EXPECT_EQ(stats.shards, 4);
  EXPECT_EQ(stats.lookahead_mode, "static");
  const RunStats serial = run_stats(shard_options(8, 1, 43), mixed_workload);
  EXPECT_EQ(serial.lookahead_mode, "serial");
}

/// Ping-pong reaction chain rooted in a window-interior send. Images 0,1
/// land on shard 0 and images 2,3 on shard 1 (contiguous partition). Image
/// 3's long compute parks shard 1's earliest materialized event at t=2000,
/// far past the ~20 us round trip of the ping image 0 launches at t=10. A
/// window that reached toward that far-off event would let shard 0 burn
/// through its 1000 unit computes and merge the pong into its past (a
/// detected conservative-window violation); the static window stops shard 0
/// one lookahead past the global minimum, so the pong lands in its future.
void reaction_chain_workload() {
  Team world = team_world();
  CoEvent ev(world);
  switch (world.rank()) {
    case 0:
      compute(10.0);
      notify_event(ev(2));
      for (int i = 0; i < 1000; ++i) {
        compute(1.0);
      }
      ev.local().wait();
      break;
    case 2:
      ev.local().wait();
      notify_event(ev(0));
      break;
    case 3:
      compute(2000.0);
      break;
    default:
      break;
  }
}

TEST(Shards, WindowsStayConservativeForReactionChains) {
  const RuntimeOptions options = shard_options(4, 2, 61);
  const Fingerprint a = fingerprint_run(options, reaction_chain_workload);
  const Fingerprint b = fingerprint_run(options, reaction_chain_workload);
  EXPECT_EQ(a.shards, 2);
  EXPECT_GT(a.windows, 0u);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_us, b.end_us);

  // The pong is the only message delivered to image 0; its recorded latency
  // proves the delivery was not time-shifted to image 0's t=1010 wait (the
  // stale-window symptom was a ~990 us "latency" on a ~6 us wire hop).
  const RunStats observed =
      run_stats(obs_shard_options(4, 2, 61), reaction_chain_workload);
  ASSERT_NE(observed.obs, nullptr);
  const obs::Histogram& latency =
      observed.obs->metrics[0].hist(obs::Hist::kMessageLatency);
  ASSERT_GT(latency.count, 0u);
  EXPECT_LT(latency.sum_us / static_cast<double>(latency.count), 50.0);
}

/// --- the remaining fallback to one shard ----------------------------

TEST(Shards, InstantNetworkFallsBackToSerial) {
  // Zero wire latency gives the conservative engine no lookahead window to
  // run ahead in; the runtime falls back to one shard.
  RuntimeOptions options = shard_options(4, 4, 3);
  options.net.latency_us = 0.0;
  options.net.jitter_us = 0.0;
  const RunStats stats = run_stats(options, mixed_workload);
  EXPECT_EQ(stats.shards, 1);
}

/// A ring of copies under one finish: every image's put crosses to its
/// successor, so with two shards both the deliveries and the acks they post
/// back straddle the shard boundary.
void finish_ring_workload() {
  Team world = team_world();
  Coarray<long> ring(world, 1);
  ring[0] = -1;
  team_barrier(world);
  const std::vector<long> payload(1, world.rank());
  finish(world, [&] {
    copy_async(ring((world.rank() + 1) % world.size()),
               std::span<const long>(payload));
    cofence();
  });
  EXPECT_EQ(ring[0], (world.rank() + world.size() - 1) % world.size());
}

TEST(Shards, AckLatencyBelowWireLatencyBoundsTheLookahead) {
  // Acks are events the delivery posts back to the initiator's shard, so the
  // lookahead is min(latency, ack latency) = 2 us here. A lookahead of the
  // 10 us wire latency would trip post_for's always-on window assertion on
  // the first cross-shard ack.
  RuntimeOptions options = shard_options(8, 2, 17);
  options.net.latency_us = 10.0;
  options.net.ack_latency_us = 2.0;
  const RunStats stats = run_stats(options, finish_ring_workload);
  EXPECT_EQ(stats.shards, 2);
  EXPECT_EQ(stats.lookahead_mode, "static");
}

TEST(Shards, ZeroAckLatencyFallsBackToSerial) {
  // A zero ack latency leaves no lookahead even over a slow wire.
  RuntimeOptions options = shard_options(8, 2, 17);
  options.net.latency_us = 10.0;
  options.net.ack_latency_us = 0.0;
  const RunStats stats = run_stats(options, finish_ring_workload);
  EXPECT_EQ(stats.shards, 1);
}

TEST(Shards, ShardCountClampsToImages) {
  const RunStats stats = run_stats(shard_options(2, 16, 13), mixed_workload);
  EXPECT_EQ(stats.shards, 2);
}

}  // namespace
