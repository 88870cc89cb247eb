/// Determinism regression tests: repeat identity at three levels.
///
/// A seeded run must reproduce bit-for-bit when repeated in one process:
///  - engine level: the recorded trace (every scheduler decision), the
///    context switch count and the event count of a mixed workload;
///  - full-stack level: a seeded RandomAccess workload over the jittered
///    Gemini-class network dispatches the same number of events, ends at
///    the same virtual time and computes the same kernel timings;
///  - faulty-run level: the same stack under an active FaultPlan
///    reproduces its scheduler trace and fault counters (DESIGN.md §4.7).
///
/// Deterministic RunStats fields (events, virtual_us, context_switches,
/// faults) are compared bit-for-bit; peak_rss_bytes describes the host and
/// is deliberately excluded.

#include <gtest/gtest.h>

#include <string>

#include "core/caf2.hpp"
#include "core/detectors.hpp"
#include "kernels/randomaccess.hpp"
#include "runtime/internal.hpp"
#include "runtime/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/participant.hpp"

namespace {

using namespace caf2::sim;

/// A workload that exercises every scheduler decision point: self-wakes
/// (advance with an empty/later heap), contested wakes (equal-time events
/// from other participants), Call callbacks, blocking, and stray unblocks.
void mixed_body(int id) {
  Engine& e = this_engine();
  for (int i = 0; i < 25; ++i) {
    e.advance(0.1 * (id + 1));
    if (i % 3 == 0) {
      e.post_in(0.05, [] {});
    }
    if (i % 7 == 0) {
      e.unblock((id + 1) % e.size());
    }
    if (i % 5 == 0) {
      e.yield();
    }
  }
}

struct EngineResult {
  std::string trace;
  std::uint64_t context_switches = 0;
  std::uint64_t events = 0;
};

EngineResult traced_engine_run() {
  EngineOptions options;
  options.record_trace = true;
  Engine engine(4, options);
  engine.run(mixed_body);
  EXPECT_GT(engine.trace().size(), 100u);
  return {render_trace(engine.trace()), engine.context_switch_count(),
          engine.event_count()};
}

TEST(Determinism, EngineTraceIdenticalAcrossRepeats) {
  const EngineResult first = traced_engine_run();
  const EngineResult second = traced_engine_run();
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_GT(first.context_switches, 0u);
  EXPECT_EQ(first.context_switches, second.context_switches);
  EXPECT_EQ(first.events, second.events);
}

/// One full-stack seeded run: RandomAccess with function shipping on the
/// jittered Gemini-class interconnect, returning simulator statistics plus
/// the kernel's own virtual-time measurement.
struct StackResult {
  caf2::RunStats stats;
  double elapsed_us = 0.0;
};

StackResult stack_run() {
  caf2::RuntimeOptions options;
  options.num_images = 4;
  options.net = caf2::NetworkParams::gemini_like();
  options.seed = 20130520;
  StackResult result;
  result.stats = caf2::run_stats(options, [&] {
    caf2::kernels::RaConfig config;
    config.log2_local_table = 10;
    config.updates_per_image = 256;
    config.bunch = 64;
    const auto stats =
        caf2::kernels::ra_run_function_shipping(caf2::team_world(), config);
    if (caf2::this_image() == 0) {
      result.elapsed_us = stats.elapsed_us;
    }
  });
  EXPECT_GT(result.stats.events, 1000u);
  return result;
}

TEST(Determinism, RuntimeWorkloadIdenticalAcrossRepeats) {
  const StackResult first = stack_run();
  const StackResult second = stack_run();
  EXPECT_EQ(first.stats.events, second.stats.events);
  EXPECT_EQ(first.stats.virtual_us, second.stats.virtual_us);
  EXPECT_EQ(first.stats.context_switches, second.stats.context_switches);
  EXPECT_EQ(first.elapsed_us, second.elapsed_us);
}

/// --- determinism under injected faults (DESIGN.md §4.7) ---------------------
///
/// Fault decisions come from a dedicated RNG stream, so a seeded run with an
/// active FaultPlan must be bit-reproducible, down to the full scheduler
/// trace.

void fault_bump(caf2::Coref<long> counter) { counter.local()[0] += 1; }

struct FaultyResult {
  caf2::RunStats stats;
  std::string trace;
};

FaultyResult faulty_traced_run() {
  caf2::RuntimeOptions options;
  options.num_images = 4;
  options.net = caf2::NetworkParams::gemini_like();
  options.net.jitter_us = 0.5;
  options.net.faults.all.drop_probability = 0.10;
  options.net.faults.all.dup_probability = 0.05;
  options.net.faults.all.ack_drop_probability = 0.05;
  options.net.faults.all.delay_probability = 0.10;
  options.net.faults.all.delay_max_us = 5.0;
  options.seed = 424242;
  options.record_trace = true;

  caf2::rt::Runtime runtime(options);
  caf2::rt::install_event_handlers(runtime);
  caf2::ops::install_copy_handlers(runtime);
  caf2::ops::install_spawn_handlers(runtime);
  caf2::ops::install_collective_handlers(runtime);
  caf2::core::install_detector_handlers(runtime);
  runtime.run([] {
    caf2::Team world = caf2::team_world();
    caf2::Coarray<long> counter(world, 1);
    counter[0] = 0;
    caf2::team_barrier(world);
    caf2::finish(world, [&] {
      for (int target = 0; target < world.size(); ++target) {
        caf2::spawn<fault_bump>(target, counter.ref());
      }
    });
    EXPECT_EQ(counter[0], world.size());
    caf2::team_barrier(world);
  });

  FaultyResult result;
  result.stats.events = runtime.engine().event_count();
  result.stats.virtual_us = runtime.engine().now();
  result.stats.context_switches = runtime.engine().context_switch_count();
  result.stats.faults = runtime.network().fault_stats();
  result.trace = render_trace(runtime.engine().trace());
  EXPECT_GT(result.stats.faults.deliveries_dropped +
                result.stats.faults.deliveries_duplicated +
                result.stats.faults.acks_dropped,
            0u)
      << "the plan must actually inject faults for this test to mean much";
  return result;
}

TEST(Determinism, FaultyRunTraceIdenticalAcrossRepeats) {
  const FaultyResult first = faulty_traced_run();
  const FaultyResult second = faulty_traced_run();
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.stats.events, second.stats.events);
  EXPECT_EQ(first.stats.virtual_us, second.stats.virtual_us);
  EXPECT_EQ(first.stats.context_switches, second.stats.context_switches);
  EXPECT_EQ(first.stats.faults.deliveries_dropped,
            second.stats.faults.deliveries_dropped);
  EXPECT_EQ(first.stats.faults.retransmits, second.stats.faults.retransmits);
  EXPECT_EQ(first.stats.faults.duplicates_suppressed,
            second.stats.faults.duplicates_suppressed);
}

}  // namespace
