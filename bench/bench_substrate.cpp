/// Substrate throughput sweep: real wall-clock performance of the simulator
/// itself — the hard ceiling on how large an image-count sweep the figure
/// drivers can reproduce. Unlike the figure drivers, the interesting number
/// here is *events per wall second*, not virtual time.
///
/// Three layers are measured:
///  - engine/*: the raw discrete-event loop (self-wake fast path, token
///    handoffs between participant fibers, Call-event dispatch);
///  - allreduce/*, randomaccess/*: full runtime stacks over the simulated
///    Gemini-class interconnect, swept over image counts and bunch sizes;
///  - detector/*: the UTS termination-detection workload per detector kind.
///
/// Independent sweep points run concurrently (--jobs); results land in
/// BENCH_substrate.json so the simulator's perf trajectory is tracked
/// across commits. Use CAF2_SIM_NO_FASTPATH=1 to compare against the
/// slow-path scheduler.
///
/// The sharded/* and staggered/* sections measure the parallel-DES engine
/// (DESIGN.md §4.11): a paper-scale ring workload plus a stagger-phased
/// variant, one point each per shard count from 1 to the hardware threads.
/// Those points own all cores, so they run serially *after* the pooled
/// sweep; events/sec across the shard axis is the engine's strong-scaling
/// curve (expect monotone growth while shards <= physical cores), and the
/// windows / window_stalls metrics show what each shard count pays in
/// barriers.

#include <algorithm>
#include <span>

#include "bench_common.hpp"
#include "kernels/randomaccess.hpp"
#include "kernels/uts_scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/participant.hpp"

namespace {

using namespace caf2;
using bench::BenchArgs;
using bench::SweepPoint;

/// Measure a raw engine run (no runtime stack on top).
BenchRecord measure_engine(int participants,
                           const std::function<void(int)>& body) {
  sim::Engine engine(participants);
  WallTimer timer;
  engine.run(body);
  BenchRecord record;
  record.wall_seconds = timer.seconds();
  record.events = engine.event_count();
  record.virtual_us = engine.now();
  record.events_per_sec =
      record.wall_seconds > 0.0
          ? static_cast<double>(record.events) / record.wall_seconds
          : 0.0;
  record.metrics.emplace_back(
      "context_switches",
      static_cast<double>(engine.context_switch_count()));
  return record;
}

/// Round-robin token hand-off body: every advance() moves the token to the
/// next participant, so events/sec here *is* hand-off throughput.
std::function<void(int)> handoff_body(int steps) {
  return [steps](int) {
    sim::Engine& e = sim::this_engine();
    for (int i = 0; i < steps; ++i) {
      e.advance(1.0);
    }
  };
}

std::vector<SweepPoint> build_sweep(const BenchArgs& args) {
  std::vector<SweepPoint> sweep;
  const int scale = args.quick ? 1 : 10;

  // --- engine layer --------------------------------------------------------
  sweep.push_back({"engine/selfwake", [scale] {
                     const int steps = 200'000 * scale;
                     return measure_engine(1, [steps](int) {
                       sim::Engine& e = sim::this_engine();
                       for (int i = 0; i < steps; ++i) {
                         e.advance(1.0);
                       }
                     });
                   }});
  // Hand-off throughput: a round-robin token workload, one fiber switch per
  // event (DESIGN.md §4.8). The point names keep their "/fibers" suffix so
  // the trajectory stays comparable across commits.
  for (const int participants : {4, 64}) {
    sweep.push_back({"engine/handoff" + std::to_string(participants) +
                         "/fibers",
                     [scale, participants] {
                       const int steps = 20'000 * scale / (participants / 4);
                       return measure_engine(participants, handoff_body(steps));
                     }});
  }
  sweep.push_back({"engine/post", [scale] {
                     const int steps = 50'000 * scale;
                     return measure_engine(1, [steps](int) {
                       sim::Engine& e = sim::this_engine();
                       for (int i = 0; i < steps; ++i) {
                         e.post_in(0.5, [] {});
                         e.advance(1.0);
                       }
                     });
                   }});

  // --- runtime stack: allreduce over the image-count sweep ------------------
  std::vector<int> image_counts =
      args.images.empty() ? std::vector<int>{2, 8, 32} : args.images;
  if (args.quick && args.images.empty()) {
    image_counts = {2, 8};
  }
  for (const int images : image_counts) {
    sweep.push_back(
        {"allreduce/images=" + std::to_string(images), [images, scale] {
           const int iters = 100 * scale;
           BenchRecord record =
               bench::measure_run(bench::bench_options(images), [iters] {
                 for (int i = 0; i < iters; ++i) {
                   allreduce<std::int64_t>(team_world(), 1, RedOp::kSum);
                 }
               });
           record.metrics.emplace_back("images", images);
           return record;
         }});
  }

  // --- runtime stack: RandomAccess function shipping over bunch sizes ------
  for (const int bunch : {64, 512}) {
    sweep.push_back(
        {"randomaccess/bunch=" + std::to_string(bunch), [bunch, scale] {
           kernels::RaConfig config;
           config.log2_local_table = 12;
           config.updates_per_image =
               static_cast<std::uint64_t>(512) * static_cast<unsigned>(scale);
           config.bunch = bunch;
           BenchRecord record =
               bench::measure_run(bench::bench_options(8), [config] {
                 kernels::ra_run_function_shipping(team_world(), config);
               });
           record.metrics.emplace_back("bunch", bunch);
           record.metrics.emplace_back("images", 8);
           return record;
         }});
  }

  // --- runtime stack: UTS per detector kind ---------------------------------
  const std::vector<std::pair<const char*, DetectorKind>> detectors = {
      {"epoch", DetectorKind::kEpoch},
      {"speculative", DetectorKind::kSpeculative},
      {"four-counter", DetectorKind::kFourCounter},
      {"centralized", DetectorKind::kCentralized},
  };
  for (const auto& [label, kind] : detectors) {
    sweep.push_back(
        {std::string("detector/") + label, [kind, quick = args.quick] {
           kernels::UtsConfig config;
           config.tree.b0 = 4.0;
           config.tree.max_depth = quick ? 5 : 7;
           config.tree.root_seed = 19;
           config.detector = kind;
           BenchRecord record =
               bench::measure_run(bench::bench_options(8), [config] {
                 kernels::uts_run(team_world(), config);
               });
           record.metrics.emplace_back("images", 8);
           return record;
         }});
  }
  return sweep;
}

/// Paper-scale neighbor-ring workload for the shard-scaling curve: every
/// image streams a few rounds of copy_async to its ring successor inside a
/// finish. Per-image work is independent, so the workload shards cleanly;
/// the ring edges that straddle shard boundaries exercise the cross-shard
/// delivery path at its real density.
void ring_workload(int rounds) {
  Team world = team_world();
  Coarray<long> slot(world, 8);
  team_barrier(world);
  const std::vector<long> payload(8, 1);
  finish(world, [&] {
    for (int r = 0; r < rounds; ++r) {
      copy_async(slot((world.rank() + 1) % world.size()),
                 std::span<const long>(payload));
      cofence();
    }
  });
  team_barrier(world);
}

/// Staggered compute/exchange workload: each image computes at a
/// rank-proportional virtual offset before its ring exchange, so heap events
/// spread densely over the stagger span while almost all near-term traffic
/// stays shard-local — the sparse-communication regime, which windows must
/// cross in wire-latency steps (DESIGN.md §4.11).
void staggered_workload(int rounds) {
  Team world = team_world();
  Coarray<long> slot(world, 8);
  team_barrier(world);
  const std::vector<long> payload(8, 1);
  const double offset = 240.0 * static_cast<double>(world.rank()) /
                        static_cast<double>(world.size());
  finish(world, [&] {
    for (int r = 0; r < rounds; ++r) {
      compute(offset);
      copy_async(slot((world.rank() + 1) % world.size()),
                 std::span<const long>(payload));
      cofence();
    }
  });
  team_barrier(world);
}

/// Shard counts to sweep: powers of two from 1 up to the hardware thread
/// count (always at least {1, 2, 4} so the scaling curve exists even on
/// small CI runners).
std::vector<int> shard_axis() {
  const int hw = std::max(
      4, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> axis;
  for (int s = 1; s <= hw; s *= 2) {
    axis.push_back(s);
  }
  return axis;
}

std::vector<SweepPoint> build_shard_sweep(const BenchArgs& args) {
  std::vector<SweepPoint> sweep;
  std::vector<int> image_counts =
      args.images.empty() ? std::vector<int>{4096} : args.images;
  if (args.quick && args.images.empty()) {
    image_counts = {1024};
  }
  for (const int images : image_counts) {
    for (const int shards : shard_axis()) {
      const std::string point =
          "/images=" + std::to_string(images) +
          "/shards=" + std::to_string(shards);
      for (const bool staggered : {false, true}) {
        sweep.push_back(
            {(staggered ? "staggered" : "sharded") + point,
             [images, shards, staggered] {
               BenchRecord record = bench::measure_run(
                   bench::bench_options(images, shards), [staggered] {
                     staggered ? staggered_workload(4) : ring_workload(4);
                   });
               record.metrics.emplace_back("images", images);
               if (shards == 1) {
                 record.metrics.emplace_back("shards", 1.0);
               }
               return record;
             }});
      }
    }
  }
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = bench::parse_args(argc, argv);

  std::vector<SweepPoint> sweep = build_sweep(args);
  const WallTimer total;
  std::vector<BenchRecord> results =
      bench::run_sweep(std::move(sweep), args.jobs);
  // The shard-scaling points saturate the machine by design: run them one
  // at a time so the curve measures the engine, not pool contention.
  std::vector<BenchRecord> sharded =
      bench::run_sweep(build_shard_sweep(args), 1);
  results.insert(results.end(), std::make_move_iterator(sharded.begin()),
                 std::make_move_iterator(sharded.end()));
  const double elapsed = total.seconds();

  Table table("Simulator substrate throughput (real time, not virtual)");
  table.columns({"sweep point", "events", "wall s", "events/s"});
  table.precision(3);
  double total_events = 0.0;
  double total_wall = 0.0;
  for (const BenchRecord& r : results) {
    table.add_row({r.name, static_cast<long long>(r.events), r.wall_seconds,
                   r.events_per_sec});
    total_events += static_cast<double>(r.events);
    total_wall += r.wall_seconds;
  }
  table.print();
  std::printf(
      "\ntotal: %.0f events in %.3f s of simulation (%.3f s elapsed, "
      "%d jobs); aggregate %.2fM events/sec\n",
      total_events, total_wall, elapsed,
      bench::resolve_jobs(args.jobs, results.size()),
      total_events / (total_wall > 0.0 ? total_wall : 1.0) / 1e6);

  bench::emit_bench_json(args, "substrate", results);
  return 0;
}
