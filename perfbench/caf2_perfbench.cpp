/// One measured run of one caf2 benchmark workload.
///
///   caf2_perfbench --workload=<uts|randomaccess|ring4k|collectives>
///                  --seed=<n> [--shards=<n>] [--trace] [--setup-only]
///                  [--spans=<path>]
///
/// Runs the workload once through caf2::run_stats in this (fresh) process,
/// checks its output, and prints one JSON object with the raw figures:
/// host times, RSS, the deterministic simulator counters, and the
/// correctness-check tally. perfbench/run.py repeats this binary in fresh
/// processes and turns the raw figures into the benchmark's metrics.
///
/// --trace turns on RuntimeOptions::obs (schedule-identical) and wraps every
/// public library call the workload makes in a host-clock span. Spans stay
/// in memory and are summarised (and, with --spans, dumped as CSV) at exit.
/// --setup-only constructs the runtime and returns from the body at once:
/// a cheap extra sample of set-up time.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/caf2.hpp"
#include "kernels/randomaccess.hpp"
#include "kernels/uts_scheduler.hpp"
#include "obs/blame.hpp"
#include "obs/obs.hpp"

namespace {

using namespace caf2;
using Clock = std::chrono::steady_clock;

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// VmRSS / VmHWM of this process in kB (Linux); 0 where unavailable.
std::uint64_t proc_status_kb(const char* field) {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) {
    return 0;
  }
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtoull(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(file);
  return kb;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0,
                  std::uint64_t d = 0) {
  return mix64(mix64(mix64(mix64(a) ^ b) ^ c) ^ d);
}

// --- host-clock spans --------------------------------------------------------

enum class Op : std::uint8_t {
  kRunStats,
  kCopyAsync,
  kCofence,
  kFinish,
  kAllreduce8B,
  kAllreduce256K,
  kBroadcast256K,
  kAlltoallv,
  kUtsRun,
  kRaFunctionShipping,
  kRaGetUpdatePut,
  kCountTree,
  kCount,
};

constexpr const char* kOpNames[] = {
    "caf2::run_stats",
    "caf2::copy_async",
    "caf2::cofence",
    "caf2::finish",
    "caf2::allreduce_async+wait/8B",
    "caf2::allreduce_async+wait/256K",
    "caf2::broadcast_async+wait/256K",
    "caf2::alltoallv_async+wait",
    "kernels::uts_run",
    "kernels::ra_run_function_shipping",
    "kernels::ra_run_get_update_put",
    "kernels::UtsTree::count_tree",
};
static_assert(std::size(kOpNames) == static_cast<std::size_t>(Op::kCount));

struct SpanRec {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int32_t image = -1;  ///< -1 = outside any image (main thread)
  std::uint16_t thread = 0;
  Op op = Op::kRunStats;
};

/// Span log with one buffer per OS thread. Every image runs on its home
/// shard's thread for its whole life, so a span begins and ends on the same
/// buffer and per-image state needs no lock. An image span with no
/// enclosing span of its own takes the open main-thread span (run_stats) as
/// parent; the main thread does not touch its stack while images run.
class SpanLog {
 public:
  void enable(int images) {
    enabled_ = true;
    open_.assign(static_cast<std::size_t>(images) + 1, {});
  }
  bool enabled() const { return enabled_; }

  /// Returns the span's slot in the calling thread's buffer.
  std::size_t begin(Op op, int image) {
    Buffer& buf = local();
    std::vector<std::uint64_t>& stack = open_stack(image);
    SpanRec rec;
    rec.op = op;
    rec.image = image;
    rec.thread = buf.index;
    rec.id = (static_cast<std::uint64_t>(buf.index) + 1) << 40 |
             (buf.spans.size() + 1);
    const std::vector<std::uint64_t>& main = open_stack(-1);
    rec.parent = !stack.empty() ? stack.back()
                 : !main.empty() ? main.back()
                                 : 0;
    stack.push_back(rec.id);
    rec.start_ns = host_ns();
    buf.spans.push_back(rec);
    return buf.spans.size() - 1;
  }

  void end(std::size_t slot) {
    const std::int64_t now = host_ns();
    SpanRec& rec = local().spans[slot];
    rec.end_ns = now;
    open_stack(rec.image).pop_back();
  }

  std::vector<SpanRec> all() const {
    std::vector<SpanRec> out;
    for (const auto& buf : buffers_) {
      out.insert(out.end(), buf->spans.begin(), buf->spans.end());
    }
    return out;
  }

 private:
  struct Buffer {
    std::vector<SpanRec> spans;
    std::uint16_t index = 0;
  };

  Buffer& local() {
    thread_local Buffer* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<Buffer>());
      buf = buffers_.back().get();
      buf->index = static_cast<std::uint16_t>(buffers_.size() - 1);
      buf->spans.reserve(std::size_t{1} << 16);
    }
    return *buf;
  }

  std::vector<std::uint64_t>& open_stack(int image) {
    return open_[static_cast<std::size_t>(image + 1)];
  }

  bool enabled_ = false;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::vector<std::uint64_t>> open_;
};

SpanLog g_spans;

/// RAII host-clock span; a no-op unless tracing is on.
class Span {
 public:
  Span(Op op, int image) : on_(g_spans.enabled()) {
    if (on_) {
      slot_ = g_spans.begin(op, image);
    }
  }
  ~Span() {
    if (on_) {
      g_spans.end(slot_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
  std::size_t slot_ = 0;
};

/// Self time of every span, computed per OS-thread timeline. Images are
/// cooperative fibers, so a span around a blocking call also covers other
/// images' work; on each thread every instant is charged to the most
/// recently started span still open there, and a span's self time is what
/// it was charged.
std::vector<std::int64_t> self_times(const std::vector<SpanRec>& spans) {
  struct Edge {
    std::int64_t at;
    bool open;
    std::size_t span;
  };
  std::vector<std::int64_t> self(spans.size(), 0);
  std::uint16_t threads = 0;
  for (const SpanRec& s : spans) {
    threads = std::max<std::uint16_t>(threads, s.thread + 1);
  }
  for (std::uint16_t t = 0; t < threads; ++t) {
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].thread == t) {
        edges.push_back({spans[i].start_ns, true, i});
        edges.push_back({spans[i].end_ns, false, i});
      }
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.at != b.at ? a.at < b.at : a.open > b.open;
    });
    std::set<std::pair<std::int64_t, std::size_t>> open;  // (start, span)
    std::int64_t last = 0;
    for (const Edge& e : edges) {
      if (!open.empty()) {
        self[open.rbegin()->second] += e.at - last;
      }
      last = e.at;
      if (e.open) {
        open.emplace(spans[e.span].start_ns, e.span);
      } else {
        open.erase({spans[e.span].start_ns, e.span});
      }
    }
  }
  return self;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// --- result record -----------------------------------------------------------

/// Flat JSON object, printed on one line.
class Record {
 public:
  void num(const std::string& key, double value) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    fields_.emplace_back(key, text);
  }
  void count(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + value + "\"");
  }
  void raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }
  void counts(const std::string& key, const std::vector<std::uint64_t>& v) {
    std::string text = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      text += (i ? "," : "") + std::to_string(v[i]);
    }
    fields_.emplace_back(key, text + "]");
  }
  void print() const {
    std::string line = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      line += (i ? ", \"" : "\"") + fields_[i].first + "\": ";
      line += fields_[i].second;
    }
    std::printf("%s}\n", line.c_str());
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Correctness-check tally; checks run on the main thread after the run.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 20) {
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
      }
    }
  }
};

// --- workloads ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int shards = 0;  ///< 0 = the workload's own shard count
  bool trace = false;
  bool setup_only = false;
  std::string spans_path;
};

/// What every workload body reports besides RunStats.
struct Probe {
  std::int64_t body_entry_ns = 0;    ///< image 0's first body statement
  std::uint64_t resting_rss_kb = 0;  ///< VmRSS at that moment
  std::vector<double> phase_us;      ///< per-image measured-phase virtual time
};

/// Every workload's body starts here: image 0 stamps set-up completion.
void enter_body(Probe& probe) {
  if (this_image() == 0) {
    probe.body_entry_ns = host_ns();
    probe.resting_rss_kb = proc_status_kb("VmRSS");
  }
}

struct Workload {
  int images;
  int shards;
  std::function<void()> body;
  /// Checks and workload-specific figures, after the run.
  std::function<void(const RunStats&, Checks&, Record&)> finish;
};

// uts: the paper's UTS (Fig. 17/18 band) with finish-based termination.

constexpr int kUtsImages = 4096;
constexpr int kUtsDepth = 10;

/// UTS tree size swings by a large factor from one root seed to the next,
/// which would make every figure depend more on the seed than on the code.
/// The workload therefore draws its root seed from trees of the paper's size:
/// the paper's root seed 19 (1,821,335 nodes at depth 10) and every root
/// root mix64(k) >> 1 that a scan over small k found within 0.25% of it.
constexpr std::uint64_t kUtsRoots[] = {
    19,
    4029146282762152097ULL, 8206322320014509084ULL, 4587097752126814627ULL,
    7101040124678488263ULL, 5432099114793876558ULL, 7639258216598211846ULL,
    6043050507830905941ULL, 4537428127176260161ULL, 1944789695439786668ULL,
    8570381274448365258ULL, 6525198464336480736ULL, 925175221702579705ULL,
    8180676126544384297ULL, 324705319232054627ULL, 403423937662906824ULL,
    943721432923298950ULL, 4436487643573363206ULL, 1766351006199858888ULL,
};

Workload uts_workload(const Args& args, Probe& probe) {
  auto config = std::make_shared<kernels::UtsConfig>();
  config->tree.b0 = 4.0;
  config->tree.max_depth = kUtsDepth;
  config->tree.root_seed = kUtsRoots[args.seed % std::size(kUtsRoots)];
  config->detector = DetectorKind::kEpoch;
  auto stats = std::make_shared<std::vector<kernels::UtsStats>>(kUtsImages);
  auto uts_host_ns = std::make_shared<std::int64_t>(0);

  Workload w;
  w.images = kUtsImages;
  w.shards = 2;
  w.body = [=, &probe] {
    enter_body(probe);
    const int me = this_image();
    const std::int64_t t0 = host_ns();
    {
      Span span(Op::kUtsRun, me);
      (*stats)[me] = kernels::uts_run(team_world(), *config);
    }
    if (me == 0) {
      *uts_host_ns = host_ns() - t0;
    }
    probe.phase_us[me] = (*stats)[me].elapsed_us;
  };
  w.finish = [=](const RunStats& run, Checks& checks, Record& rec) {
    std::uint64_t nodes = 0, rounds = 0, attempts = 0, successes = 0,
                  pushes = 0;
    bool totals_agree = true;
    for (const kernels::UtsStats& s : *stats) {
      nodes += s.nodes;
      rounds += static_cast<std::uint64_t>(s.finish_rounds);
      attempts += static_cast<std::uint64_t>(s.steals_attempted);
      successes += static_cast<std::uint64_t>(s.steals_successful);
      pushes += static_cast<std::uint64_t>(s.lifeline_pushes);
      totals_agree =
          totals_agree && s.total_nodes == stats->front().total_nodes;
    }
    std::int64_t count_ns = 0;
    std::uint64_t expected = 0;
    {
      Span span(Op::kCountTree, -1);
      const std::int64_t t0 = host_ns();
      expected = config->tree.count_tree();
      count_ns = host_ns() - t0;
    }
    checks.expect(nodes == expected,
                  "uts: counted " + std::to_string(nodes) +
                      " nodes, tree has " + std::to_string(expected));
    checks.expect(totals_agree && stats->front().total_nodes == expected,
                  "uts: team-wide total differs from the serial count");
    if (run.obs) {
      std::uint64_t obs_rounds = 0;
      for (const obs::Metrics& m : run.obs->metrics) {
        obs_rounds += m.counter(obs::Counter::kFinishRounds);
      }
      checks.expect(obs_rounds == rounds,
                    "uts: UtsStats::finish_rounds " + std::to_string(rounds) +
                        " != obs round count " + std::to_string(obs_rounds));
    }
    rec.count("uts_root_seed", config->tree.root_seed);
    rec.count("nodes", nodes);
    rec.count("finish_scopes", stats->size());
    rec.count("finish_rounds", rounds);
    rec.count("steals_attempted", attempts);
    rec.count("steals_successful", successes);
    rec.count("lifeline_pushes", pushes);
    rec.num("uts_phase_s", static_cast<double>(*uts_host_ns) * 1e-9);
    rec.num("sha1_ns_per_node",
            static_cast<double>(count_ns) / static_cast<double>(expected));
  };
  return w;
}

// randomaccess: HPCC RandomAccess, function shipping then get-update-put.

constexpr int kRaImages = 256;

Workload randomaccess_workload(Probe& probe) {
  auto config = std::make_shared<kernels::RaConfig>();
  config->log2_local_table = 12;
  config->updates_per_image = 512;
  config->bunch = 64;
  config->detector = DetectorKind::kEpoch;
  auto fs = std::make_shared<std::vector<kernels::RaStats>>(kRaImages);
  auto gup = std::make_shared<std::vector<kernels::RaStats>>(kRaImages);
  auto phase_ns = std::make_shared<std::array<std::int64_t, 2>>();

  Workload w;
  w.images = kRaImages;
  w.shards = 1;
  w.body = [=, &probe] {
    enter_body(probe);
    const int me = this_image();
    const double v0 = now_us();
    const std::int64_t t0 = host_ns();
    {
      Span span(Op::kRaFunctionShipping, me);
      (*fs)[me] = kernels::ra_run_function_shipping(team_world(), *config);
    }
    const std::int64_t t1 = host_ns();
    {
      Span span(Op::kRaGetUpdatePut, me);
      (*gup)[me] = kernels::ra_run_get_update_put(team_world(), *config);
    }
    if (me == 0) {
      (*phase_ns)[0] = t1 - t0;
      (*phase_ns)[1] = host_ns() - t1;
    }
    probe.phase_us[me] = now_us() - v0;
  };
  w.finish = [=](const RunStats&, Checks& checks, Record& rec) {
    std::uint64_t updates = 0, applied = 0, finishes = 0, gup_lossy = 0;
    for (int i = 0; i < kRaImages; ++i) {
      const std::uint64_t expected =
          kernels::ra_expected_checksum(kRaImages, i, *config);
      checks.expect((*fs)[i].checksum == expected,
                    "randomaccess: function-shipping checksum differs on "
                    "image " + std::to_string(i));
      gup_lossy += (*gup)[i].checksum != expected ? 1 : 0;
      updates += (*fs)[i].updates + (*gup)[i].updates;
      applied += (*fs)[i].applied;
      finishes += static_cast<std::uint64_t>((*fs)[i].finishes);
    }
    checks.expect(applied == static_cast<std::uint64_t>(kRaImages) *
                                 config->updates_per_image,
                  "randomaccess: " + std::to_string(applied) +
                      " shipped updates applied");
    rec.count("updates", updates);
    rec.count("fs_applied", applied);
    rec.count("finish_scopes", finishes);
    rec.count("gup_lossy_images", gup_lossy);
    rec.num("ra_fs_s", static_cast<double>((*phase_ns)[0]) * 1e-9);
    rec.num("ra_gup_s", static_cast<double>((*phase_ns)[1]) * 1e-9);
  };
  return w;
}

// ring4k: copy_async to the ring successor plus cofence, inside one finish.
// 4096 rather than the paper's 16384 images: at 16K images barriers, finish
// detection and exit cost ~9 s of host time per run whatever the round
// count, and a set of such runs spans minutes of this host's speed drift.

constexpr int kRingImages = 4096;
constexpr int kRingRounds = 16;
constexpr int kRingWords = 8;

std::uint64_t ring_word(std::uint64_t seed, int image, int round, int word) {
  return mix(seed, static_cast<std::uint64_t>(image),
             static_cast<std::uint64_t>(round),
             static_cast<std::uint64_t>(word));
}

Workload ring_workload(const Args& args, Probe& probe) {
  const std::uint64_t seed = args.seed;
  auto ok = std::make_shared<std::vector<std::uint8_t>>(kRingImages, 0);
  auto rounds = std::make_shared<std::vector<int>>(kRingImages, 0);

  Workload w;
  w.images = kRingImages;
  w.shards = 2;
  w.body = [=, &probe] {
    enter_body(probe);
    Team world = team_world();
    const int me = world.rank();
    const int succ = (me + 1) % world.size();
    Coarray<std::uint64_t> slot(world, kRingRounds * kRingWords);
    std::vector<std::uint64_t> payload(kRingRounds * kRingWords);
    for (int r = 0; r < kRingRounds; ++r) {
      for (int k = 0; k < kRingWords; ++k) {
        payload[r * kRingWords + k] = ring_word(seed, me, r, k);
      }
    }
    team_barrier(world);
    const double v0 = now_us();
    {
      Span span(Op::kFinish, me);
      finish(world, [&] {
        for (int r = 0; r < kRingRounds; ++r) {
          {
            Span copy(Op::kCopyAsync, me);
            copy_async(slot.slice(succ, r * kRingWords, kRingWords),
                       std::span<const std::uint64_t>(
                           payload.data() + r * kRingWords, kRingWords));
          }
          Span fence(Op::kCofence, me);
          cofence();
        }
      });
    }
    (*rounds)[me] = last_finish_report().rounds;
    team_barrier(world);
    probe.phase_us[me] = now_us() - v0;
    const int pred = (me + world.size() - 1) % world.size();
    bool good = true;
    for (int r = 0; r < kRingRounds; ++r) {
      for (int k = 0; k < kRingWords; ++k) {
        good = good && slot[r * kRingWords + k] == ring_word(seed, pred, r, k);
      }
    }
    (*ok)[me] = good ? 1 : 0;
  };
  w.finish = [=](const RunStats&, Checks& checks, Record& rec) {
    for (int i = 0; i < kRingImages; ++i) {
      checks.expect((*ok)[i] != 0, "ring4k: image " + std::to_string(i) +
                                       " does not hold its predecessor's "
                                       "payload");
    }
    std::uint64_t total_rounds = 0;
    for (int r : *rounds) {
      total_rounds += static_cast<std::uint64_t>(r);
    }
    rec.count("finish_scopes", kRingImages);
    rec.count("finish_rounds", total_rounds);
    rec.count("copies", static_cast<std::uint64_t>(kRingImages) * kRingRounds);
  };
  return w;
}

// collectives: latency- and bandwidth-regime collectives under kAuto.

constexpr int kCollImages = 256;
constexpr int kCollIterations = 6;
constexpr std::size_t kBigWords = (256 * 1024) / sizeof(std::uint64_t);
constexpr std::uint64_t kMeanPairWords = 8;

/// Words image \p src sends image \p dst in iteration \p it (uneven: 0 to
/// twice the mean).
std::size_t a2a_count(std::uint64_t seed, int it, int src, int dst) {
  return static_cast<std::size_t>(
      mix(seed, static_cast<std::uint64_t>(it),
          static_cast<std::uint64_t>(src), static_cast<std::uint64_t>(dst)) %
      (2 * kMeanPairWords + 1));
}

std::uint64_t a2a_word(std::uint64_t seed, int it, int src, int dst,
                       std::size_t k) {
  return mix(seed ^ static_cast<std::uint64_t>(k),
             static_cast<std::uint64_t>(it), static_cast<std::uint64_t>(src),
             static_cast<std::uint64_t>(dst) + 0x5bd1e995ULL);
}

/// Host and virtual microseconds of one collective on image 0.
struct CollTiming {
  std::vector<double> host_us;
  std::vector<double> virtual_us;
};

constexpr int kCollOps = 4;
constexpr const char* kCollNames[kCollOps] = {"allreduce_8B", "allreduce_256K",
                                              "broadcast_256K", "alltoallv"};
constexpr Op kCollSpanOps[kCollOps] = {Op::kAllreduce8B, Op::kAllreduce256K,
                                       Op::kBroadcast256K, Op::kAlltoallv};

Workload collectives_workload(const Args& args, Probe& probe) {
  const std::uint64_t seed = args.seed;
  auto bad = std::make_shared<std::vector<std::array<std::uint32_t, kCollOps>>>(
      kCollImages);
  auto timing = std::make_shared<std::array<CollTiming, kCollOps>>();

  Workload w;
  w.images = kCollImages;
  w.shards = 1;
  w.body = [=, &probe] {
    enter_body(probe);
    Team world = team_world();
    const int me = world.rank();
    const int p = world.size();
    std::vector<std::uint64_t> big(kBigWords);
    std::vector<std::uint64_t> bcast(kBigWords);
    std::vector<std::size_t> send_counts(p), recv_counts(p);
    std::vector<std::uint64_t> send, recv;
    auto& mine = (*bad)[me];

    // Runs one collective to completion through an event, timing it on
    // image 0.
    auto timed = [&](int op, auto&& start) {
      Event done;
      const double v0 = now_us();
      const std::int64_t t0 = host_ns();
      {
        Span span(kCollSpanOps[op], me);
        start(CollOptions{.local_done = done.handle()});
        done.wait();
      }
      if (me == 0) {
        (*timing)[op].host_us.push_back(static_cast<double>(host_ns() - t0) *
                                        1e-3);
        (*timing)[op].virtual_us.push_back(now_us() - v0);
      }
    };

    team_barrier(world);
    const double v0 = now_us();
    for (int it = 0; it < kCollIterations; ++it) {
      const std::uint64_t salt = mix(seed, static_cast<std::uint64_t>(it));
      // 8 B allreduce (latency regime).
      std::uint64_t scalar = mix(salt, static_cast<std::uint64_t>(me));
      timed(0, [&](CollOptions o) {
        allreduce_async(world, std::span<std::uint64_t>(&scalar, 1),
                        RedOp::kBxor, o);
      });
      std::uint64_t scalar_expected = 0;
      for (int r = 0; r < p; ++r) {
        scalar_expected ^= mix(salt, static_cast<std::uint64_t>(r));
      }
      mine[0] += scalar != scalar_expected;

      // 256 KiB allreduce (bandwidth regime): element i of rank r holds
      // (r + 1) * (i ^ salt), so the sum is p(p + 1)/2 * (i ^ salt).
      for (std::size_t i = 0; i < kBigWords; ++i) {
        big[i] = static_cast<std::uint64_t>(me + 1) * (i ^ salt);
      }
      timed(1, [&](CollOptions o) {
        allreduce_async(world, std::span<std::uint64_t>(big), RedOp::kSum, o);
      });
      const std::uint64_t ranks_sum =
          static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(p + 1) / 2;
      for (std::size_t i = 0; i < kBigWords; ++i) {
        if (big[i] != ranks_sum * (i ^ salt)) {
          ++mine[1];
          break;
        }
      }

      // 256 KiB broadcast from a rotating root.
      const int root = it % p;
      for (std::size_t i = 0; i < kBigWords; ++i) {
        bcast[i] = me == root ? mix64(salt ^ i) : 0;
      }
      timed(2, [&](CollOptions o) {
        broadcast_async(world, std::span<std::uint64_t>(bcast), root, o);
      });
      for (std::size_t i = 0; i < kBigWords; ++i) {
        if (bcast[i] != mix64(salt ^ i)) {
          ++mine[2];
          break;
        }
      }

      // Uneven alltoallv.
      send.clear();
      for (int d = 0; d < p; ++d) {
        send_counts[d] = a2a_count(seed, it, me, d);
        recv_counts[d] = a2a_count(seed, it, d, me);
        for (std::size_t k = 0; k < send_counts[d]; ++k) {
          send.push_back(a2a_word(seed, it, me, d, k));
        }
      }
      std::size_t recv_total = 0;
      for (int s = 0; s < p; ++s) {
        recv_total += recv_counts[s];
      }
      recv.assign(recv_total, 0);
      timed(3, [&](CollOptions o) {
        alltoallv_async(world, std::span<const std::uint64_t>(send),
                        std::span<const std::size_t>(send_counts),
                        std::span<std::uint64_t>(recv),
                        std::span<const std::size_t>(recv_counts), o);
      });
      std::size_t at = 0;
      bool good = true;
      for (int s = 0; s < p; ++s) {
        for (std::size_t k = 0; k < recv_counts[s]; ++k) {
          good = good && recv[at++] == a2a_word(seed, it, s, me, k);
        }
      }
      mine[3] += good ? 0 : 1;
    }
    probe.phase_us[me] = now_us() - v0;
  };
  w.finish = [=](const RunStats&, Checks& checks, Record& rec) {
    for (int op = 0; op < kCollOps; ++op) {
      for (int i = 0; i < kCollImages; ++i) {
        const std::uint32_t wrong = (*bad)[i][op];
        for (int it = 0; it < kCollIterations; ++it) {
          checks.expect(it >= static_cast<int>(wrong),
                        std::string("collectives: ") + kCollNames[op] +
                            " result differs from the oracle on image " +
                            std::to_string(i));
        }
      }
      const std::string name = kCollNames[op];
      rec.num(name + "_us", percentile((*timing)[op].host_us, 0.5));
      rec.num(name + "_virtual_us", percentile((*timing)[op].virtual_us, 0.5));
    }
    rec.count("collectives", static_cast<std::uint64_t>(kCollIterations) *
                                 kCollOps * kCollImages);
  };
  return w;
}

// --- traced-run summaries ----------------------------------------------------

/// Percentile of a log2-bucketed obs histogram, interpolated within the
/// bucket it falls in.
double hist_percentile(const obs::Histogram& h, double q) {
  if (h.count == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    const double n = static_cast<double>(h.buckets[b]);
    if (n > 0 && seen + n >= rank) {
      const double hi = obs::Histogram::kBaseUs * std::ldexp(1.0, b);
      const double lo = b == 0 ? 0.0 : hi / 2;
      return lo + (hi - lo) * (rank - seen) / n;
    }
    seen += n;
  }
  return obs::Histogram::kBaseUs *
         std::ldexp(1.0, obs::Histogram::kBuckets - 1);
}

void summarize_obs(const obs::Capture& capture, Record& rec) {
  std::uint64_t sent = 0, handlers = 0, scopes = 0, rounds = 0, steals = 0,
                mailbox = 0, dropped = 0;
  obs::Histogram latency;
  for (const obs::Metrics& m : capture.metrics) {
    sent += m.counter(obs::Counter::kMessagesSent);
    handlers += m.counter(obs::Counter::kHandlersRun);
    scopes += m.counter(obs::Counter::kFinishScopes);
    rounds += m.counter(obs::Counter::kFinishRounds);
    steals += m.counter(obs::Counter::kStealAttempts);
    dropped += m.counter(obs::Counter::kSpansDropped);
    mailbox = std::max(mailbox, m.counter(obs::Counter::kMailboxHighWater));
    const obs::Histogram& h = m.hist(obs::Hist::kMessageLatency);
    for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
      latency.buckets[b] += h.buckets[b];
    }
    latency.count += h.count;
  }
  rec.count("messages", sent);
  rec.count("handlers", handlers);
  rec.count("obs_finish_scopes", scopes);
  rec.count("obs_finish_rounds", rounds);
  rec.count("obs_steal_attempts", steals);
  rec.count("mailbox_high_water", mailbox);
  rec.count("obs_spans_dropped", dropped);
  rec.num("latency_us_p50", hist_percentile(latency, 0.50));
  rec.num("latency_us_p99", hist_percentile(latency, 0.99));

  const obs::BlameReport blame = obs::analyze_blame(capture);
  const double total = blame.total.total();
  rec.num("finish_wait_share",
          total > 0 ? blame.total[obs::Blame::kFinishWait] / total : 0.0);
  rec.num("cofence_wait_share",
          total > 0 ? blame.total[obs::Blame::kCofenceWait] / total : 0.0);
  rec.num("critical_path_us", blame.critical_path_us);
}

void summarize_spans(const Args& args, Record& rec) {
  const std::vector<SpanRec> spans = g_spans.all();
  const std::vector<std::int64_t> self = self_times(spans);
  constexpr auto kOps = static_cast<std::size_t>(Op::kCount);
  std::array<std::vector<double>, kOps> wait_ns, self_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto op = static_cast<std::size_t>(spans[i].op);
    wait_ns[op].push_back(
        static_cast<double>(spans[i].end_ns - spans[i].start_ns));
    self_ns[op].push_back(static_cast<double>(self[i]));
  }
  rec.count("spans", spans.size());
  // copy_async never blocks, so its self time is its initiation cost;
  // cofence blocks, so its wait time is what the caller sees.
  const auto copy = static_cast<std::size_t>(Op::kCopyAsync);
  const auto fence = static_cast<std::size_t>(Op::kCofence);
  rec.num("copy_async_ns_p50", percentile(self_ns[copy], 0.50));
  rec.num("copy_async_ns_p99", percentile(self_ns[copy], 0.99));
  rec.num("cofence_us_p50", percentile(wait_ns[fence], 0.50) * 1e-3);
  rec.num("cofence_us_p99", percentile(wait_ns[fence], 0.99) * 1e-3);
  std::string layers = "{";
  bool first = true;
  for (std::size_t op = 0; op < kOps; ++op) {
    if (wait_ns[op].empty()) {
      continue;
    }
    double wait = 0, own = 0;
    for (std::size_t k = 0; k < wait_ns[op].size(); ++k) {
      wait += wait_ns[op][k];
      own += self_ns[op][k];
    }
    char text[256];
    std::snprintf(text, sizeof(text),
                  "%s\"%s\": {\"count\": %zu, \"wait_s\": %.9f, "
                  "\"self_s\": %.9f}",
                  first ? "" : ", ", kOpNames[op], wait_ns[op].size(),
                  wait * 1e-9, own * 1e-9);
    layers += text;
    first = false;
  }
  rec.raw("span_summary", layers + "}");

  if (!args.spans_path.empty()) {
    std::ofstream out(args.spans_path);
    out << "name,image,thread,start_ns,end_ns,self_ns,id,parent\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      out << kOpNames[static_cast<std::size_t>(s.op)] << ',' << s.image << ','
          << s.thread << ',' << s.start_ns << ',' << s.end_ns << ',' << self[i]
          << ',' << s.id << ',' << s.parent << '\n';
    }
    if (!out) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   args.spans_path.c_str());
    }
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=<uts|randomaccess|ring4k|collectives> "
               "--seed=<n> [--shards=<n>] [--trace] [--setup-only] "
               "[--spans=<path>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* key) -> const char* {
      const std::size_t len = std::strlen(key);
      return arg.compare(0, len, key) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args.workload = v;
    } else if (const char* v = value("--seed=")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--shards=")) {
      args.shards = std::atoi(v);
    } else if (const char* v = value("--spans=")) {
      args.spans_path = v;
    } else if (arg == "--trace") {
      args.trace = true;
    } else if (arg == "--setup-only") {
      args.setup_only = true;
    } else {
      return usage(argv[0]);
    }
  }

  Probe probe;
  Workload w;
  if (args.workload == "uts") {
    w = uts_workload(args, probe);
  } else if (args.workload == "randomaccess") {
    w = randomaccess_workload(probe);
  } else if (args.workload == "ring4k") {
    w = ring_workload(args, probe);
  } else if (args.workload == "collectives") {
    w = collectives_workload(args, probe);
  } else {
    return usage(argv[0]);
  }
  if (args.setup_only) {
    w.body = [&probe] { enter_body(probe); };
  }

  RuntimeOptions options;
  options.num_images = w.images;
  options.net = NetworkParams::gemini_like();  // 0.2 us jitter, seeded below
  options.seed = mix64(args.seed);
  options.shards = args.shards > 0 ? args.shards : w.shards;
  options.max_events = 600'000'000;
  options.label = "perfbench";
  if (args.trace) {
    options.obs.enabled = true;
    options.obs.max_net_track_bytes = std::size_t{64} << 20;
    g_spans.enable(w.images);
  }

  probe.phase_us.assign(static_cast<std::size_t>(w.images), 0.0);

  RunStats run;
  const std::int64_t t0 = host_ns();
  std::int64_t t1 = 0;
  {
    Span span(Op::kRunStats, -1);
    run = run_stats(options, w.body);
    t1 = host_ns();
  }

  Record rec;
  Checks checks;
  rec.str("workload", args.workload);
  rec.count("seed", args.seed);
  rec.count("images", static_cast<std::uint64_t>(w.images));
  rec.count("shards", static_cast<std::uint64_t>(run.shards));
  rec.str("lookahead_mode", run.lookahead_mode);
  rec.num("wall_s", static_cast<double>(t1 - t0) * 1e-9);
  rec.num("setup_s", static_cast<double>(probe.body_entry_ns - t0) * 1e-9);
  rec.num("resting_rss_mb", static_cast<double>(probe.resting_rss_kb) / 1024.0);
  if (!args.setup_only) {
    rec.num("virtual_ms",
            *std::max_element(probe.phase_us.begin(), probe.phase_us.end()) *
                1e-3);
    rec.count("events", run.events);
    rec.count("context_switches", run.context_switches);
    rec.count("windows", run.windows);
    rec.count("window_stalls", run.window_stalls);
    rec.counts("shard_events", run.shard_events);
    w.finish(run, checks, rec);
    if (run.obs) {
      summarize_obs(*run.obs, rec);
    }
    if (args.trace) {
      summarize_spans(args, rec);
    }
  }
  rec.num("peak_rss_mb", static_cast<double>(proc_status_kb("VmHWM")) / 1024.0);
  rec.count("checks_attempted", checks.attempted);
  rec.count("checks_failed", checks.failed);
  rec.print();
  return checks.failed == 0 ? 0 : 1;
}
