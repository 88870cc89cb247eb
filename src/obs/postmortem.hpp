#pragma once

/// \file postmortem.hpp
/// Structured failure diagnosis (DESIGN.md §4.10).
///
/// Every Engine::fail path — deadlock, quiet-period watchdog, retry cap,
/// event budget, escaped exceptions — now produces an obs::Postmortem: a
/// typed snapshot of the stalled run (per-image wait stacks, last-N flight
/// recorder events, finish/retransmit counters, a wait-for graph with
/// SCC-based cycle detection, and a blame summary when the span recorder was
/// on). The same snapshot is available on demand via
/// rt::Runtime::dump_postmortem() / caf2::dump_postmortem().
///
/// Three renderers:
///   to_text()            deterministic fixed-precision text — byte-identical
///                        across repeated runs
///   to_json()            machine-readable mirror of the struct
///   wait_graph_to_dot()  Graphviz digraph of the wait-for graph, cycle
///                        members highlighted
///
/// The text rendering is also the failure message: StallError::what()
/// carries it, so an uncaught hang still prints the full causal story.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/blame.hpp"
#include "obs/flight_recorder.hpp"
#include "support/config.hpp"
#include "support/error.hpp"

namespace caf2::obs {

/// Which Engine::fail path produced the postmortem.
enum class FailKind : std::uint8_t {
  kOnDemand,       ///< dump_postmortem() on a healthy run
  kDeadlock,       ///< empty event heap, every unfinished image blocked
  kQuietWatchdog,  ///< no event due within the configured quiet period
  kRetryCap,       ///< reliable delivery exhausted its retransmit attempts
  kEventBudget,    ///< EngineOptions::max_events exceeded
  kCallbackError,  ///< an engine callback (timer, handler) threw
  kImageError,     ///< an image body raised an exception
  kExplicitFail,   ///< Engine::fail() called without a more specific kind
};

const char* to_string(FailKind kind);

/// What the wait-for graph analysis concluded.
enum class StallClass : std::uint8_t {
  kNotStalled,         ///< on-demand snapshot / error unrelated to waiting
  kDeadlockCycle,      ///< a wait cycle exists: true deadlock
  kDeadlockNoCycle,    ///< heap empty + all blocked, but no cycle (e.g. a
                       ///< wait nothing will ever satisfy)
  kStallNoCycle,       ///< quiet period with traffic still possible — slow
                       ///< network or starvation, not deadlock
  kLivelockSuspected,  ///< progress machinery still firing (retries, budget
                       ///< burn) without the run completing
};

const char* to_string(StallClass c);

/// Classify from the failure path plus whether the graph found a cycle.
StallClass classify(FailKind kind, bool found_cycle);

/// What a blocked image is waiting *on*.
enum class ResourceKind : std::uint8_t {
  kNone,          ///< untyped wait (raw reason string only)
  kEvent,         ///< rt::Event count (a = event id, owner = home image)
  kOpCompletion,  ///< local data/op completion of outstanding async ops
  kFinish,        ///< finish-scope termination (a = team id, b = seq)
  kCollective,    ///< team collective completion (a = team id, b = seq)
  kExitGate,      ///< end-of-run exit rendezvous
  kSteal,         ///< work-steal reply from a victim (owner = victim)
};

const char* to_string(ResourceKind kind);

/// Identity of a waited-on resource. Two frames with equal ResourceIds wait
/// on the same thing (used to build wait-for graph nodes).
struct ResourceId {
  ResourceKind kind = ResourceKind::kNone;
  std::int32_t owner = -1;  ///< home image rank, -1 = not image-homed
  std::uint64_t a = 0;      ///< kind-specific (see ResourceKind)
  std::uint64_t b = 0;      ///< kind-specific (see ResourceKind)

  bool operator==(const ResourceId&) const = default;
};

std::string to_string(const ResourceId& id);

/// One level of an image's wait stack (waits nest: e.g. a finish detection
/// blocks inside an allreduce which blocks inside an event wait).
struct WaitFrame {
  ResourceId resource{};
  const char* reason = "";  ///< literal passed to Image::wait_for
  double since_us = 0.0;    ///< virtual time the frame was entered
};

/// Snapshot of one finish scope's state on one image.
struct PmFinishScope {
  int team = 0;
  std::uint32_t seq = 0;
  bool terminated = false;
  bool odd_epoch = false;  ///< present epoch parity (paper's epoch flip)
  int rounds = 0;          ///< detection allreduce waves so far
  std::uint64_t even_sent = 0, even_delivered = 0, even_received = 0,
                even_completed = 0;
  std::uint64_t odd_sent = 0, odd_delivered = 0, odd_received = 0,
                odd_completed = 0;
};

/// Snapshot of one image.
struct PmImage {
  int rank = -1;
  const char* state = "";      ///< "runnable" | "blocked" | "finished" | ...
  std::string block_reason;    ///< engine block reason when state=="blocked"
  std::vector<WaitFrame> waits;  ///< wait stack, outermost first
  std::uint64_t mailbox_pending = 0;
  std::uint64_t cofence_scopes = 0;
  std::uint64_t outstanding_ops = 0;
  std::vector<PmFinishScope> finish;  ///< sorted by (team, seq)
  std::vector<FrEvent> recent;        ///< flight recorder tail, oldest first
  std::uint64_t recorded_total = 0;   ///< events ever recorded for this image
};

/// Snapshot of one in-flight reliable message.
struct PmFlight {
  int source = -1;
  int dest = -1;
  std::uint64_t seq = 0;      ///< per-link sequence number
  std::uint64_t ordinal = 0;  ///< per-link initiation ordinal (seq + 1)
  int attempts = 0;
  int max_attempts = 0;
  int handler = -1;
  std::uint64_t bytes = 0;
  double first_sent_us = 0.0;
  double rto_us = 0.0;
};

/// Snapshot of the network layer.
struct PmNetwork {
  bool present = false;  ///< false for raw-Engine postmortems (no runtime)
  bool reliable = false;
  std::size_t inflight_total = 0;
  std::vector<PmFlight> inflight;  ///< first kMaxListedFlights of them
  FaultStats faults{};
};

inline constexpr std::size_t kMaxListedFlights = 16;

/// How many of each image's most recent flight-recorder events a postmortem
/// includes.
inline constexpr std::size_t kPostmortemRecentEvents = 16;

/// Bipartite wait-for graph: image → resource edges from wait stacks,
/// resource → image edges from satisfier analysis (which images could still
/// make the resource come true).
struct WaitGraph {
  struct Edge {
    int waiter = -1;
    ResourceId resource{};
    const char* reason = "";
    double since_us = 0.0;
  };

  struct Satisfiers {
    ResourceId resource{};
    std::vector<int> images;  ///< sorted ranks that could satisfy it
    /// True when in-flight engine events (messages, timers) could satisfy
    /// the resource without any blocked image acting — such resources are
    /// excluded from cycle detection (a "cycle" through them is just a
    /// slow network, not deadlock).
    bool external = false;
  };

  struct Cycle {
    std::vector<int> images;           ///< sorted ranks in the SCC
    std::vector<ResourceId> resources;  ///< resources in the SCC
  };

  std::vector<Edge> edges;
  std::vector<Satisfiers> resources;
  std::vector<Cycle> cycles;  ///< filled by find_cycles()
};

/// Tarjan SCC over the bipartite graph; every SCC containing at least one
/// image and one resource becomes a Cycle. Deterministic: cycles and their
/// members come out sorted.
void find_cycles(WaitGraph& graph, int num_images);

/// The complete structured postmortem.
struct Postmortem {
  FailKind kind = FailKind::kOnDemand;
  StallClass classification = StallClass::kNotStalled;
  std::string headline;  ///< e.g. "deadlock: no pending events and ..."
  std::string label;     ///< EngineOptions::label
  double now_us = 0.0;
  std::uint64_t events = 0;         ///< engine events dispatched
  std::uint64_t pending_calls = 0;  ///< engine call events still in flight
  int images = 0;
  std::vector<PmImage> per_image;
  WaitGraph graph;
  PmNetwork net;
  /// Critical-path blame summary; non-null only when the span recorder
  /// (RuntimeOptions::obs.enabled) was on.
  std::shared_ptr<const BlameReport> blame;
  /// Non-empty when the postmortem collector itself threw; the exception is
  /// swallowed here instead of aborting the failing run.
  std::string collector_error;
};

/// Thrown out of Engine::run() on failure. Derives FatalError so existing
/// catch sites keep working; carries the structured postmortem.
class StallError : public FatalError {
 public:
  StallError(const std::string& what,
             std::shared_ptr<const Postmortem> postmortem)
      : FatalError(what), postmortem_(std::move(postmortem)) {}

  /// May be null when the failure predates postmortem collection.
  const std::shared_ptr<const Postmortem>& postmortem() const {
    return postmortem_;
  }

 private:
  std::shared_ptr<const Postmortem> postmortem_;
};

/// Deterministic text rendering (fixed-precision doubles, sorted sections).
std::string to_text(const Postmortem& pm);

/// Machine-readable mirror of the whole struct.
std::string to_json(const Postmortem& pm);

/// Graphviz digraph of the wait-for graph (images as boxes, resources as
/// ellipses, cycle members in red).
std::string wait_graph_to_dot(const Postmortem& pm);

}  // namespace caf2::obs
