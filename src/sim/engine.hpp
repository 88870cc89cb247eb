#pragma once

/// \file engine.hpp
/// Deterministic discrete-event simulation engine.
///
/// This is the substrate that substitutes for the paper's Cray XK6/XE6
/// testbeds (DESIGN.md §1, §4.1). Each CAF process image runs as its own
/// execution context, but the engine admits exactly **one runnable context
/// at a time per shard**: a participant that blocks, advances its virtual
/// clock, or finishes hands the token to whichever pending event is earliest
/// in *virtual time* (ties broken by insertion sequence, so runs are fully
/// deterministic).
///
/// Every participant is a stackful fiber (DESIGN.md §4.8), multiplexed on
/// the OS thread that runs its shard's scheduler loop: the thread that
/// called run(), or one worker thread per shard. The token handoff is a
/// userspace register swap, and because a shard's participants, callbacks
/// and scheduler all run on one OS thread, the engine needs no lock on its
/// per-shard state. This is what makes paper-scale runs practical.
///
/// Two event kinds live in the heap:
///  - Wake(p, t): hand the token to participant p at time t (created by
///    advance(), yield(), and unblock());
///  - Call(f, t): run an engine callback at time t (network staging,
///    delivery, timers). Callbacks run on the shard's scheduler loop
///    and must not touch participant-local state or block.
/// A participant that blocks without a scheduled wake is resumed only by a
/// later unblock() from a callback or participant on its own shard.
///
/// Dispatch stays cheap because heap events are 24-byte PODs: a Call
/// event's closure lives in a pooled small-buffer slot (InlineFn), not in a
/// freshly allocated std::function (DESIGN.md §4.6).
///
/// --- windows and shards (DESIGN.md §4.11) -----------------------------------
///
/// The engine runs a conservative parallel discrete-event simulation for
/// every shard count. Participants are partitioned into contiguous shards
/// (EngineOptions::shards or CAF2_SIM_SHARDS); each shard owns its own
/// event heap, call pool, sequence counter, and clock. Shard 0 runs on the
/// thread that called run(), and shards 1..n-1 each get one worker thread.
/// Virtual time advances in windows: a shard may dispatch any event strictly
/// below `window_end = global_min + span`, where `global_min` is the minimum
/// pending event time across shards. With more than one shard the span is
/// the lookahead, the network's minimum hop latency
/// (EngineOptions::lookahead_us): any event one shard creates on another (a
/// message delivery or its ack) carries a timestamp at least `lookahead` in
/// the future, so it can never land inside the window a destination shard is
/// already executing. The only cross-shard event is a post_for() call: it is
/// staged into the destination's inbox and merged at the next window
/// boundary in the deterministic order `(time, source shard, per-source
/// counter)`, then re-sequenced into the destination heap; the merge
/// verifies the lookahead contract instead of clamping. Wakes never cross
/// shards (unblock() is shard-local). A one-shard engine has no peer, so its
/// span is unbounded and the whole run is one window. When the quiet-period
/// watchdog is on, every span is capped at watchdog_quiet_us so the barrier
/// sees every quiet gap. Every run is deterministic across repeats. No layer
/// above the engine keys its state by shard, so a program runs one virtual
/// schedule on every shard count; only exactly simultaneous events staged
/// from different shards may merge in a different order, and the scheduling
/// counters (context switches, windows, stalls, per-shard event counts)
/// differ. Sharding requires a positive lookahead; configurations
/// without one (zero wire or ack latency) run on one shard. The
/// reliable-delivery protocol and obs span capture both run sharded
/// (DESIGN.md §4.12).
///
/// If the heap drains while unfinished participants are blocked, the
/// simulated program has provably deadlocked; the engine collects a
/// structured obs::Postmortem (its own per-participant section plus whatever
/// the installed postmortem collector contributes — the runtime adds wait-for
/// graph edges, per-image finish counters, flight-recorder tails, and the
/// network's in-flight messages) and raises an obs::StallError carrying both
/// the postmortem and its deterministic text rendering in every participant.
/// A virtual-time quiet-period watchdog (EngineOptions::watchdog_quiet_us)
/// produces the same postmortem when every unfinished participant is blocked
/// and the next pending event is suspiciously far in the virtual future
/// (e.g. a runaway retransmission backoff chain). The deadlock / budget /
/// watchdog checks run at window boundaries, where every shard is quiesced
/// and the global state is consistent.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/inline_fn.hpp"
#include "sim/trace.hpp"
#include "support/error.hpp"

namespace caf2::obs {
class Recorder;
struct Postmortem;
enum class FailKind : std::uint8_t;
}

namespace caf2::sim {

class Engine;

/// The shard count a given configuration requests before the Engine clamps
/// it against the participant count and the lookahead: an explicit
/// `configured >= 1` wins; `configured <= 0` reads CAF2_SIM_SHARDS and
/// defaults to 1. CAF2_SIM_SHARDS must be a whole positive decimal integer
/// ("4x", "abc", "0" and "-2" throw caf2::UsageError naming the variable; an
/// empty value counts as unset, likewise below). Exposed for bench metadata
/// stamps.
int resolve_shards(int configured);

/// Everything that makes the calling context "participant N of engine E".
/// The scheduler swaps the thread-local instance on every fiber switch, so
/// code above the engine (e.g. the runtime's current-image pointer, stored
/// in a slot) sees per-participant state although participants share OS
/// threads.
struct ExecContext {
  Engine* engine = nullptr;
  int id = -1;
  /// Replacement for participant-local `thread_local` variables in higher
  /// layers. Slot 0: rt::Image*, slot 1: rt::Runtime*.
  std::array<void*, 2> slots{};
};

/// Engine knobs (a subset of caf2::RuntimeOptions relevant to scheduling).
struct EngineOptions {
  bool record_trace = false;
  std::uint64_t max_events = 0;  ///< 0 = unlimited
  std::string label = "sim";

  /// Upper bound on recorded TraceEntry records per shard (0 = unlimited).
  /// Entries past the cap are counted (Engine::trace_dropped()) and
  /// discarded, so record_trace on a long 1024-image run cannot grow without
  /// bound. The default bounds the trace at ~128 MiB per shard.
  std::uint64_t max_trace_entries = std::uint64_t{1} << 22;

  /// Quiet-period watchdog (virtual microseconds; 0 = disabled). When every
  /// unfinished participant is blocked and the earliest pending event lies
  /// more than this far beyond the current virtual time, the engine fails
  /// the run with a watchdog report instead of fast-forwarding the clock.
  /// Participants that are merely advancing their clocks (modeled compute)
  /// hold a scheduled wake and never trip the watchdog. The check runs at
  /// window boundaries; a positive value caps every window at this span.
  double watchdog_quiet_us = 0.0;

  /// Usable stack bytes per participant fiber (rounded up to whole pages; a
  /// PROT_NONE guard page is added below). Virtual memory only — resident
  /// cost is the pages a participant actually touches.
  std::size_t fiber_stack_bytes = std::size_t{1} << 20;

  /// Number of engine shards (parallel worker threads). An explicit value
  /// >= 1 is used as-is; <= 0 means "from the environment": CAF2_SIM_SHARDS
  /// when set, else 1. The engine clamps the result to the participant count
  /// and falls back to 1 whenever lookahead_us <= 0 (no conservative window
  /// exists without a minimum cross-participant latency).
  int shards = 0;

  /// Conservative lookahead window (virtual microseconds) for sharded runs:
  /// the minimum virtual-time distance of any event one shard can create on
  /// another. The runtime derives it from the network: min(wire latency, ack
  /// latency). <= 0 disables sharding (automatic fallback to shards = 1).
  double lookahead_us = 0.0;
};

class Engine {
 public:
  Engine(int participants, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Execute \p body SPMD on every participant. Blocks until every
  /// participant's body returned. Rethrows the first participant exception
  /// (after unwinding all other participants).
  void run(const std::function<void(int)>& body);

  /// Number of participants.
  int size() const { return static_cast<int>(participants_.size()); }

  /// --- calls valid only on a participant ----------------------------------

  /// Engine owning the calling participant context (nullptr elsewhere).
  static Engine* current_engine();

  /// Participant id of the calling context (-1 elsewhere).
  static int current_id();

  /// Participant-local storage slot of the calling execution context (see
  /// ExecContext::slots). Higher layers use these instead of `thread_local`
  /// so their per-image state follows the participant across fiber switches.
  static void*& context_slot(int index);

  /// Current virtual time in microseconds: the calling context's shard
  /// clock; from outside any engine context the maximum over all shard
  /// clocks.
  double now() const;

  /// Model local computation: advance virtual time by \p dt microseconds and
  /// yield to any earlier event.
  void advance(double dt);

  /// Let all events scheduled at the current time run before continuing.
  void yield() { advance(0.0); }

  /// Park the calling participant until another participant or a callback
  /// calls unblock() on it. \p reason appears in deadlock diagnostics.
  void block(const char* reason = "blocked");

  /// --- calls valid on a participant or inside a Call callback -------------

  /// Make a blocked participant runnable at the current virtual time.
  /// Harmless if the participant is already runnable or finished. Wakes are
  /// shard-local: the target must live on the calling context's shard, and
  /// a target on another shard is a UsageError naming it. An effect on
  /// another shard is an event posted there with post_for(), whose callback
  /// then wakes the target locally.
  void unblock(int participant);

  /// Schedule a callback at absolute virtual time \p at (>= now()).
  /// Accepts any move-constructible void() callable; closures up to
  /// InlineFn::kInlineBytes are stored without heap allocation. The callback
  /// runs on the calling context's shard.
  template <class F>
  void post(double at, F&& fn) {
    post_call(at, InlineFn(std::forward<F>(fn)));
  }

  /// Schedule a callback \p delay microseconds from now.
  template <class F>
  void post_in(double delay, F&& fn) {
    post_call(now() + delay, InlineFn(std::forward<F>(fn)));
  }

  /// Schedule a callback on the shard that owns \p participant. Same-shard
  /// calls are exactly post(); cross-shard calls stage the
  /// event into the owning shard's inbox for the next window merge and
  /// require `at >= now() + lookahead_us` (the conservative-window
  /// contract; the network's wire and ack latencies provide it).
  template <class F>
  void post_for(int participant, double at, F&& fn) {
    post_for_call(participant, at, InlineFn(std::forward<F>(fn)));
  }

  /// Abort the run with a diagnosable failure: a structured obs::Postmortem
  /// is collected and every blocked participant is woken with an
  /// obs::StallError carrying the postmortem's text rendering. Callable from
  /// a participant or an engine callback; the reliability layer uses
  /// the two-argument form when a message exhausts its retransmission
  /// budget. The one-argument form tags the postmortem
  /// obs::FailKind::kExplicitFail. The failure is recorded immediately; the
  /// postmortem is collected at the next window boundary, where every shard
  /// is quiesced.
  void fail(const std::string& why);
  void fail(const std::string& why, obs::FailKind kind);

  /// Install a callback that fills the runtime-owned sections of a
  /// Postmortem (wait-for graph, per-image counters, network state, blame).
  /// Invoked on a quiesced engine: it must not call back into the engine
  /// except now() and event_count(), and must only *read* simulation state —
  /// safe, because a stalling engine has no other context running.
  /// Exceptions it throws are swallowed into Postmortem::collector_error
  /// (never allowed to abort a failing run).
  using PostmortemCollector = std::function<void(obs::Postmortem&)>;
  void set_postmortem_collector(PostmortemCollector fn);

  /// Collect a Postmortem of the current (healthy or stalled) state, tagged
  /// obs::FailKind::kOnDemand. Callable from a participant context or from
  /// outside the run. During a multi-shard run other shards execute
  /// concurrently, so the snapshot contains only the engine-level counters
  /// (no per-participant detail, no collector sections); a quiesced engine
  /// (one shard, or between runs) produces the full report.
  obs::Postmortem snapshot_postmortem(const std::string& headline);

  /// The postmortem collected by the first failure, or null if the run has
  /// not failed. Also carried by the obs::StallError run() throws.
  std::shared_ptr<const obs::Postmortem> last_postmortem() const {
    return last_postmortem_;
  }

  /// --- introspection -------------------------------------------------------

  /// Total events dispatched so far (summed over shards).
  std::uint64_t event_count() const;

  /// Token handoffs between *different* participants dispatched so far,
  /// summed over shards. Within a shard this is a pure function of the
  /// dispatch order, so bit-identical across repeats — the determinism
  /// suite compares it.
  std::uint64_t context_switch_count() const;

  /// Recorded trace (empty unless EngineOptions::record_trace). Populated
  /// when run() returns as the concatenation of the per-shard traces in
  /// shard order (deterministic for a fixed shard count).
  const std::vector<TraceEntry>& trace() const { return trace_; }

  /// Trace entries discarded by EngineOptions::max_trace_entries.
  std::uint64_t trace_dropped() const;

  /// --- sharding ------------------------------------------------------------

  /// Resolved number of shards (>= 1; clamped and fallback-applied).
  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Shard owning \p participant.
  int shard_of(int participant) const {
    return shard_index_[static_cast<std::size_t>(participant)];
  }

  /// The calling context's shard; shard 0 outside any engine context (before
  /// or after the run, when every shard is quiesced).
  int current_shard() const;

  /// Conservative lookahead: the configured EngineOptions::lookahead_us on
  /// every shard count (one shard still runs one unbounded window; the
  /// runtime's exit rendezvous hops by this value on every shard count).
  double lookahead_us() const { return options_.lookahead_us; }

  /// Window advances performed so far (1 for the initial window; a
  /// one-shard run without a watchdog is a single window).
  std::uint64_t window_count() const;

  /// Shard-windows in which a shard had no executable event (its next event
  /// lay at or beyond the window end). High stall counts explain a flat
  /// scaling curve: the partition is imbalanced or the lookahead too small.
  std::uint64_t window_stall_count() const;

  /// Events dispatched per shard (one entry per shard, index = shard id).
  std::vector<std::uint64_t> shard_event_counts() const;

  /// Attach an observability recorder (nullptr detaches; see obs/obs.hpp).
  /// Hooks fire from advance() and block(); a null observer costs one branch.
  /// Recording never schedules events, so an observed run's event schedule,
  /// trace, and stats are bit-identical to an unobserved one. Sharded
  /// engines are supported when the recorder was built with one net lane per
  /// shard (obs::Recorder's net_lanes constructor argument): the per-image
  /// hooks only ever fire on the image's home shard, and network spans go to
  /// the calling shard's lane (DESIGN.md §4.12).
  void set_observer(obs::Recorder* observer) { observer_ = observer; }

 private:
  enum class PState : std::uint8_t { kIdle, kRunnable, kWaiting, kFinished };

  struct Participant {
    int id = -1;
    PState state = PState::kIdle;
    bool active = false;  ///< holds (or is about to receive) the token
    std::string block_reason;
    std::unique_ptr<Fiber> fiber;
    ExecContext context;  ///< saved while the fiber is suspended
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Heap entry: a POD. Wake events carry the participant id; Call events
  /// carry an index into the shard's call pool where the closure lives.
  struct Event {
    double at = 0.0;
    std::uint64_t seq = 0;
    std::int32_t participant = -1;      ///< >= 0 for Wake events
    std::uint32_t call_slot = kNoSlot;  ///< != kNoSlot for Call events
  };

  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) {
        return a.at > b.at;  // min-heap on time
      }
      return a.seq > b.seq;  // FIFO among equal times
    }
  };

  /// A call staged by one shard for another (post_for), merged at the next
  /// window boundary. Sorted by (at, source_shard, order) — `order` is a
  /// per-source monotonic counter, so the merge is deterministic for a fixed
  /// shard count — then re-sequenced into the destination heap.
  struct CrossEvent {
    double at = 0.0;
    std::uint64_t order = 0;
    std::int32_t source_shard = 0;
    InlineFn fn;
  };

  /// Per-shard scheduler state. The inbox is the only member other shards may
  /// touch, always under inbox_mutex.
  struct Shard {
    int index = 0;
    int first = 0;  ///< first participant id; shard spans [first, first+count)
    int count = 0;

    std::priority_queue<Event, std::vector<Event>, EventOrder> heap;
    std::vector<InlineFn> call_pool;         ///< Call closures, slot-addressed
    std::vector<std::uint32_t> free_slots;   ///< recycled call_pool indices

    // now_us and dispatched are atomics so now()/event_count() stay callable
    // from other threads; all *writes* happen on the shard's scheduler
    // thread, so relaxed ordering suffices — cross-thread publication rides
    // the window-barrier handoff.
    std::atomic<double> now_us{0.0};
    std::atomic<std::uint64_t> dispatched{0};
    std::atomic<std::uint64_t> context_switches{0};
    // This shard's conservative window end: events strictly below it may
    // dispatch this window. Written only at the window barrier (every shard
    // quiesced); read lock-free on the shard's own hot paths, so it is an
    // atomic with relaxed ordering (publication rides the barrier handoff).
    std::atomic<double> window_end{0.0};
    std::uint64_t next_seq = 0;
    int token_owner = -1;  ///< participant last handed the token
    int finished_count = 0;

    std::vector<TraceEntry> trace;
    std::uint64_t trace_dropped = 0;

    // Cross-shard staging.
    std::mutex inbox_mutex;
    std::vector<CrossEvent> inbox;
    std::uint64_t cross_order = 0;  ///< next CrossEvent stamp (source side)
  };

  Shard& home_shard(int participant) {
    return *shards_[static_cast<std::size_t>(shard_of(participant))];
  }

  /// The shard of the calling context; shard 0 from outside any engine
  /// context (before or after the run).
  Shard& calling_shard();

  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// One shard's scheduler loop: create its participants' fibers, dispatch
  /// and resume them window by window through the barrier protocol until
  /// every one finished or the run failed, then unwind and release them.
  /// Shard 0 runs on the thread that called run(), every other shard on its
  /// own worker thread.
  void run_shard(Shard& shard, const std::function<void(int)>& body);

  /// Arrive at the window barrier; the last arriver merges inboxes and opens
  /// the next window (or completes the run). Returns false when the run is
  /// over (all finished, or failed with the postmortem built).
  bool window_rendezvous();

  /// Last-arriver body: every shard is quiesced, the sync mutex serializes
  /// access. Returns false to end the run.
  bool advance_window_locked();

  /// Merge a shard's inbox into its heap (deterministic order, fresh local
  /// sequence numbers). Returns false — filling \p violation — when a call
  /// arrived below the destination clock: a conservative-window violation
  /// the caller must turn into an engine failure.
  bool drain_inbox_locked(Shard& shard, std::string& violation);

  /// Build the failure postmortem at the window barrier and release every
  /// participant to unwind (shutdown_ready_).
  void finish_failure_locked();

  /// Record a failure without collecting the postmortem (the collection
  /// happens at the window barrier where every shard is quiesced). First
  /// failure wins.
  void fail_pending(obs::FailKind kind, const std::string& headline,
                    std::exception_ptr participant_error, bool callback_error);

  /// Participant body (entry function of the fiber).
  void fiber_main(int id, const std::function<void(int)>& body);

  /// Switch onto a participant's fiber, installing its ExecContext for the
  /// duration and saving it back (with any slot changes) on return.
  void resume_fiber(Participant& target);

  /// After a failure: resume every live fiber of \p shard once
  /// so its pending engine call observes failed_ and throws, unwinding the
  /// body. Runs in rank order (deterministic); never-started fibers are
  /// retired without running the body.
  void unwind_live_fibers(Shard& shard);

  /// Relinquish the token: suspend back to the shard's scheduler loop,
  /// which dispatches. Must be called by the participant that currently has
  /// the token. Throws FatalError if the run failed meanwhile.
  void switch_out(Participant& self);

  /// Pop and dispatch \p shard's events until a participant is activated,
  /// the shard drains, or the window is exhausted. Returns the activated
  /// participant, or nullptr. A callback that throws fails the run instead
  /// of propagating.
  Participant* dispatch_chain(Shard& shard);

  void post_call(double at, InlineFn fn);
  void post_for_call(int participant, double at, InlineFn fn);

  /// Stage a call into another shard's inbox. Must run on an engine
  /// context (the source shard identity stamps the merge order).
  void cross_post(int dest_shard, double at, InlineFn fn);

  std::uint32_t acquire_slot(Shard& shard, InlineFn fn);

  std::uint64_t total_dispatched() const;

  /// Compose the failure text for a throwing engine callback.
  static std::string describe_callback_error(const std::exception_ptr& error);

  /// Collect the structured postmortem: engine-owned fields (participant
  /// states, event counts) plus whatever the postmortem collector
  /// contributes. Exceptions from the collector are swallowed into
  /// Postmortem::collector_error — a report must never abort the failing run
  /// it is reporting on. Requires the engine to be quiesced (one shard, or
  /// every shard parked at the window barrier).
  std::shared_ptr<const obs::Postmortem> build_postmortem_locked(
      obs::FailKind kind, const std::string& headline);

  /// Throw the failure as an obs::StallError carrying last_postmortem_.
  [[noreturn]] void throw_failure() const;

  /// True when at least one participant is blocked and every unfinished one
  /// is (i.e. only heap events can make progress). Requires a quiesced
  /// engine.
  bool all_unfinished_blocked_locked() const;

  void record(Shard& shard, TraceKind kind, int participant);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::int32_t> shard_index_;  ///< participant id -> shard
  std::vector<std::unique_ptr<Participant>> participants_;
  EngineOptions options_;
  /// Width of every window past the global minimum: the lookahead, or
  /// unbounded for one shard, capped at the watchdog quiet period.
  double window_span_ = 0.0;
  PostmortemCollector collector_;
  std::shared_ptr<const obs::Postmortem> last_postmortem_;

  std::atomic<bool> failed_{false};
  std::string failure_reason_;
  std::exception_ptr first_error_;
  bool running_ = false;
  /// False while more than one shard executes: snapshot_postmortem may then
  /// not read per-participant state.
  std::atomic<bool> quiesced_{true};

  // Window-barrier state. sync_mutex_ orders every
  // barrier handoff, which is what lets the last arriver read and mutate
  // every shard's state race-free.
  std::mutex sync_mutex_;
  std::condition_variable sync_cv_;
  int sync_waiting_ = 0;
  std::uint64_t sync_generation_ = 0;
  bool sync_done_ = false;
  std::uint64_t windows_ = 0;
  std::uint64_t window_stalls_ = 0;

  // Failure staging: the postmortem is built later, at the barrier, so the
  // failing context only records what happened here.
  std::mutex fail_mutex_;
  obs::FailKind pending_fail_kind_{};
  std::string pending_fail_headline_;
  bool pending_fail_is_callback_ = false;
  std::atomic<bool> shutdown_ready_{false};

  std::vector<TraceEntry> trace_;  ///< merged after run()
  obs::Recorder* observer_ = nullptr;
};

/// RAII helper used in tests to run a closure body on every participant of a
/// fresh engine with the given options.
void run_spmd(int participants, const std::function<void(int)>& body,
              EngineOptions options = {});

}  // namespace caf2::sim
