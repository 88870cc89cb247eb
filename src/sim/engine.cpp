#include "sim/engine.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>

#include "obs/obs.hpp"
#include "obs/postmortem.hpp"

namespace caf2::sim {

namespace {
/// The value of environment variable \p name, or nullptr when it is unset or
/// empty (an empty value means "unset": CI exports "" for unused switches).
const char* env_value(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && *env != '\0' ? env : nullptr;
}

/// Diagnostic for an environment variable holding an unusable value.
std::string bad_env(const char* name, const char* value,
                    const char* expected) {
  return std::string(name) + "='" + value + "' is not valid (expected " +
         expected + ")";
}
}  // namespace

int resolve_shards(int configured) {
  if (configured >= 1) {
    return configured;  // an explicit request always wins over the env
  }
  if (const char* env = env_value("CAF2_SIM_SHARDS")) {
    int parsed = 0;
    const char* end = env + std::strlen(env);
    const auto [stop, error] = std::from_chars(env, end, parsed);
    CAF2_REQUIRE(error == std::errc{} && stop == end && parsed >= 1,
                 bad_env("CAF2_SIM_SHARDS", env, "a positive integer"));
    return parsed;
  }
  return 1;
}

namespace {
/// The calling context's identity. The fiber scheduler swaps it on every
/// fiber switch (the suspended copy lives in Participant::context).
thread_local ExecContext tls_context;

/// The shard the calling OS thread works for. Set by a shard's scheduler
/// loop for its whole tenure; fiber switches never change the OS thread, so
/// unlike tls_context this needs no swapping.
struct ShardTls {
  Engine* engine = nullptr;
  int index = 0;
};
thread_local ShardTls tls_shard;
}  // namespace

Engine* Engine::current_engine() { return tls_context.engine; }
int Engine::current_id() { return tls_context.id; }

void*& Engine::context_slot(int index) {
  CAF2_ASSERT(index >= 0 &&
                  static_cast<std::size_t>(index) < tls_context.slots.size(),
              "context_slot index out of range");
  return tls_context.slots[static_cast<std::size_t>(index)];
}

Engine::Engine(int participants, EngineOptions options)
    : options_(std::move(options)) {
  CAF2_REQUIRE(participants > 0, "Engine needs at least one participant");
  int shard_count = resolve_shards(options_.shards);
  lookahead_ = options_.lookahead_us;
  if (lookahead_ <= 0.0) {
    shard_count = 1;  // no conservative window exists -> one shard
  }
  shard_count = std::min(shard_count, participants);
  // A lone shard has no peer to bound its window.
  if (shard_count == 1) {
    lookahead_ = 0.0;
  }
  window_span_ = shard_count == 1 ? std::numeric_limits<double>::infinity()
                                  : lookahead_;
  if (options_.watchdog_quiet_us > 0.0) {
    window_span_ = std::min(window_span_, options_.watchdog_quiet_us);
  }

  participants_.reserve(static_cast<std::size_t>(participants));
  for (int i = 0; i < participants; ++i) {
    auto participant = std::make_unique<Participant>();
    participant->id = i;
    participants_.push_back(std::move(participant));
  }

  // Contiguous partition; the first `participants % shard_count` shards take
  // one extra participant.
  shards_.reserve(static_cast<std::size_t>(shard_count));
  shard_index_.resize(static_cast<std::size_t>(participants));
  const int base = participants / shard_count;
  const int extra = participants % shard_count;
  int first = 0;
  for (int s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    shard->first = first;
    shard->count = base + (s < extra ? 1 : 0);
    for (int p = first; p < first + shard->count; ++p) {
      shard_index_[static_cast<std::size_t>(p)] = s;
    }
    first += shard->count;
    shards_.push_back(std::move(shard));
  }
}

Engine::~Engine() {
  // run() finishes all fibers and joins the shard workers; nothing to do
  // unless run() was never called.
}

Engine::Shard& Engine::calling_shard() {
  return *shards_[static_cast<std::size_t>(current_shard())];
}

int Engine::current_shard() const {
  return tls_shard.engine == this ? tls_shard.index : 0;
}

double Engine::now() const {
  if (tls_shard.engine == this) {
    return shards_[static_cast<std::size_t>(tls_shard.index)]->now_us.load(
        std::memory_order_relaxed);
  }
  double latest = 0.0;
  for (const auto& shard : shards_) {
    latest = std::max(latest, shard->now_us.load(std::memory_order_relaxed));
  }
  return latest;
}

std::uint64_t Engine::total_dispatched() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->dispatched.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Engine::event_count() const { return total_dispatched(); }

std::uint64_t Engine::context_switch_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->context_switches.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Engine::trace_dropped() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->trace_dropped;
  }
  return total;
}

std::uint64_t Engine::window_count() const { return windows_; }

std::uint64_t Engine::window_stall_count() const { return window_stalls_; }

std::vector<std::uint64_t> Engine::shard_event_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    counts.push_back(shard->dispatched.load(std::memory_order_relaxed));
  }
  return counts;
}

void Engine::record(Shard& shard, TraceKind kind, int participant) {
  if (!options_.record_trace) {
    return;
  }
  if (options_.max_trace_entries != 0 &&
      shard.trace.size() >= options_.max_trace_entries) {
    ++shard.trace_dropped;
    return;
  }
  shard.trace.push_back(TraceEntry{shard.trace.size(),
                                   shard.now_us.load(std::memory_order_relaxed),
                                   kind, participant});
}

std::shared_ptr<const obs::Postmortem> Engine::build_postmortem_locked(
    obs::FailKind kind, const std::string& headline) {
  auto pm = std::make_shared<obs::Postmortem>();
  pm->kind = kind;
  pm->headline = headline;
  pm->label = options_.label;
  double now = 0.0;
  std::uint64_t pending_calls = 0;
  for (const auto& shard : shards_) {
    now = std::max(now, shard->now_us.load(std::memory_order_relaxed));
    pending_calls += shard->call_pool.size() - shard->free_slots.size();
  }
  pm->now_us = now;
  pm->events = total_dispatched();
  pm->pending_calls = pending_calls;
  pm->images = size();
  pm->per_image.reserve(participants_.size());
  for (const auto& participant : participants_) {
    obs::PmImage img;
    img.rank = participant->id;
    switch (participant->state) {
      case PState::kFinished:
        img.state = "finished";
        break;
      case PState::kWaiting:
        img.state = "blocked";
        img.block_reason = participant->block_reason;
        break;
      case PState::kIdle:
        img.state = "not started";
        break;
      case PState::kRunnable:
        img.state = "runnable";
        break;
    }
    pm->per_image.push_back(std::move(img));
  }
  pm->classification = obs::classify(kind, false);
  // An exception escaping the collector would abort the very failure we are
  // reporting, so tag and swallow it instead.
  if (collector_) {
    try {
      collector_(*pm);
    } catch (const std::exception& e) {
      pm->collector_error = std::string("postmortem collector: ") + e.what();
    } catch (...) {
      pm->collector_error = "postmortem collector: non-standard exception";
    }
  }
  return pm;
}

void Engine::fail_pending(obs::FailKind kind, const std::string& headline,
                          std::exception_ptr participant_error,
                          bool callback_error) {
  std::lock_guard<std::mutex> guard(fail_mutex_);
  if (!failed()) {
    pending_fail_kind_ = kind;
    pending_fail_headline_ = headline;
    pending_fail_is_callback_ = callback_error;
    if (participant_error && !first_error_) {
      first_error_ = participant_error;
    }
    failed_.store(true, std::memory_order_release);
  } else if (participant_error && !first_error_) {
    first_error_ = participant_error;
  }
}

void Engine::finish_failure_locked() {
  if (!last_postmortem_) {
    last_postmortem_ =
        build_postmortem_locked(pending_fail_kind_, pending_fail_headline_);
    failure_reason_ = options_.label + ": " + obs::to_text(*last_postmortem_);
  }
  {
    std::lock_guard<std::mutex> guard(fail_mutex_);
    if (!first_error_) {
      // Synthesize the error every participant will surface so the exception
      // run() rethrows is deterministic (with live workers, "first
      // participant to unwind" would be a race). Callback failures carry
      // label + headline; everything else the full postmortem rendering.
      const std::string what = pending_fail_is_callback_
                                   ? options_.label + ": " + pending_fail_headline_
                                   : failure_reason_;
      first_error_ =
          std::make_exception_ptr(obs::StallError(what, last_postmortem_));
    }
  }
  shutdown_ready_.store(true, std::memory_order_release);
}

void Engine::throw_failure() const {
  throw obs::StallError(failure_reason_, last_postmortem_);
}

bool Engine::all_unfinished_blocked_locked() const {
  bool any_waiting = false;
  for (const auto& participant : participants_) {
    switch (participant->state) {
      case PState::kFinished:
        break;
      case PState::kWaiting:
        any_waiting = true;
        break;
      case PState::kIdle:
      case PState::kRunnable:
        return false;
    }
  }
  return any_waiting;
}

void Engine::fail(const std::string& why) {
  fail(why, obs::FailKind::kExplicitFail);
}

void Engine::fail(const std::string& why, obs::FailKind kind) {
  // Record the failure now; the postmortem is collected at the next window
  // barrier, where every shard is quiesced.
  fail_pending(kind, why, nullptr, false);
}

void Engine::set_postmortem_collector(PostmortemCollector fn) {
  collector_ = std::move(fn);
}

obs::Postmortem Engine::snapshot_postmortem(const std::string& headline) {
  if (quiesced_.load(std::memory_order_acquire)) {
    return *build_postmortem_locked(obs::FailKind::kOnDemand, headline);
  }
  // Mid-run snapshot of a multi-shard engine: other shards are executing, so
  // per-participant state and the collector's sections cannot be read
  // race-free. Report the engine-level counters only.
  obs::Postmortem pm;
  pm.kind = obs::FailKind::kOnDemand;
  pm.headline = headline;
  pm.label = options_.label;
  pm.now_us = now();
  pm.events = total_dispatched();
  pm.images = size();
  pm.classification = obs::classify(obs::FailKind::kOnDemand, false);
  pm.collector_error =
      "multi-shard run in progress: per-image state and collector sections "
      "unavailable";
  return pm;
}

std::uint32_t Engine::acquire_slot(Shard& shard, InlineFn fn) {
  if (!shard.free_slots.empty()) {
    const std::uint32_t slot = shard.free_slots.back();
    shard.free_slots.pop_back();
    shard.call_pool[slot] = std::move(fn);
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(shard.call_pool.size());
  shard.call_pool.push_back(std::move(fn));
  return slot;
}

std::string Engine::describe_callback_error(const std::exception_ptr& error) {
  std::string what = "engine callback (dispatched from the scheduler)";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    what += " raised: ";
    what += e.what();
  } catch (...) {
    what += " raised a non-standard exception";
  }
  return what;
}

Engine::Participant* Engine::dispatch_chain(Shard& shard) {
  for (;;) {
    if (failed() || shard.finished_count == shard.count) {
      return nullptr;
    }
    // An exhausted shard is not a deadlock: other shards may still feed this
    // one at the next window merge. The barrier performs the global deadlock
    // / budget / watchdog checks with every shard quiesced.
    if (shard.heap.empty() ||
        shard.heap.top().at >=
            shard.window_end.load(std::memory_order_relaxed)) {
      return nullptr;
    }
    if (options_.max_events != 0 && total_dispatched() >= options_.max_events) {
      return nullptr;
    }

    const Event event = shard.heap.top();
    shard.heap.pop();
    shard.dispatched.fetch_add(1, std::memory_order_relaxed);
    shard.now_us.store(
        std::max(shard.now_us.load(std::memory_order_relaxed), event.at),
        std::memory_order_relaxed);

    if (event.call_slot != kNoSlot) {
      record(shard, TraceKind::kCall, -1);
      // Callbacks (network staging, deliveries, timers) run on the shard's
      // scheduler. No participant of this shard holds the token here, so
      // callbacks may freely mutate the shard's runtime state (mailboxes,
      // counters) without racing.
      InlineFn fn = std::move(shard.call_pool[event.call_slot]);
      shard.free_slots.push_back(event.call_slot);
      std::exception_ptr error;
      try {
        fn();
      } catch (...) {
        error = std::current_exception();
      }
      fn.reset();
      if (!error) {
        continue;
      }
      // A throwing callback must not propagate through the scheduler loop
      // (it would escape run() with fibers still live). Convert it into an
      // engine failure.
      fail_pending(obs::FailKind::kCallbackError, describe_callback_error(error),
                   nullptr, /*callback_error=*/true);
      return nullptr;
    }

    Participant& target = *participants_[event.participant];
    if (target.state == PState::kFinished || target.active) {
      continue;  // stale wake
    }
    record(shard, TraceKind::kWake, target.id);
    target.active = true;
    target.state = PState::kRunnable;
    if (target.id != shard.token_owner) {
      // Counted only when the token moves between participants, so the
      // value is a pure function of the dispatch order.
      shard.token_owner = target.id;
      shard.context_switches.fetch_add(1, std::memory_order_relaxed);
    }
    return &target;
  }
}

void Engine::switch_out(Participant& self) {
  self.active = false;
  // Hand control back to the shard's scheduler loop, which dispatches the
  // next event. Once the window barrier has completed a failure
  // (shutdown_ready_), suspending would leave this fiber parked forever (the
  // unwind pass resumes each live fiber exactly once) — throw immediately
  // instead. Until then the fiber parks normally and the unwind pass, which
  // runs only after the barrier completed the failure, picks it up.
  if (!shutdown_ready_.load(std::memory_order_acquire)) {
    Fiber::suspend();
  }
  if (failed()) {
    throw_failure();
  }
  self.state = PState::kRunnable;
  self.block_reason.clear();
}

void Engine::advance(double dt) {
  CAF2_REQUIRE(tls_context.engine == this && tls_context.id >= 0,
               "advance() must be called from a participant context");
  CAF2_REQUIRE(dt >= 0.0, "advance() needs a non-negative duration");
  Participant& self = *participants_[tls_context.id];
  CAF2_ASSERT(self.active, "advance() caller does not hold the token");
  Shard& shard = home_shard(self.id);

  record(shard, TraceKind::kAdvance, self.id);
  const double target = shard.now_us.load(std::memory_order_relaxed) + dt;
  if (observer_ != nullptr && dt > 0.0) {
    observer_->on_compute(self.id,
                          shard.now_us.load(std::memory_order_relaxed), target);
  }
  shard.heap.push(Event{target, shard.next_seq++, self.id, kNoSlot});
  // Stray wakes (e.g. an unblock() from a completion callback) can activate
  // this participant before its scheduled resume time; modeled computation
  // must not finish early, so re-relinquish until the clock reaches the
  // target (the scheduled wake is still in the heap).
  do {
    switch_out(self);
  } while (shard.now_us.load(std::memory_order_relaxed) < target);
}

void Engine::block(const char* reason) {
  CAF2_REQUIRE(tls_context.engine == this && tls_context.id >= 0,
               "block() must be called from a participant context");
  Participant& self = *participants_[tls_context.id];
  Shard& shard = home_shard(self.id);
  CAF2_ASSERT(self.active, "block() caller does not hold the token");
  record(shard, TraceKind::kBlock, self.id);
  if (observer_ != nullptr) {
    observer_->on_block_begin(
        self.id, shard.now_us.load(std::memory_order_relaxed), reason);
  }
  self.state = PState::kWaiting;
  self.block_reason = reason;
  switch_out(self);
  // switch_out throws on engine failure, harmlessly abandoning the pending
  // blocked span.
  if (observer_ != nullptr) {
    observer_->on_block_end(self.id,
                            shard.now_us.load(std::memory_order_relaxed));
  }
}

void Engine::unblock(int participant) {
  CAF2_REQUIRE(participant >= 0 && participant < size(),
               "unblock(): participant id out of range");
  CAF2_REQUIRE(shards_.size() == 1 || tls_shard.engine == this,
               "unblock() outside an engine context on a multi-shard engine");
  CAF2_REQUIRE(shard_of(participant) == current_shard(),
               "unblock(): participant " + std::to_string(participant) +
                   " lives on shard " +
                   std::to_string(shard_of(participant)) +
                   ", not on the calling shard " +
                   std::to_string(current_shard()) +
                   "; reach another shard with post_for()");
  Shard& shard = home_shard(participant);
  Participant& target = *participants_[participant];
  if (target.state == PState::kFinished || target.active) {
    return;
  }
  shard.heap.push(Event{shard.now_us.load(std::memory_order_relaxed),
                        shard.next_seq++, participant, kNoSlot});
}

void Engine::post_call(double at, InlineFn fn) {
  CAF2_REQUIRE(static_cast<bool>(fn), "post() needs a callable");
  Shard& shard = calling_shard();
  const double when =
      std::max(at, shard.now_us.load(std::memory_order_relaxed));
  const std::uint32_t slot = acquire_slot(shard, std::move(fn));
  shard.heap.push(Event{when, shard.next_seq++, -1, slot});
}

void Engine::post_for_call(int participant, double at, InlineFn fn) {
  CAF2_REQUIRE(static_cast<bool>(fn), "post_for() needs a callable");
  CAF2_REQUIRE(participant >= 0 && participant < size(),
               "post_for(): participant id out of range");
  CAF2_REQUIRE(shards_.size() == 1 || tls_shard.engine == this,
               "post_for() outside an engine context on a multi-shard engine");
  const int dest = shard_of(participant);
  if (dest != current_shard()) {
    CAF2_ASSERT(at >= calling_shard().now_us.load(std::memory_order_relaxed) +
                          lookahead_ - 1e-9,
                "cross-shard event violates the conservative lookahead window");
    cross_post(dest, at, std::move(fn));
    return;
  }
  post_call(at, std::move(fn));
}

void Engine::cross_post(int dest_shard, double at, InlineFn fn) {
  Shard& src = calling_shard();
  Shard& dst = *shards_[static_cast<std::size_t>(dest_shard)];
  CrossEvent ev;
  ev.at = at;
  // Only the source shard's current token holder (or its dispatcher) stages
  // cross events, so the per-source counter needs no synchronization.
  ev.order = src.cross_order++;
  ev.source_shard = src.index;
  ev.fn = std::move(fn);
  std::lock_guard<std::mutex> guard(dst.inbox_mutex);
  dst.inbox.push_back(std::move(ev));
}

bool Engine::drain_inbox_locked(Shard& shard, std::string& violation) {
  std::vector<CrossEvent> batch;
  {
    std::lock_guard<std::mutex> guard(shard.inbox_mutex);
    batch.swap(shard.inbox);
  }
  if (batch.empty()) {
    return true;
  }
  // (time, source shard, per-source counter) is a total order — the counter
  // is unique within a source — so the merged sequence is identical for any
  // arrival interleaving: multi-shard runs are deterministic for a fixed
  // shard count.
  std::sort(batch.begin(), batch.end(),
            [](const CrossEvent& a, const CrossEvent& b) {
              if (a.at != b.at) {
                return a.at < b.at;
              }
              if (a.source_shard != b.source_shard) {
                return a.source_shard < b.source_shard;
              }
              return a.order < b.order;
            });
  const double local_now = shard.now_us.load(std::memory_order_relaxed);
  bool ok = true;
  for (auto& ev : batch) {
    // Every cross-shard event is a post_for() call, which lands at least one
    // lookahead after its send. Sent at or above the window's global
    // minimum, it is provably in the destination's future: the destination
    // clock stayed below the window end. Verify that instead of trusting
    // it; a straggler merged into the past would time-shift its delivery
    // and corrupt every latency-derived metric downstream.
    if (ev.at < local_now - 1e-9 && ok) {
      std::ostringstream os;
      os << "conservative window violation: cross-shard call from shard "
         << ev.source_shard << " at t=" << ev.at << " us merged into shard "
         << shard.index << "'s past (clock " << local_now << " us)";
      violation = os.str();
      ok = false;
    }
    const std::uint32_t slot = acquire_slot(shard, std::move(ev.fn));
    shard.heap.push(Event{ev.at, shard.next_seq++, -1, slot});
  }
  return ok;
}

bool Engine::window_rendezvous() {
  std::unique_lock<std::mutex> lock(sync_mutex_);
  if (sync_done_) {
    return false;
  }
  if (++sync_waiting_ == static_cast<int>(shards_.size())) {
    sync_waiting_ = 0;
    const bool cont = advance_window_locked();
    if (!cont) {
      sync_done_ = true;
    }
    ++sync_generation_;
    sync_cv_.notify_all();
    return cont;
  }
  const std::uint64_t generation = sync_generation_;
  sync_cv_.wait(lock, [&] { return sync_generation_ != generation; });
  return !sync_done_;
}

bool Engine::advance_window_locked() {
  // Every shard worker is parked in this rendezvous and every participant is
  // parked in its shard (the coordinator only arrives once its shard is
  // quiescent), so all shard state is safe to read and mutate here; the
  // sync mutex hand-off publishes whatever this thread writes.
  if (failed()) {
    finish_failure_locked();
    return false;
  }
  int finished = 0;
  for (const auto& shard : shards_) {
    finished += shard->finished_count;
  }
  if (finished == size()) {
    return false;
  }

  std::string violation;
  for (auto& shard : shards_) {
    if (!drain_inbox_locked(*shard, violation)) {
      fail_pending(obs::FailKind::kExplicitFail, violation, nullptr, false);
      finish_failure_locked();
      return false;
    }
  }

  // The earliest pending event over every shard after the inbox merge.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double global_min = kInf;
  for (const auto& shard : shards_) {
    if (!shard->heap.empty()) {
      global_min = std::min(global_min, shard->heap.top().at);
    }
  }
  if (global_min == kInf) {
    fail_pending(obs::FailKind::kDeadlock,
                 "deadlock: no pending events and every "
                 "unfinished participant is blocked",
                 nullptr, false);
    finish_failure_locked();
    return false;
  }
  if (options_.max_events != 0 && total_dispatched() >= options_.max_events) {
    fail_pending(obs::FailKind::kEventBudget,
                 "simulation event budget exceeded", nullptr, false);
    finish_failure_locked();
    return false;
  }
  if (options_.watchdog_quiet_us > 0.0) {
    // Windows span at most the quiet period, so every gap the clock would
    // jump is visible here: a shard stops at the window end, and its next
    // event then heads the global minimum.
    double latest = 0.0;
    for (const auto& shard : shards_) {
      latest = std::max(latest, shard->now_us.load(std::memory_order_relaxed));
    }
    if (global_min > latest + options_.watchdog_quiet_us &&
        all_unfinished_blocked_locked()) {
      std::ostringstream os;
      os << "watchdog: every image is blocked and no event is due within "
         << options_.watchdog_quiet_us << " us (next event at t=" << global_min
         << " us)";
      fail_pending(obs::FailKind::kQuietWatchdog, os.str(), nullptr, false);
      finish_failure_locked();
      return false;
    }
  }

  // Static windows: every shard gets the same end. Every merged event lies
  // at or above its destination clock, so global_min is non-decreasing
  // across windows and a window end never moves backwards once shard
  // clocks have entered a window.
  ++windows_;
  const double window_end = global_min + window_span_;
  for (auto& shard : shards_) {
    shard->window_end.store(window_end, std::memory_order_relaxed);
    if (shard->heap.empty() || shard->heap.top().at >= window_end) {
      ++window_stalls_;
    }
  }
  return true;
}

void Engine::fiber_main(int id, const std::function<void(int)>& body) {
  Participant& self = *participants_[id];
  self.state = PState::kRunnable;

  std::exception_ptr error;
  try {
    body(id);
  } catch (...) {
    error = std::current_exception();
  }

  // The shard's scheduler loop takes over dispatching as soon as this entry
  // function returns.
  Shard& shard = home_shard(id);
  if (error) {
    fail_pending(obs::FailKind::kImageError,
                 "participant raised an exception", error, false);
  }
  self.state = PState::kFinished;
  self.active = false;
  ++shard.finished_count;
  record(shard, TraceKind::kFinish, id);
}

void Engine::resume_fiber(Participant& target) {
  const ExecContext saved = tls_context;
  tls_context = target.context;
  target.fiber->resume();
  target.context = tls_context;  // capture slot updates made by the fiber
  tls_context = saved;
}

void Engine::unwind_live_fibers(Shard& shard) {
  for (int p = shard.first; p < shard.first + shard.count; ++p) {
    Participant& participant = *participants_[p];
    if (participant.state == PState::kFinished) {
      continue;
    }
    if (!participant.fiber->started()) {
      // Never received the token: retire it without running the body (and
      // without a kFinish record).
      participant.state = PState::kFinished;
      participant.active = false;
      ++shard.finished_count;
      continue;
    }
    // The fiber is parked inside switch_out(); one resume lets it observe
    // failed_, throw, and unwind its body. switch_out() refuses to suspend
    // once the failure is ready, so this resume returns only when the fiber
    // has finished.
    resume_fiber(participant);
    CAF2_ASSERT(participant.fiber->finished(),
                "fiber survived failure unwinding");
  }
}

void Engine::run_shard(Shard& shard, const std::function<void(int)>& body) {
  const ShardTls saved = tls_shard;
  tls_shard = ShardTls{this, shard.index};
  for (int p = shard.first; p < shard.first + shard.count; ++p) {
    Participant& participant = *participants_[p];
    participant.context = ExecContext{this, p, {}};
    participant.fiber = std::make_unique<Fiber>(
        options_.fiber_stack_bytes, [this, p, &body] { fiber_main(p, body); });
  }

  // The scheduler loop: dispatch until a participant is activated, switch
  // onto its fiber, repeat when it suspends or finishes. The shard stops at
  // the window end and rendezvouses with the other shards to open the next
  // window.
  do {
    while (Participant* target = dispatch_chain(shard)) {
      resume_fiber(*target);
    }
  } while (window_rendezvous());
  if (failed()) {
    unwind_live_fibers(shard);
  }
  for (int p = shard.first; p < shard.first + shard.count; ++p) {
    participants_[p]->fiber.reset();
  }
  tls_shard = saved;
}

void Engine::run(const std::function<void(int)>& body) {
  CAF2_REQUIRE(!running_, "Engine::run() may only be called once");
  running_ = true;

  // The first window opens at t=0, where every participant's initial wake
  // waits.
  windows_ = 1;
  for (auto& shard : shards_) {
    shard->window_end.store(window_span_, std::memory_order_relaxed);
    for (int p = shard->first; p < shard->first + shard->count; ++p) {
      shard->heap.push(Event{0.0, shard->next_seq++, p, kNoSlot});
    }
  }

  // Shard 0 runs here; every other shard gets a worker thread.
  quiesced_.store(shards_.size() == 1, std::memory_order_release);
  std::vector<std::thread> workers;
  workers.reserve(shards_.size() - 1);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    Shard* raw = shards_[s].get();
    workers.emplace_back([this, raw, &body] { run_shard(*raw, body); });
  }
  run_shard(*shards_[0], body);
  for (auto& worker : workers) {
    worker.join();
  }
  quiesced_.store(true, std::memory_order_release);

  if (options_.record_trace) {
    for (auto& shard : shards_) {
      if (trace_.empty()) {
        trace_ = std::move(shard->trace);
      } else {
        trace_.insert(trace_.end(), shard->trace.begin(), shard->trace.end());
      }
      shard->trace = {};
    }
  }

  if (first_error_) {
    std::rethrow_exception(first_error_);
  }
  if (failed()) {
    throw_failure();
  }
}

}  // namespace caf2::sim
