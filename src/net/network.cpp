#include "net/network.hpp"

#include <algorithm>
#include <sstream>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"

namespace caf2::net {

Network::Network(sim::Engine& engine, NetworkParams params, std::uint64_t seed)
    : engine_(engine),
      params_(std::move(params)),
      mailboxes_(static_cast<std::size_t>(engine.size())),
      traffic_(static_cast<std::size_t>(engine.size())) {
  params_.validate();
  reliable_ = params_.reliable_delivery();
  faults_active_ = params_.faults.active();
  // One jitter and one fault stream per shard. The fault stream is
  // independent of the jitter stream so that enabling a FaultPlan leaves a
  // run's jitter draws untouched. A lone shard draws jitter from the seed
  // itself and faults from child(1); with n > 1 shards the jitter streams
  // are children 2..n+1 and the fault streams children n+2..2n+1.
  const SplitMix64 seeder(seed);
  const auto shard_count = static_cast<std::uint64_t>(engine.shard_count());
  shard_jitter_.reserve(shard_count);
  shard_fault_.reserve(shard_count);
  for (std::uint64_t shard = 0; shard < shard_count; ++shard) {
    shard_jitter_.emplace_back(shard_count == 1 ? seed
                                                : seeder.child(shard + 2));
    shard_fault_.emplace_back(
        seeder.child(shard_count == 1 ? 1 : shard_count + shard + 2));
  }
  // One protocol cell per shard; flight ids carry the owning cell in their
  // top 16 bits, so a shard count past 2^16 would make rel_shard_of() route
  // acks and retransmit timers to the wrong cell.
  CAF2_REQUIRE(engine.shard_count() <= (1 << 16),
               "Network: shard count exceeds the flight-id shard field");
  rel_shards_.resize(static_cast<std::size_t>(engine.shard_count()));
  if (reliable_) {
    send_links_.resize(static_cast<std::size_t>(engine.size()));
    recv_links_.resize(static_cast<std::size_t>(engine.size()));
    max_extra_delay_us_ = params_.faults.all.delay_max_us;
    for (const LinkFaults& link : params_.faults.links) {
      max_extra_delay_us_ = std::max(max_extra_delay_us_, link.delay_max_us);
    }
    for (const ScriptedFault& fault : params_.faults.scripted) {
      max_extra_delay_us_ = std::max(max_extra_delay_us_, fault.delay_us);
    }
  }
}

Mailbox& Network::mailbox(int image) {
  CAF2_REQUIRE(image >= 0 && image < size(), "mailbox(): image out of range");
  return mailboxes_[static_cast<std::size_t>(image)];
}

const Mailbox& Network::mailbox(int image) const {
  CAF2_REQUIRE(image >= 0 && image < size(), "mailbox(): image out of range");
  return mailboxes_[static_cast<std::size_t>(image)];
}

void Network::reset_traffic() {
  for (ImageTraffic& t : traffic_) {
    t = ImageTraffic{};
  }
}

Xoshiro256ss& Network::jitter_rng() {
  return shard_jitter_[static_cast<std::size_t>(engine_.current_shard())];
}

Xoshiro256ss& Network::fault_rng() {
  return shard_fault_[static_cast<std::size_t>(engine_.current_shard())];
}

bool Network::cross_shard(int source, int dest) const {
  return engine_.shard_of(source) != engine_.shard_of(dest);
}

FaultStats Network::fault_stats() const {
  FaultStats total;
  for (const ReliableShard& cell : rel_shards_) {
    total.deliveries_dropped += cell.stats.deliveries_dropped;
    total.deliveries_duplicated += cell.stats.deliveries_duplicated;
    total.deliveries_delayed += cell.stats.deliveries_delayed;
    total.acks_dropped += cell.stats.acks_dropped;
    total.retransmits += cell.stats.retransmits;
    total.duplicates_suppressed += cell.stats.duplicates_suppressed;
    total.scripted_applied += cell.stats.scripted_applied;
  }
  return total;
}

std::vector<FaultStats> Network::shard_fault_stats() const {
  std::vector<FaultStats> per_shard;
  per_shard.reserve(rel_shards_.size());
  for (const ReliableShard& cell : rel_shards_) {
    per_shard.push_back(cell.stats);
  }
  return per_shard;
}

std::size_t Network::inflight_reliable() const {
  std::size_t total = 0;
  for (const ReliableShard& cell : rel_shards_) {
    total += cell.inflight.size();
  }
  return total;
}

Network::Timing Network::plan(double now, std::size_t bytes) {
  Timing timing{};
  // bandwidth is validated > 0 (infinity => instantaneous staging).
  const double inject =
      static_cast<double>(bytes) / params_.bandwidth_bytes_per_us;
  timing.stage_at = now + inject;
  double jitter = 0.0;
  if (params_.jitter_us > 0.0) {
    jitter = jitter_rng().next_double() * params_.jitter_us;
  }
  timing.deliver_at = timing.stage_at + params_.latency_us + jitter;
  timing.ack_at = timing.deliver_at + params_.effective_ack_latency_us();
  return timing;
}

void Network::account_send(const Message& message) {
  const std::size_t source = static_cast<std::size_t>(message.header.source);
  const std::size_t bytes = message.size_bytes();
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  traffic_[source].messages_out += 1;
  traffic_[source].bytes_out += bytes;
  if (observer_ != nullptr) {
    observer_->add(message.header.source, obs::Counter::kMessagesSent);
  }
  if (flight_recorder_ != nullptr) {
    flight_recorder_->record(message.header.source, engine_.now(),
                             obs::FrKind::kSend, message.header.dest, bytes,
                             static_cast<std::uint64_t>(message.header.handler));
  }
}

void Network::run_deliver_phase(Flight flight) {
  const int source = flight.message.header.source;
  const std::size_t dest = static_cast<std::size_t>(flight.message.header.dest);
  const std::size_t bytes = flight.message.size_bytes();
  traffic_[dest].messages_in += 1;
  traffic_[dest].bytes_in += bytes;
  const std::uint64_t handler =
      static_cast<std::uint64_t>(flight.message.header.handler);
  mailboxes_[dest].push(std::move(flight.message));
  engine_.unblock(static_cast<int>(dest));
  if (flight_recorder_ != nullptr) {
    flight_recorder_->record(static_cast<int>(dest), engine_.now(),
                             obs::FrKind::kDeliver, source, bytes, handler);
  }
  std::uint64_t span = 0;
  if (observer_ != nullptr) {
    const double now = engine_.now();
    span = observer_->flight_span(source, static_cast<int>(dest),
                                  flight.init_us, now, bytes,
                                  engine_.current_shard());
    observer_->note_cause(static_cast<int>(dest), span);
    observer_->add(static_cast<int>(dest), obs::Counter::kMessagesDelivered);
    observer_->maxed(static_cast<int>(dest), obs::Counter::kMailboxHighWater,
                     mailboxes_[dest].size());
    observer_->observe(static_cast<int>(dest), obs::Hist::kMessageLatency,
                       now - flight.init_us);
  }
  if (flight.has_ack) {
    if (flight.timing.ack_at == flight.timing.deliver_at) {
      // Zero ack latency: completion is observable at delivery time, and the
      // reserved ack sequence number immediately follows the delivery's, so
      // running it inline preserves the dispatch order exactly.
      if (observer_ != nullptr) {
        observer_->note_cause(source, span);
      }
      flight.callbacks.on_acked();
    } else if (observer_ == nullptr) {
      engine_.post_reserved(flight.timing.ack_at, flight.ack_seq,
                            std::move(flight.callbacks.on_acked));
    } else {
      // Same event, same (at, seq); the wrapper only notes the cause first.
      engine_.post_reserved(
          flight.timing.ack_at, flight.ack_seq,
          [this, source, span,
           acked = std::move(flight.callbacks.on_acked)] {
            observer_->note_cause(source, span);
            acked();
          });
    }
  }
}

void Network::schedule_deliver(Flight flight) {
  const double at = flight.timing.deliver_at;
  const std::uint64_t seq = flight.deliver_seq;
  auto deliver = [this, f = std::move(flight)]() mutable {
    run_deliver_phase(std::move(f));
  };
  static_assert(sizeof(deliver) <= sim::InlineFn::kInlineBytes,
                "the deliver closure must stay in InlineFn storage");
  engine_.post_reserved(at, seq, std::move(deliver));
}

void Network::send(Message message, SendCallbacks callbacks) {
  CAF2_REQUIRE(message.header.dest >= 0 && message.header.dest < size(),
               "send(): destination image out of range");
  if (reliable_) {
    send_reliable(std::move(message), std::move(callbacks));
    return;
  }
  if (cross_shard(message.header.source, message.header.dest)) {
    send_cross(std::move(message), std::move(callbacks));
    return;
  }
  Flight flight;
  flight.init_us = engine_.now();
  flight.timing = plan(flight.init_us, message.size_bytes());
  flight.message = std::move(message);
  flight.callbacks = std::move(callbacks);
  account_send(flight.message);

  // Reserve the chain's sequence numbers in the order the seed posted its
  // events (stage, deliver, ack) so dispatch order is unchanged.
  const bool has_stage = flight.callbacks.on_staged != nullptr;
  std::uint64_t stage_seq = 0;
  if (has_stage) {
    stage_seq = engine_.reserve_seq();
  }
  flight.deliver_seq = engine_.reserve_seq();
  flight.has_ack = flight.callbacks.on_acked != nullptr;
  if (flight.has_ack) {
    flight.ack_seq = engine_.reserve_seq();
  }

  if (!has_stage) {
    schedule_deliver(std::move(flight));
    return;
  }
  const bool merge_deliver =
      flight.timing.stage_at == flight.timing.deliver_at;
  const double stage_at = flight.timing.stage_at;
  auto stage = [this, f = std::move(flight), merge_deliver]() mutable {
    f.callbacks.on_staged();
    f.callbacks.on_staged = nullptr;
    if (merge_deliver) {
      // The delivery's reserved sequence number directly follows the
      // stage's, so nothing can dispatch between them: run it inline.
      run_deliver_phase(std::move(f));
    } else {
      schedule_deliver(std::move(f));
    }
  };
  // Size cliff (this closure is 192 B): past kInlineBytes it would be
  // heap-allocated on every send. Measured on ring4k, a 16-byte bulk handle made this 208 B
  // and heap-allocated 90,112 closures; an alltoallv-only collectives run
  // was then ~20% slower. Raising kInlineBytes to 224 instead cost ring4k
  // +17 MB of peak RSS.
  static_assert(sizeof(stage) <= sim::InlineFn::kInlineBytes,
                "the stage closure must stay in InlineFn storage");
  engine_.post_reserved(stage_at, stage_seq, std::move(stage));
}

void Network::send_staged(MessageHeader header, std::size_t size_hint,
                          std::function<std::vector<std::uint8_t>()> read,
                          SendCallbacks callbacks) {
  CAF2_REQUIRE(header.dest >= 0 && header.dest < size(),
               "send_staged(): destination image out of range");
  CAF2_REQUIRE(read != nullptr, "send_staged(): needs a staging reader");
  if (reliable_) {
    send_staged_reliable(header, size_hint, std::move(read),
                         std::move(callbacks));
    return;
  }
  if (cross_shard(header.source, header.dest)) {
    send_staged_cross(header, size_hint, std::move(read),
                      std::move(callbacks));
    return;
  }
  const double init_us = engine_.now();
  const Timing timing = plan(init_us, size_hint);

  // At staging time the network reads the source buffer; only then does the
  // message exist as an independent payload. Overwriting the source buffer
  // before local data completion corrupts the transfer, as on real RDMA
  // hardware.
  const std::uint64_t stage_seq = engine_.reserve_seq();
  engine_.post_reserved(
      timing.stage_at, stage_seq,
      [this, header, timing, init_us, read = std::move(read),
       callbacks = std::move(callbacks)]() mutable {
        Flight flight;
        flight.message.header = header;
        flight.message.payload = read();
        flight.callbacks = std::move(callbacks);
        flight.timing = timing;
        flight.init_us = init_us;
        if (flight.callbacks.on_staged) {
          flight.callbacks.on_staged();
          flight.callbacks.on_staged = nullptr;
        }
        // The seed allocated deliver/ack sequence numbers only here, after
        // on_staged ran — events on_staged posted at the delivery time must
        // dispatch before the delivery, so the delivery stays a separate
        // event even when stage_at == deliver_at.
        flight.deliver_seq = engine_.reserve_seq();
        flight.has_ack = flight.callbacks.on_acked != nullptr;
        if (flight.has_ack) {
          flight.ack_seq = engine_.reserve_seq();
        }
        account_send(flight.message);
        schedule_deliver(std::move(flight));
      });
}

/// --- cross-shard delivery ----------------------------------------------------
///
/// Source and destination live on different shards of a sharded engine
/// (DESIGN.md §4.11). The timing plan is drawn at initiation from the source
/// shard's jitter stream; on_staged and on_acked run on the source shard at
/// their planned times, and only the delivery itself crosses shards, staged
/// into the destination's inbox via Engine::post_for(). Best-effort delivery
/// cannot fail, so the ack is scheduled at plan time — and deliver_at >=
/// now + latency_us >= now + lookahead keeps the conservative-window
/// contract by construction (the runtime derives the lookahead from the
/// wire latency).

void Network::deliver_cross(Message message, double init_us) {
  const int source = message.header.source;
  const std::size_t dest = static_cast<std::size_t>(message.header.dest);
  const std::size_t bytes = message.size_bytes();
  const std::uint64_t handler =
      static_cast<std::uint64_t>(message.header.handler);
  traffic_[dest].messages_in += 1;
  traffic_[dest].bytes_in += bytes;
  mailboxes_[dest].push(std::move(message));
  engine_.unblock(static_cast<int>(dest));
  if (flight_recorder_ != nullptr) {
    flight_recorder_->record(static_cast<int>(dest), engine_.now(),
                             obs::FrKind::kDeliver, source, bytes, handler);
  }
  if (observer_ != nullptr) {
    // The flight span lands on the *destination* shard's net lane; the
    // source-side ack wake keeps no parent link (the span id would have to
    // cross shards), which only costs the blame analyzer one ack-edge.
    const double now = engine_.now();
    const std::uint64_t span =
        observer_->flight_span(source, static_cast<int>(dest), init_us, now,
                               bytes, engine_.current_shard());
    observer_->note_cause(static_cast<int>(dest), span);
    observer_->add(static_cast<int>(dest), obs::Counter::kMessagesDelivered);
    observer_->maxed(static_cast<int>(dest), obs::Counter::kMailboxHighWater,
                     mailboxes_[dest].size());
    observer_->observe(static_cast<int>(dest), obs::Hist::kMessageLatency,
                       now - init_us);
  }
}

void Network::send_cross(Message message, SendCallbacks callbacks) {
  const double init_us = engine_.now();
  const Timing timing = plan(init_us, message.size_bytes());
  account_send(message);
  const int dest = message.header.dest;
  if (callbacks.on_staged) {
    engine_.post(timing.stage_at, std::move(callbacks.on_staged));
  }
  engine_.post_for(dest, timing.deliver_at,
                   [this, init_us, msg = std::move(message)]() mutable {
                     deliver_cross(std::move(msg), init_us);
                   });
  if (callbacks.on_acked) {
    engine_.post(timing.ack_at, std::move(callbacks.on_acked));
  }
}

void Network::send_staged_cross(
    MessageHeader header, std::size_t size_hint,
    std::function<std::vector<std::uint8_t>()> read,
    SendCallbacks callbacks) {
  const double init_us = engine_.now();
  const Timing timing = plan(init_us, size_hint);
  // As on the legacy path, the source buffer is read at staging time: the
  // "overwrite before cofence()" hazard stays real across shards.
  engine_.post(timing.stage_at,
               [this, header, timing, init_us, read = std::move(read),
                callbacks = std::move(callbacks)]() mutable {
                 Message message;
                 message.header = header;
                 message.payload = read();
                 if (callbacks.on_staged) {
                   callbacks.on_staged();
                 }
                 account_send(message);
                 engine_.post_for(header.dest, timing.deliver_at,
                                  [this, init_us,
                                   msg = std::move(message)]() mutable {
                                    deliver_cross(std::move(msg), init_us);
                                  });
                 if (callbacks.on_acked) {
                   engine_.post(timing.ack_at, std::move(callbacks.on_acked));
                 }
               });
}

/// --- reliable-delivery protocol ----------------------------------------------

bool Network::ReceiverLink::accept(std::uint64_t seq) {
  if (seq < dedup_floor || seen.contains(seq)) {
    return false;
  }
  seen.insert(seq);
  while (seen.contains(dedup_floor)) {
    seen.erase(dedup_floor);
    ++dedup_floor;
  }
  return true;
}

Network::SenderLink& Network::sender_link(int source, int dest) {
  return send_links_[static_cast<std::size_t>(source)][dest];
}

Network::ReceiverLink& Network::receiver_link(int source, int dest) {
  return recv_links_[static_cast<std::size_t>(dest)][source];
}

Network::LinkRecords Network::link_records() const {
  LinkRecords records;
  for (const auto& links : send_links_) {
    records.senders += links.size();
  }
  for (const auto& links : recv_links_) {
    records.receivers += links.size();
  }
  return records;
}

double Network::auto_rto(double inject_us) const {
  const double round_trip = inject_us + params_.latency_us +
                            params_.jitter_us +
                            params_.effective_ack_latency_us();
  return 2.0 * round_trip + max_extra_delay_us_ + 1.0;
}

std::uint64_t Network::admit_flight(Message message, SendCallbacks callbacks,
                                    double inject_us) {
  account_send(message);
  SenderLink& sender =
      sender_link(message.header.source, message.header.dest);
  ReliableShard& cell = rel_shard();
  CAF2_ASSERT(cell.next_flight_id < (std::uint64_t{1} << 48),
              "admit_flight: per-shard flight-id counter overflow");
  const std::uint64_t id =
      (static_cast<std::uint64_t>(engine_.current_shard()) << 48) |
      cell.next_flight_id++;
  ReliableFlight flight;
  flight.seq = sender.next_seq++;
  flight.ordinal = ++sender.initiated;
  flight.inject_us = inject_us;
  flight.first_sent_us = engine_.now();
  flight.rto_us = params_.reliability.rto_us > 0.0
                      ? params_.reliability.rto_us
                      : auto_rto(inject_us);
  flight.callbacks = std::move(callbacks);
  flight.message = std::make_shared<const Message>(std::move(message));
  cell.inflight.emplace(id, std::move(flight));
  return id;
}

Network::AttemptFaults Network::roll_faults(const ReliableFlight& flight) {
  AttemptFaults faults;
  if (params_.jitter_us > 0.0) {
    faults.jitter_us = jitter_rng().next_double() * params_.jitter_us;
  }
  if (!faults_active_) {
    return faults;
  }
  const MessageHeader& header = flight.message->header;
  // A fixed number of fault-stream draws per attempt keeps the stream
  // aligned no matter which faults actually fire. The draws come from the
  // calling (source) shard's stream.
  Xoshiro256ss& rng = fault_rng();
  const double u_drop = rng.next_double();
  const double u_dup = rng.next_double();
  const double u_ack = rng.next_double();
  const double u_dup_ack = rng.next_double();
  const double u_delay = rng.next_double();
  const double u_delay_amount = rng.next_double();
  const double u_dup_offset = rng.next_double();

  const LinkFaults& lf =
      params_.faults.resolve(header.source, header.dest);
  faults.drop = u_drop < lf.drop_probability;
  faults.duplicate = u_dup < lf.dup_probability;
  faults.ack_drop = u_ack < lf.ack_drop_probability;
  faults.dup_ack_drop = u_dup_ack < lf.ack_drop_probability;
  if (u_delay < lf.delay_probability) {
    faults.extra_delay_us = u_delay_amount * lf.delay_max_us;
  }
  faults.dup_offset_us = u_dup_offset * params_.jitter_us;

  for (const ScriptedFault& scripted : params_.faults.scripted) {
    if (scripted.source != header.source || scripted.dest != header.dest ||
        scripted.nth != flight.ordinal ||
        (scripted.attempt != 0 && scripted.attempt != flight.attempts)) {
      continue;
    }
    rel_shard().stats.scripted_applied += 1;
    switch (scripted.kind) {
      case FaultKind::kDrop:
        faults.drop = true;
        break;
      case FaultKind::kDuplicate:
        faults.duplicate = true;
        break;
      case FaultKind::kDelay:
        faults.extra_delay_us += scripted.delay_us;
        break;
    }
  }
  return faults;
}

void Network::start_attempt(std::uint64_t id) {
  ReliableShard& cell = rel_shard_of(id);
  auto it = cell.inflight.find(id);
  CAF2_ASSERT(it != cell.inflight.end(), "start_attempt: unknown flight");
  ReliableFlight& flight = it->second;
  flight.attempts += 1;

  const AttemptFaults faults = roll_faults(flight);
  const int fault_source = flight.message->header.source;
  if (faults.drop) {
    cell.stats.deliveries_dropped += 1;
    if (flight_recorder_ != nullptr) {
      flight_recorder_->record(fault_source, engine_.now(),
                               obs::FrKind::kFaultDrop,
                               flight.message->header.dest, flight.seq,
                               static_cast<std::uint64_t>(flight.attempts));
    }
  }
  if (faults.duplicate) {
    cell.stats.deliveries_duplicated += 1;
    if (flight_recorder_ != nullptr) {
      flight_recorder_->record(fault_source, engine_.now(),
                               obs::FrKind::kFaultDuplicate,
                               flight.message->header.dest, flight.seq,
                               static_cast<std::uint64_t>(flight.attempts));
    }
  }
  if (faults.extra_delay_us > 0.0) {
    cell.stats.deliveries_delayed += 1;
    if (flight_recorder_ != nullptr) {
      flight_recorder_->record(fault_source, engine_.now(),
                               obs::FrKind::kFaultDelay,
                               flight.message->header.dest, flight.seq,
                               static_cast<std::uint64_t>(flight.attempts));
    }
  }

  // The first attempt is launched at staging time (injection already
  // elapsed); retransmissions re-inject the payload from scratch.
  const double base =
      engine_.now() + (flight.attempts == 1 ? 0.0 : flight.inject_us);
  if (flight.attempts == 1) {
    // Fault-free expectations, jitter at its configured maximum: actual
    // times beyond these are provably fault-induced.
    flight.expected_deliver_us = base + params_.latency_us + params_.jitter_us;
    flight.expected_ack_us =
        flight.expected_deliver_us + params_.effective_ack_latency_us();
  }
  const double deliver_at = base + params_.latency_us + faults.jitter_us +
                            faults.extra_delay_us;
  const MessageHeader& header = flight.message->header;
  if (!cross_shard(header.source, header.dest)) {
    if (!faults.drop) {
      engine_.post(deliver_at, [this, message = flight.message,
                                seq = flight.seq, id,
                                ack_dropped = faults.ack_drop] {
        deliver_attempt(message, seq, id, ack_dropped);
      });
    }
    if (faults.duplicate) {
      engine_.post(deliver_at + faults.dup_offset_us,
                   [this, message = flight.message, seq = flight.seq, id,
                    ack_dropped = faults.dup_ack_drop] {
                     deliver_attempt(message, seq, id, ack_dropped);
                   });
    }
  } else {
    // Cross-shard attempt (DESIGN.md §4.12): the deliveries go through the
    // destination shard's inbox carrying their metadata in the closure, and
    // the sender simulates the acks itself. Every fault decision — including
    // both ack losses — was just rolled above, and the receiver acks every
    // non-dropped physical delivery unconditionally (dedup outcome included),
    // so each delivery's ack time is already known here: the delivery time
    // plus the ack latency. handle_ack is idempotent, so simulating both
    // acks is exactly the legacy protocol without any event crossing back
    // against the conservative window (the ack latency may be below the
    // lookahead). deliver_at >= now + latency_us >= now + lookahead keeps
    // the forward direction legal.
    const double ack_latency = params_.effective_ack_latency_us();
    if (!faults.drop) {
      engine_.post_for(header.dest, deliver_at,
                       [this, message = flight.message, seq = flight.seq,
                        first_sent = flight.first_sent_us,
                        expected = flight.expected_deliver_us] {
                         deliver_attempt_cross(message, seq, first_sent,
                                               expected);
                       });
      if (faults.ack_drop) {
        // Charged at roll time on the sender's ring (the receiver can't
        // touch source-shard counters); totals match the legacy protocol
        // because every launched non-dropped delivery lands. The entry is
        // stamped `deliver_at` — the time the same-shard path records the
        // drop from inside deliver_attempt — so time-windowed postmortem
        // analysis sees one timeline regardless of path; recording may not
        // schedule events (flight_recorder.hpp), so the ring's insertion
        // order can run locally ahead of this future stamp.
        cell.stats.acks_dropped += 1;
        if (flight_recorder_ != nullptr) {
          flight_recorder_->record(header.source, deliver_at,
                                   obs::FrKind::kFaultAckLoss, header.dest,
                                   flight.seq, 0);
        }
      } else {
        engine_.post(deliver_at + ack_latency,
                     [this, id] { handle_ack(id); });
      }
    }
    if (faults.duplicate) {
      const double dup_at = deliver_at + faults.dup_offset_us;
      engine_.post_for(header.dest, dup_at,
                       [this, message = flight.message, seq = flight.seq,
                        first_sent = flight.first_sent_us,
                        expected = flight.expected_deliver_us] {
                         deliver_attempt_cross(message, seq, first_sent,
                                               expected);
                       });
      if (faults.dup_ack_drop) {
        cell.stats.acks_dropped += 1;
        if (flight_recorder_ != nullptr) {
          flight_recorder_->record(header.source, dup_at,
                                   obs::FrKind::kFaultAckLoss, header.dest,
                                   flight.seq, 0);
        }
      } else {
        engine_.post(dup_at + ack_latency, [this, id] { handle_ack(id); });
      }
    }
  }
  engine_.post(engine_.now() + flight.rto_us,
               [this, id, attempt = flight.attempts] {
                 on_retransmit_timer(id, attempt);
               });
}

void Network::deliver_attempt(const std::shared_ptr<const Message>& message,
                              std::uint64_t seq, std::uint64_t flight_id,
                              bool ack_dropped) {
  const MessageHeader& header = message->header;
  ReceiverLink& receiver = receiver_link(header.source, header.dest);
  ReliableShard& cell = rel_shard_of(flight_id);  // == the calling shard's
  if (receiver.accept(seq)) {
    const std::size_t dest = static_cast<std::size_t>(header.dest);
    traffic_[dest].messages_in += 1;
    traffic_[dest].bytes_in += message->size_bytes();
    mailboxes_[dest].push(*message);
    engine_.unblock(header.dest);
    if (flight_recorder_ != nullptr) {
      flight_recorder_->record(header.dest, engine_.now(),
                               obs::FrKind::kDeliver, header.source,
                               message->size_bytes(),
                               static_cast<std::uint64_t>(header.handler));
    }
    if (observer_ != nullptr) {
      const double now = engine_.now();
      double begin = now;
      double expected = now;
      const auto it = cell.inflight.find(flight_id);  // present until acked
      if (it != cell.inflight.end()) {
        begin = it->second.first_sent_us;
        expected = it->second.expected_deliver_us;
      }
      const int lane = engine_.current_shard();
      const std::uint64_t span =
          observer_->flight_span(header.source, header.dest, begin, now,
                                 message->size_bytes(), lane);
      if (it != cell.inflight.end()) {
        it->second.obs_span = span;
      }
      observer_->note_cause(header.dest, span);
      observer_->add(header.dest, obs::Counter::kMessagesDelivered);
      observer_->maxed(header.dest, obs::Counter::kMailboxHighWater,
                       mailboxes_[dest].size());
      observer_->observe(header.dest, obs::Hist::kMessageLatency, now - begin);
      if (now > expected + 1e-9) {
        // The paper's satellite claim: time a fault added shows up as
        // network blame, not as whatever construct happened to be waiting.
        observer_->retransmit_span(header.dest, header.source, expected, now,
                                   lane);
      }
    }
  } else {
    cell.stats.duplicates_suppressed += 1;
  }
  // Duplicates and retransmits are re-acknowledged: that is what recovers
  // from a lost ack without redelivering the message.
  if (ack_dropped) {
    cell.stats.acks_dropped += 1;
    if (flight_recorder_ != nullptr) {
      flight_recorder_->record(header.source, engine_.now(),
                               obs::FrKind::kFaultAckLoss, header.dest, seq, 0);
    }
    return;
  }
  engine_.post(engine_.now() + params_.effective_ack_latency_us(),
               [this, flight_id] { handle_ack(flight_id); });
}

void Network::deliver_attempt_cross(
    const std::shared_ptr<const Message>& message, std::uint64_t seq,
    double first_sent_us, double expected_deliver_us) {
  const MessageHeader& header = message->header;
  // The link's receiver half is only ever touched on the destination shard,
  // its sender half only on the source shard.
  ReceiverLink& receiver = receiver_link(header.source, header.dest);
  if (!receiver.accept(seq)) {
    // Dedup hits are the one counter charged to the destination shard.
    rel_shard().stats.duplicates_suppressed += 1;
    return;
  }
  const std::size_t dest = static_cast<std::size_t>(header.dest);
  traffic_[dest].messages_in += 1;
  traffic_[dest].bytes_in += message->size_bytes();
  mailboxes_[dest].push(*message);
  engine_.unblock(header.dest);
  if (flight_recorder_ != nullptr) {
    flight_recorder_->record(header.dest, engine_.now(), obs::FrKind::kDeliver,
                             header.source, message->size_bytes(),
                             static_cast<std::uint64_t>(header.handler));
  }
  if (observer_ != nullptr) {
    const double now = engine_.now();
    const int lane = engine_.current_shard();
    const std::uint64_t span =
        observer_->flight_span(header.source, header.dest, first_sent_us, now,
                               message->size_bytes(), lane);
    // No obs_span backlink: the flight record lives on the source shard, so
    // the eventual ack wake there carries no parent span (handle_ack skips
    // note_cause when the span id is zero).
    observer_->note_cause(header.dest, span);
    observer_->add(header.dest, obs::Counter::kMessagesDelivered);
    observer_->maxed(header.dest, obs::Counter::kMailboxHighWater,
                     mailboxes_[dest].size());
    observer_->observe(header.dest, obs::Hist::kMessageLatency,
                       now - first_sent_us);
    if (now > expected_deliver_us + 1e-9) {
      observer_->retransmit_span(header.dest, header.source,
                                 expected_deliver_us, now, lane);
    }
  }
}

void Network::handle_ack(std::uint64_t id) {
  ReliableShard& cell = rel_shard_of(id);
  auto it = cell.inflight.find(id);
  if (it == cell.inflight.end()) {
    return;  // duplicate or late ack of a completed flight
  }
  if (flight_recorder_ != nullptr) {
    const MessageHeader& header = it->second.message->header;
    flight_recorder_->record(header.source, engine_.now(), obs::FrKind::kAck,
                             header.dest, it->second.seq,
                             static_cast<std::uint64_t>(it->second.attempts));
  }
  if (observer_ != nullptr) {
    const ReliableFlight& flight = it->second;
    const MessageHeader& header = flight.message->header;
    const double now = engine_.now();
    if (flight.obs_span != 0) {
      observer_->note_cause(header.source, flight.obs_span);
    }
    if (now > flight.expected_ack_us + 1e-9) {
      observer_->retransmit_span(header.source, header.dest,
                                 flight.expected_ack_us, now,
                                 engine_.current_shard());
    }
  }
  SendCallbacks callbacks = std::move(it->second.callbacks);
  cell.inflight.erase(it);
  if (callbacks.on_acked) {
    callbacks.on_acked();
  }
}

void Network::on_retransmit_timer(std::uint64_t id, int attempt) {
  ReliableShard& cell = rel_shard_of(id);
  auto it = cell.inflight.find(id);
  if (it == cell.inflight.end()) {
    return;  // acknowledged; the timer is stale
  }
  ReliableFlight& flight = it->second;
  if (flight.attempts != attempt) {
    return;  // a newer attempt rearmed its own timer
  }
  if (flight.attempts >= params_.reliability.max_attempts) {
    const MessageHeader& header = flight.message->header;
    std::ostringstream os;
    os << "reliable delivery failed: message " << header.source << "->"
       << header.dest << " (link seq " << flight.seq << ", ordinal "
       << flight.ordinal << ", handler " << header.handler << ", "
       << flight.message->size_bytes() << " B) undelivered after "
       << flight.attempts << " attempts over "
       << engine_.now() - flight.first_sent_us << " us (retry cap "
       << params_.reliability.max_attempts << ")";
    engine_.fail(os.str(), obs::FailKind::kRetryCap);
    return;
  }
  cell.stats.retransmits += 1;
  if (observer_ != nullptr) {
    observer_->add(flight.message->header.source,
                   obs::Counter::kMessagesRetransmitted);
  }
  if (flight_recorder_ != nullptr) {
    const MessageHeader& header = flight.message->header;
    flight_recorder_->record(header.source, engine_.now(),
                             obs::FrKind::kRetransmit, header.dest, flight.seq,
                             static_cast<std::uint64_t>(flight.attempts));
  }
  flight.rto_us *= params_.reliability.backoff;
  start_attempt(id);
}

void Network::send_reliable(Message message, SendCallbacks callbacks) {
  const double inject =
      static_cast<double>(message.size_bytes()) /
      params_.bandwidth_bytes_per_us;
  const double stage_at = engine_.now() + inject;
  const std::uint64_t id =
      admit_flight(std::move(message), std::move(callbacks), inject);
  engine_.post(stage_at, [this, id] {
    ReliableShard& cell = rel_shard_of(id);
    auto it = cell.inflight.find(id);
    CAF2_ASSERT(it != cell.inflight.end(), "reliable stage: unknown flight");
    if (it->second.callbacks.on_staged) {
      auto staged = std::move(it->second.callbacks.on_staged);
      it->second.callbacks.on_staged = nullptr;
      staged();
    }
    start_attempt(id);
  });
}

void Network::send_staged_reliable(
    MessageHeader header, std::size_t size_hint,
    std::function<std::vector<std::uint8_t>()> read,
    SendCallbacks callbacks) {
  const double inject =
      static_cast<double>(size_hint) / params_.bandwidth_bytes_per_us;
  const double stage_at = engine_.now() + inject;
  engine_.post(stage_at, [this, header, inject, read = std::move(read),
                          callbacks = std::move(callbacks)]() mutable {
    Message message;
    message.header = header;
    message.payload = read();
    if (callbacks.on_staged) {
      callbacks.on_staged();
      callbacks.on_staged = nullptr;
    }
    const std::uint64_t id =
        admit_flight(std::move(message), std::move(callbacks), inject);
    start_attempt(id);
  });
}

void Network::fill_postmortem(obs::PmNetwork& net) const {
  net.present = true;
  net.reliable = reliable_;
  net.faults = fault_stats();
  net.inflight_total = inflight_reliable();
  net.inflight.clear();
  // Cells in shard order, flights by id within a cell: a deterministic
  // listing for a fixed shard count.
  for (const ReliableShard& cell : rel_shards_) {
    for (const auto& [id, flight] : cell.inflight) {
      if (net.inflight.size() == obs::kMaxListedFlights) {
        return;
      }
      const MessageHeader& header = flight.message->header;
      obs::PmFlight pm;
      pm.source = header.source;
      pm.dest = header.dest;
      pm.seq = flight.seq;
      pm.ordinal = flight.ordinal;
      pm.attempts = flight.attempts;
      pm.max_attempts = params_.reliability.max_attempts;
      pm.handler = header.handler;
      pm.bytes = flight.message->size_bytes();
      pm.first_sent_us = flight.first_sent_us;
      pm.rto_us = flight.rto_us;
      net.inflight.push_back(pm);
    }
  }
}

}  // namespace caf2::net
