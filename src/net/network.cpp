#include "net/network.hpp"

#include <algorithm>
#include <limits>
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
  // A fault-plan endpoint past the image count names a link that can never
  // carry a message: the entry would silently never fire.
  const auto require_image = [&](int rank, const char* list, std::size_t i,
                                 const char* field) {
    CAF2_REQUIRE(rank < engine.size(),
                 std::string("Network: faults.") + list + "[" +
                     std::to_string(i) + "]." + field + " = " +
                     std::to_string(rank) + " is not an image (" +
                     std::to_string(engine.size()) + " images)");
  };
  for (std::size_t i = 0; i < params_.faults.scripted.size(); ++i) {
    require_image(params_.faults.scripted[i].source, "scripted", i, "source");
    require_image(params_.faults.scripted[i].dest, "scripted", i, "dest");
  }
  for (std::size_t i = 0; i < params_.faults.links.size(); ++i) {
    require_image(params_.faults.links[i].source, "links", i, "source");
    require_image(params_.faults.links[i].dest, "links", i, "dest");
  }
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

const ImageTraffic& Network::traffic(int image) const {
  CAF2_REQUIRE(image >= 0 && image < size(), "traffic(): image out of range");
  return traffic_[static_cast<std::size_t>(image)];
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

std::uint64_t Network::land(Message message, double init_us,
                            double expected_us) {
  const int source = message.header.source;
  const int dest = message.header.dest;
  const std::size_t bytes = message.size_bytes();
  const std::uint64_t handler =
      static_cast<std::uint64_t>(message.header.handler);
  Mailbox& mailbox = mailboxes_[static_cast<std::size_t>(dest)];
  traffic_[static_cast<std::size_t>(dest)].messages_in += 1;
  traffic_[static_cast<std::size_t>(dest)].bytes_in += bytes;
  mailbox.push(std::move(message));
  engine_.unblock(dest);
  const double now = engine_.now();
  if (flight_recorder_ != nullptr) {
    flight_recorder_->record(dest, now, obs::FrKind::kDeliver, source, bytes,
                             handler);
  }
  if (observer_ == nullptr) {
    return 0;
  }
  // Spans land on the calling (destination) shard's net lane.
  const int lane = engine_.current_shard();
  const std::uint64_t span =
      observer_->flight_span(source, dest, init_us, now, bytes, lane);
  observer_->note_cause(dest, span);
  observer_->add(dest, obs::Counter::kMessagesDelivered);
  observer_->maxed(dest, obs::Counter::kMailboxHighWater, mailbox.size());
  observer_->observe(dest, obs::Hist::kMessageLatency, now - init_us);
  if (now > expected_us + 1e-9) {
    // The paper's satellite claim: time a fault added shows up as network
    // blame, not as whatever construct happened to be waiting.
    observer_->retransmit_span(dest, source, expected_us, now, lane);
  }
  return span;
}

void Network::deliver(Flight flight) {
  const int source = flight.message.header.source;
  const std::uint64_t span =
      land(std::move(flight.message), flight.init_us,
           std::numeric_limits<double>::infinity());
  if (!flight.callbacks.on_acked) {
    return;
  }
  engine_.post_for(source, flight.timing.ack_at,
                   [this, source, span,
                    acked = std::move(flight.callbacks.on_acked)] {
                     if (observer_ != nullptr && span != 0) {
                       observer_->note_cause(source, span);
                     }
                     acked();
                   });
}

void Network::post_deliver(Flight flight) {
  const int dest = flight.message.header.dest;
  const double at = flight.timing.deliver_at;
  auto deliver_phase = [this, f = std::move(flight)]() mutable {
    deliver(std::move(f));
  };
  static_assert(sizeof(deliver_phase) <= sim::InlineFn::kInlineBytes,
                "the deliver closure must stay in InlineFn storage");
  engine_.post_for(dest, at, std::move(deliver_phase));
}

void Network::send(Message message, SendCallbacks callbacks) {
  CAF2_REQUIRE(message.header.dest >= 0 && message.header.dest < size(),
               "send(): destination image out of range");
  if (reliable_) {
    send_reliable(std::move(message), std::move(callbacks));
    return;
  }
  Flight flight;
  flight.init_us = engine_.now();
  flight.timing = plan(flight.init_us, message.size_bytes());
  flight.message = std::move(message);
  flight.callbacks = std::move(callbacks);
  account_send(flight.message);
  if (!flight.callbacks.on_staged) {
    post_deliver(std::move(flight));
    return;
  }
  const double stage_at = flight.timing.stage_at;
  auto stage = [this, f = std::move(flight)]() mutable {
    f.callbacks.on_staged();
    f.callbacks.on_staged = nullptr;
    post_deliver(std::move(f));
  };
  // Size cliff: past kInlineBytes this closure would be heap-allocated on
  // every send. Measured on ring4k, a 16-byte bulk handle once pushed it
  // past the limit and heap-allocated 90,112 closures; an alltoallv-only
  // collectives run was then ~20% slower. Raising kInlineBytes to 224
  // instead cost ring4k +17 MB of peak RSS.
  static_assert(sizeof(stage) <= sim::InlineFn::kInlineBytes,
                "the stage closure must stay in InlineFn storage");
  engine_.post(stage_at, std::move(stage));
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
  const double init_us = engine_.now();
  const Timing timing = plan(init_us, size_hint);
  // At staging time the network reads the source buffer; only then does the
  // message exist as an independent payload. Overwriting the source buffer
  // before local data completion corrupts the transfer, as on real RDMA
  // hardware.
  engine_.post(timing.stage_at, [this, header, timing, init_us,
                                 read = std::move(read),
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
    account_send(flight.message);
    post_deliver(std::move(flight));
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
  const auto charge = [&](bool fired, std::uint64_t& counter,
                          obs::FrKind kind) {
    if (!fired) {
      return;
    }
    counter += 1;
    if (flight_recorder_ != nullptr) {
      flight_recorder_->record(flight.message->header.source, engine_.now(),
                               kind, flight.message->header.dest, flight.seq,
                               static_cast<std::uint64_t>(flight.attempts));
    }
  };
  charge(faults.drop, cell.stats.deliveries_dropped, obs::FrKind::kFaultDrop);
  charge(faults.duplicate, cell.stats.deliveries_duplicated,
         obs::FrKind::kFaultDuplicate);
  charge(faults.extra_delay_us > 0.0, cell.stats.deliveries_delayed,
         obs::FrKind::kFaultDelay);

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
  if (!faults.drop) {
    post_attempt(id, flight, deliver_at, faults.ack_drop);
  }
  if (faults.duplicate) {
    post_attempt(id, flight, deliver_at + faults.dup_offset_us,
                 faults.dup_ack_drop);
  }
  engine_.post(engine_.now() + flight.rto_us,
               [this, id, attempt = flight.attempts] {
                 on_retransmit_timer(id, attempt);
               });
}

void Network::post_attempt(std::uint64_t id, const ReliableFlight& flight,
                           double at, bool ack_dropped) {
  const MessageHeader& header = flight.message->header;
  if (ack_dropped) {
    // Charged at roll time on the sender: the receiver never touches the
    // source cell, and every launched physical delivery lands. The entry is
    // stamped with the delivery time, when the ack would have left; ring
    // records never schedule events (flight_recorder.hpp), so a future stamp
    // is harmless.
    rel_shard_of(id).stats.acks_dropped += 1;
    if (flight_recorder_ != nullptr) {
      flight_recorder_->record(header.source, at, obs::FrKind::kFaultAckLoss,
                               header.dest, flight.seq, 0);
    }
  }
  engine_.post_for(header.dest, at,
                   [this, message = flight.message, id, seq = flight.seq,
                    first_sent = flight.first_sent_us,
                    expected = flight.expected_deliver_us, ack_dropped] {
                     deliver_attempt(message, id, seq, first_sent, expected,
                                     ack_dropped);
                   });
}

void Network::deliver_attempt(const std::shared_ptr<const Message>& message,
                              std::uint64_t id, std::uint64_t seq,
                              double first_sent_us, double expected_deliver_us,
                              bool ack_dropped) {
  const MessageHeader& header = message->header;
  std::uint64_t span = 0;
  if (receiver_link(header.source, header.dest).accept(seq)) {
    span = land(*message, first_sent_us, expected_deliver_us);
  } else {
    // Dedup hits are charged to the receiving shard's cell.
    rel_shard().stats.duplicates_suppressed += 1;
  }
  // Duplicates and retransmits are re-acknowledged: that is what recovers
  // from a lost ack without redelivering the message.
  if (ack_dropped) {
    return;
  }
  const int source = header.source;
  engine_.post_for(source,
                   engine_.now() + params_.effective_ack_latency_us(),
                   [this, id, span] { handle_ack(id, span); });
}

void Network::handle_ack(std::uint64_t id, std::uint64_t span) {
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
    if (span != 0) {
      observer_->note_cause(header.source, span);
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
