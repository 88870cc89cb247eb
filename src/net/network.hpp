#pragma once

/// \file network.hpp
/// Simulated interconnect: timing model + delivery.
///
/// A message initiated at virtual time t traverses four points that realize
/// the paper's completion spectrum (paper Fig. 1, DESIGN.md §4.2):
///
///   initiation  t                       send()/send_staged() returns
///   staging     t + size/bandwidth      source buffer read ("injected");
///                                       on_staged fires -> local data
///                                       completion of the operation
///   delivery    staging + latency + U[0, jitter]
///                                       message lands in the destination
///                                       mailbox; destination is unblocked
///   ack         delivery + ack_latency  on_acked fires at the initiator ->
///                                       local operation completion
///
/// Jitter makes channels non-FIFO, which the paper's termination-detection
/// algorithm must tolerate (its §III-A2 rejects FIFO-dependent algorithms).
///
/// send_staged() defers reading the source buffer to staging time: this is
/// what makes "overwrite the source before cofence()" a real data hazard in
/// the simulation, exactly as on hardware with a zero-copy NIC.
///
/// Reliable delivery (DESIGN.md §4.7). With an active FaultPlan the network
/// layers a retransmission protocol over the lossy wire:
///  - every message carries a per-(source, dest) sequence number and is
///    retained at the sender until acknowledged;
///  - the receiver keeps a per-link dedup window (a compacted set of seen
///    sequence numbers), so duplicated or retransmitted deliveries land in
///    the mailbox exactly once — and acks are re-sent for duplicates, which
///    recovers from lost acks;
///  - a virtual-time retransmit timer with exponential backoff resends
///    unacknowledged messages; after ReliabilityParams::max_attempts the
///    engine fails the run with a watchdog report naming the undeliverable
///    message instead of hanging.
/// on_staged fires exactly once (at the first attempt's staging point) and
/// on_acked exactly once (at the first acknowledgement), so finish counters
/// and cofence hazards are oblivious to loss. When the protocol is off, the
/// bare stage -> deliver -> ack chain runs alone.
///
/// One chain on every shard count (DESIGN.md §4.11, §4.12). Each phase
/// posts the next one lazily, so a message holds at most one pending engine
/// event at any time:
///  - stage: posted on the source shard, only when the send has on_staged
///    or a staged read;
///  - deliver: Engine::post_for(dest, deliver_at), a plain post when the
///    destination shares the source's shard;
///  - ack: the delivery posts it back with Engine::post_for(source, ack_at),
///    carrying the flight span id so the ack wake gets its parent edge.
/// The timing plan is drawn at initiation from the source *image's* jitter
/// stream. A send runs on its source image's shard, so the stream needs no
/// lock, and an image's draws follow its own sends on every shard count.
/// deliver_at >= now + latency and ack_at = delivery + ack latency, and the
/// runtime sets the lookahead to min(latency, ack latency), so both
/// cross-shard posts keep the conservative-window contract.
///
/// The reliable-delivery protocol walks the same chain (DESIGN.md §4.12).
/// Its state lives in the two halves of each (source, dest) link, created
/// on first use. The sender half (next_seq, the unacknowledged flights by
/// sequence number, the fault counters) is kept per source image and only
/// ever touched by the source image's shard; the receiver half
/// (dedup_floor, seen, duplicates suppressed) per destination image and only
/// touched by the destination's shard. Neither needs a lock, and an image
/// holds one record per peer it talks to, not one per image. Every fault
/// decision of an attempt, both ack losses included, is rolled from the
/// source image's fault stream and charged at the sender. Closures name a
/// flight by (source, dest, seq); the delivery carries its metadata in the
/// closure, never reads the sender-owned flight record, and posts handle_ack
/// back through post_for unless its ack was rolled lost.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/mailbox.hpp"
#include "net/message.hpp"
#include "sim/engine.hpp"
#include "support/config.hpp"
#include "support/rng.hpp"

namespace caf2::obs {
class Recorder;
class FlightRecorder;
struct PmNetwork;
}

namespace caf2::net {

/// Completion callbacks of one send. Both run as engine callbacks (no
/// participant token): they may post messages and unblock images but must
/// not block.
struct SendCallbacks {
  /// Source buffer has been read; local data completion on the source image.
  std::function<void()> on_staged;
  /// Delivery acknowledged at the initiator; local operation completion.
  std::function<void()> on_acked;
};

/// Per-image traffic counters (used by the detector-ablation benchmark to
/// expose the X10-style centralized hotspot).
struct ImageTraffic {
  std::uint64_t messages_in = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t messages_out = 0;
  std::uint64_t bytes_out = 0;
};

class Network {
 public:
  Network(sim::Engine& engine, NetworkParams params, std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Send a message whose payload is already materialized (spawn arguments
  /// are evaluated at initiation, paper Fig. 4 "Spawn" row). Staging still
  /// models injection time for the payload size.
  void send(Message message, SendCallbacks callbacks = {});

  /// Send a message whose payload is produced at *staging time* by \p read
  /// (asynchronous copies: the network reads the source buffer when the
  /// transfer is injected, not when the call returns). \p size_hint must be
  /// the number of bytes \p read will produce.
  void send_staged(MessageHeader header, std::size_t size_hint,
                   std::function<std::vector<std::uint8_t>()> read,
                   SendCallbacks callbacks = {});

  Mailbox& mailbox(int image);
  const Mailbox& mailbox(int image) const;

  const NetworkParams& params() const { return params_; }
  int size() const { return static_cast<int>(mailboxes_.size()); }

  std::uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  /// Traffic counters of \p image (must be in [0, size())).
  const ImageTraffic& traffic(int image) const;

  /// Reset the per-image traffic counters (benchmarks call this between
  /// measurement phases).
  void reset_traffic();

  /// --- reliability / fault introspection -----------------------------------

  /// True when the reliable-delivery protocol is layered in for this run.
  bool reliable() const { return reliable_; }

  /// Injected-fault and protocol counters summed over links (all zero when
  /// reliable() is off). Deliveries dropped/duplicated/delayed, ack losses,
  /// retransmits and scripted faults are counted in the sender halves,
  /// duplicates_suppressed in the receiver halves.
  FaultStats fault_stats() const;

  /// Number of reliable messages currently unacknowledged (summed over
  /// links).
  std::size_t inflight_reliable() const;

  /// Reliable-link records currently held: sender halves summed over source
  /// images and receiver halves summed over destination images (both zero
  /// when reliable() is off). Each is created on a link's first use.
  struct LinkRecords {
    std::size_t senders = 0;
    std::size_t receivers = 0;
  };
  LinkRecords link_records() const;

  /// Snapshot the network's postmortem section: reliability mode, in-flight
  /// reliable messages (the first obs::kMaxListedFlights of them in
  /// (source, dest, seq) order), fault stats.
  void fill_postmortem(obs::PmNetwork& net) const;

  /// Attach an observability recorder (nullptr detaches; see obs/obs.hpp).
  /// Deliveries and acks then record flight spans on the network track, note
  /// unblock causes, and bump message counters — without ever scheduling or
  /// reordering events, so the flight chains are unchanged.
  void set_observer(obs::Recorder* observer) { observer_ = observer; }

  /// Attach the always-on flight recorder (nullptr detaches; see
  /// obs/flight_recorder.hpp). Sends, deliveries, acks, retransmissions, and
  /// injected faults then land in the per-image rings — plain ring stores,
  /// never scheduling or reordering events.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    flight_recorder_ = recorder;
  }

 private:
  struct Timing {
    double stage_at;
    double deliver_at;
    double ack_at;
  };
  Timing plan(int source, double now, std::size_t bytes);

  /// Image \p source's stream in \p streams (jitter_ or fault_). Only the
  /// source image's shard draws from it, which is what keeps the streams
  /// race-free; the accessor checks that.
  Xoshiro256ss& source_stream(std::vector<Xoshiro256ss>& streams, int source);

  /// One in-flight best-effort message: the message plus its completion
  /// callbacks and timing plan. It moves from the stage closure into the
  /// delivery closure; the delivery hands on_acked on to the ack closure.
  struct Flight {
    Message message;
    SendCallbacks callbacks;
    Timing timing{};
    double init_us = 0.0;  ///< initiation time (observability only)
  };

  /// Source-side accounting charged when the message is injected.
  void account_send(const Message& message);

  /// Post the delivery of \p flight on the destination's shard.
  void post_deliver(Flight flight);

  /// Delivery phase: land the message and post the ack back to the source.
  void deliver(Flight flight);

  /// Land \p message in its destination mailbox and unblock the destination:
  /// traffic counters, flight recorder and observer records. \p init_us is
  /// the first initiation (the flight span's begin); a delivery later than
  /// \p expected_us also records a retransmit-delay span. Returns the flight
  /// span id (0 without an observer).
  std::uint64_t land(Message message, double init_us, double expected_us);

  /// --- reliable-delivery protocol ------------------------------------------

  /// Fault decisions and timing draws for one delivery attempt. A fixed
  /// number of RNG values is consumed per attempt regardless of outcomes, so
  /// the fault stream stays aligned across configuration tweaks.
  struct AttemptFaults {
    bool drop = false;
    bool duplicate = false;
    bool ack_drop = false;      ///< ack of the primary delivery is lost
    bool dup_ack_drop = false;  ///< ack of the duplicate delivery is lost
    double extra_delay_us = 0.0;
    double jitter_us = 0.0;
    double dup_offset_us = 0.0;  ///< duplicate lands this much later
  };

  /// One unacknowledged reliable message, retained for retransmission.
  struct ReliableFlight {
    std::shared_ptr<const Message> message;
    SendCallbacks callbacks;
    int attempts = 0;           ///< delivery attempts made so far
    double first_sent_us = 0.0;
    double inject_us = 0.0;     ///< injection cost charged per attempt
    double rto_us = 0.0;        ///< current retransmit timeout
    // Observability only. "Expected" marks include the *maximum* jitter, so
    // a fault-free reliable run records no retransmit-delay spans and blame
    // reattribution fires only on genuinely fault-lengthened waits.
    double expected_deliver_us = 0.0;
    double expected_ack_us = 0.0;
  };

  /// Names one reliable flight from any shard: its link and its link
  /// sequence number (seq + 1 is the flight's 1-based initiation ordinal on
  /// the link, which scripted faults and reports use).
  struct FlightKey {
    int source = 0;
    int dest = 0;
    std::uint64_t seq = 0;
  };

  /// Sender half of a (source, dest) link: assigns sequence numbers,
  /// retains the unacknowledged flights, and counts the faults rolled for
  /// them. Touched only by the source image's shard.
  struct SenderLink {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, ReliableFlight> inflight;  ///< by sequence number
    FaultStats faults;  ///< duplicates_suppressed lives in the receiver half
  };

  /// Receiver half of a (source, dest) link: the dedup window, i.e. the set
  /// of seen sequence numbers at or above `dedup_floor`, compacted by
  /// advancing the floor over contiguous runs (everything below the floor
  /// has been seen). Touched only by the destination image's shard.
  struct ReceiverLink {
    std::uint64_t dedup_floor = 0;
    std::set<std::uint64_t> seen;
    std::uint64_t duplicates_suppressed = 0;

    /// First sighting of \p seq? (Inserts and compacts when it is.)
    bool accept(std::uint64_t seq);
  };

  void send_reliable(Message message, SendCallbacks callbacks);
  void send_staged_reliable(MessageHeader header, std::size_t size_hint,
                            std::function<std::vector<std::uint8_t>()> read,
                            SendCallbacks callbacks);

  /// Register a new flight in its sender half (assigns the link sequence
  /// number) and return its key.
  FlightKey admit_flight(Message message, SendCallbacks callbacks,
                         double inject_us);

  /// Launch the next delivery attempt of flight \p key: roll faults, post
  /// the delivery (and duplicate) and arm the retransmit timer.
  void start_attempt(const FlightKey& key);

  /// Roll one attempt's faults from the source image's streams; scripted
  /// faults that fire are counted in \p stats.
  AttemptFaults roll_faults(const FlightKey& key, const ReliableFlight& flight,
                            FaultStats& stats);

  /// Post one physical delivery (primary or duplicate) of flight \p key at
  /// \p at. An ack rolled lost is charged here, at the sender.
  void post_attempt(const FlightKey& key, const ReliableFlight& flight,
                    double at, bool ack_dropped);

  /// Receiver side of one physical delivery: dedup, land, and post
  /// handle_ack back to the source unless \p ack_dropped. All metadata rides
  /// in the arguments; the sender-owned flight record is never touched.
  void deliver_attempt(const std::shared_ptr<const Message>& message,
                       const FlightKey& key, double first_sent_us,
                       double expected_deliver_us, bool ack_dropped);

  /// Sender side of one acknowledgement; idempotent (late/duplicate acks of
  /// an already-completed flight are ignored). \p span is the delivery's
  /// flight span (0 for a deduped duplicate or without an observer).
  void handle_ack(const FlightKey& key, std::uint64_t span);

  void on_retransmit_timer(const FlightKey& key, int attempt);

  /// Default initial retransmit timeout: a little over twice the worst-case
  /// round trip, including the largest configured fault delay.
  double auto_rto(double inject_us) const;

  /// The link halves, created on first use.
  SenderLink& sender_link(int source, int dest);
  ReceiverLink& receiver_link(int source, int dest);

  sim::Engine& engine_;
  NetworkParams params_;
  /// jitter_[x]: image x's jitter stream (empty when jitter_us is 0).
  std::vector<Xoshiro256ss> jitter_;
  std::vector<Mailbox> mailboxes_;
  /// traffic_[x] is only ever written by image x's shard (out-fields at the
  /// source, in-fields at the destination), so plain counters stay safe.
  std::vector<ImageTraffic> traffic_;
  /// Global totals are bumped from every shard: relaxed atomics.
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};

  // reliable-delivery state (empty when reliable_ is false)
  bool reliable_ = false;
  /// fault_[x]: image x's fault stream, independent of its jitter stream.
  std::vector<Xoshiro256ss> fault_;
  /// send_links_[source][dest] and recv_links_[dest][source]: one map per
  /// image (size() entries when reliable_, else empty), each holding only the
  /// peers that image has sent to or received from.
  std::vector<std::unordered_map<int, SenderLink>> send_links_;
  std::vector<std::unordered_map<int, ReceiverLink>> recv_links_;

  double max_extra_delay_us_ = 0.0;
  obs::Recorder* observer_ = nullptr;
  obs::FlightRecorder* flight_recorder_ = nullptr;
};

}  // namespace caf2::net
