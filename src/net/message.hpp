#pragma once

/// \file message.hpp
/// Wire messages of the simulated interconnect.
///
/// Every cross-image effect in caf2 travels as a Message: spawned functions,
/// asynchronous-copy data, collective tree stages, event notifications, and
/// finish-detection reductions. A message carries:
///  - routing (source/destination world ranks, active-message handler id);
///  - the finish-accounting envelope (which finish scope the message is
///    charged to and the sender's epoch parity — paper Fig. 7 passes
///    `fromOddEpoch` to every message handler);
///  - an opaque payload (marshalled arguments or raw data);
///  - an optional bulk attachment: an immutable, reference-counted byte
///    buffer that every copy of the message shares (collective stage data).
///
/// The wire size is payload plus bulk, so attaching bytes as bulk instead of
/// appending them to the payload changes no timing, event or counter.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace caf2::net {

/// Active-message handler identifier; the runtime registers handlers in a
/// dispatch table (GASNet-style).
using HandlerId = std::uint32_t;

/// Identifies a finish scope: (team id, per-team finish sequence number).
/// Messages sent outside any finish scope carry team == kNoFinishTeam.
struct FinishKey {
  std::int32_t team = -1;
  std::uint32_t seq = 0;

  static constexpr std::int32_t kNoFinishTeam = -1;

  bool valid() const { return team != kNoFinishTeam; }
  bool operator==(const FinishKey&) const = default;
};

struct MessageHeader {
  int source = -1;                  ///< world rank of the sending image
  int dest = -1;                    ///< world rank of the destination image
  HandlerId handler = 0;

  /// Finish accounting envelope. `tracked` messages update the four epoch
  /// counters on both end points; the detection allreduce itself and event
  /// notifications are untracked.
  FinishKey finish{};
  bool tracked = false;
  bool from_odd_epoch = false;      ///< sender's epoch parity at initiation
};

/// Immutable byte buffer shared by reference count. Copying a handle shares
/// the bytes instead of duplicating them, so one collective stage fanned out
/// to several children, a retransmitted message and the mailbox copy of a
/// reliable delivery all read one allocation. The handle is one pointer wide
/// (Message must stay within 56 B, see message.cpp): the single allocation
/// holds the count, the size and the bytes. The count is atomic because a
/// cross-shard delivery shares the buffer between shard threads.
///
/// The bytes can be written only through mutable_data(), and only while the
/// handle is the sole owner: a buffer is filled before it is first attached
/// to a message and never changes afterwards.
class SharedBytes {
 public:
  SharedBytes() = default;

  /// Snapshot of \p size bytes at \p data. An empty snapshot allocates
  /// nothing, and \p data may then be null.
  static SharedBytes copy_of(const void* data, std::size_t size);
  static SharedBytes copy_of(std::span<const std::uint8_t> bytes) {
    return copy_of(bytes.data(), bytes.size());
  }

  SharedBytes(const SharedBytes& other) noexcept;
  SharedBytes(SharedBytes&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  SharedBytes& operator=(const SharedBytes& other) noexcept;
  SharedBytes& operator=(SharedBytes&& other) noexcept;
  ~SharedBytes() { release(); }

  /// Null when empty.
  const std::uint8_t* data() const;
  std::size_t size() const;
  bool empty() const { return block_ == nullptr; }

  /// Writable bytes; requires that this handle is the only owner.
  std::uint8_t* mutable_data();

  /// Drop this handle's reference (the handle becomes empty).
  void reset() noexcept {
    release();
    block_ = nullptr;
  }

  operator std::span<const std::uint8_t>() const {  // NOLINT
    return {data(), size()};
  }

 private:
  struct Block;
  void release() noexcept;

  Block* block_ = nullptr;
};

struct Message {
  MessageHeader header;
  std::vector<std::uint8_t> payload;
  SharedBytes bulk;

  /// Bytes on the wire: what the timing plan and traffic counters charge.
  std::size_t size_bytes() const { return payload.size() + bulk.size(); }
};

}  // namespace caf2::net
