#pragma once

/// \file coll_detail.hpp
/// Internal machinery shared by the collective implementations: tree
/// helpers, the per-stage receive buffer, the CollImplBase stage machine and
/// one factory per data-movement pattern (DESIGN.md §4.13). The pairing
/// table in coll_algo.cpp maps every (kind, schedule) to one of those
/// factories. Not public API.

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "ops/collectives.hpp"
#include "runtime/image.hpp"

namespace caf2::ops::detail {

/// Binomial-tree helpers over `p` relative ranks rooted at 0. A node's
/// parent clears its lowest set bit; its children add every power of two
/// below that bit.
int binomial_parent(int vr);
std::vector<int> binomial_children(int vr, int p);
int ceil_log2(int p);

/// k-nomial-tree helpers (radix \p k >= 2) over `p` relative ranks rooted
/// at 0: a node's parent clears its lowest nonzero base-k digit; its
/// children add j*k^d (j in [1, k)) for every digit position d below that
/// digit. k = 2 degenerates to the binomial tree.
int knomial_parent(int vr, int k);
std::vector<int> knomial_children(int vr, int p, int k);

/// memcpy for stage data: an empty SharedBytes (and an empty user span) has
/// a null data pointer, which memcpy must not receive even for zero bytes.
inline void copy_bytes(void* dst, const void* src, std::size_t bytes) {
  if (bytes > 0) {
    std::memcpy(dst, src, bytes);
  }
}

/// Radix of CollAlgorithm::kKnomialTree (shallower than binomial: depth
/// log_4 p, at most 3 sends per level per node).
inline constexpr int kKnomialRadix = 4;

/// Per-stage receive buffer for the round-based schedules. Channels are
/// non-FIFO (delivery jitter can reorder same-link messages), so a stage-s
/// message can arrive before stage s-1's; schedules store arrivals by stage
/// and consume them strictly in stage order. Sized once in begin(), which
/// runs before any arrival: growing it per arrival raised the peak RSS of a
/// 4096-image run (one dissemination barrier per image) by 13%.
class StageBuffer {
 public:
  void resize(int stages) { slots_.resize(static_cast<std::size_t>(stages)); }

  void store(int stage, net::SharedBytes&& data) {
    CAF2_ASSERT(stage >= 0 && static_cast<std::size_t>(stage) < slots_.size(),
                "collective stage out of range");
    Slot& slot = slots_[static_cast<std::size_t>(stage)];
    slot.data = std::move(data);
    slot.has = true;
  }

  bool has(int stage) const {
    return slots_[static_cast<std::size_t>(stage)].has;
  }

  net::SharedBytes& at(int stage) {
    return slots_[static_cast<std::size_t>(stage)].data;
  }

 private:
  struct Slot {
    net::SharedBytes data;
    bool has = false;
  };
  std::vector<Slot> slots_;
};

/// Common machinery: stage-message sending with staged/ack bookkeeping, the
/// two completion points (local data / local operation), and finish
/// attribution captured at start time.
///
/// Invariant: stages reach handle() only after begin() returns.
/// start_collective installs the operation and calls start() without
/// yielding; stages that arrive earlier wait in rt::PendingColl::buffered
/// and are replayed afterwards. No implementation buffers pre-start stages.
class CollImplBase : public rt::CollBase {
 public:
  CollImplBase(rt::CollKey key, CollDesc desc);

  void on_stage(rt::Image& image, rt::CollStageMsg&& msg) override;
  bool finished() const override { return erasable_; }

  /// Entered once, after construction and before any stage is delivered.
  void start(rt::Image& image, const net::FinishKey& finish,
             rt::ImplicitOpPtr op);

 protected:
  /// Kind-specific initiation.
  virtual void begin(rt::Image& image) = 0;
  /// Kind-specific stage-message handling.
  virtual void handle(rt::Image& image, rt::CollStageMsg&& msg) = 0;
  /// Kind-specific: algorithm role of this image is complete.
  virtual bool role_done() const = 0;

  /// Send one stage message carrying \p data as its bulk attachment. The
  /// buffer is shared, not copied: payload ownership (DESIGN.md §4.13) is
  /// one snapshot per fan-out at initiation, after which interior images
  /// forward the buffer they received and reduce-shaped schedules move their
  /// accumulator in. Pass {} for a zero-byte token.
  void send_stage(rt::Image& image, int to_team_rank, int stage,
                  net::SharedBytes data);

  /// Local data completion (paper Fig. 4); with \p after_stages the mark is
  /// deferred until every outgoing stage has been injected.
  void mark_data_done(rt::Image& image, bool after_stages = false);

  void try_complete(rt::Image& image);

  const CollDesc& desc() const { return desc_; }
  int team_rank() const { return desc_.team.rank(); }
  int team_size() const { return desc_.team.size(); }

 private:
  rt::CollKey key_;
  CollDesc desc_;
  net::FinishKey finish_{};
  rt::ImplicitOpPtr op_;
  int pending_stage_ = 0;
  int pending_ack_ = 0;
  double begin_us_ = 0.0;  ///< start() time, for the obs collective span
  bool begun_ = false;     ///< begin() has returned
  bool data_done_ = false;
  bool data_after_stages_ = false;
  bool op_done_ = false;
  bool erasable_ = false;
};

/// One factory per data-movement pattern, each defined next to its class.
using CollFactory = std::unique_ptr<CollImplBase> (*)(rt::CollKey key,
                                                       CollDesc desc);

/// Broadcast, reduce, binomial allreduce and binomial barrier: one rooted
/// tree with an optional combine (up) and forward (down) phase.
std::unique_ptr<CollImplBase> make_tree(rt::CollKey key, CollDesc desc);
/// Ring allreduce, allgather and reduce-scatter: one ring pipeline.
std::unique_ptr<CollImplBase> make_ring(rt::CollKey key, CollDesc desc);
/// Every direct schedule: one message per communicating pair.
std::unique_ptr<CollImplBase> make_direct(rt::CollKey key, CollDesc desc);
std::unique_ptr<CollImplBase> make_rd_allreduce(rt::CollKey key,
                                                CollDesc desc);
std::unique_ptr<CollImplBase> make_rd_allgather(rt::CollKey key,
                                                CollDesc desc);
std::unique_ptr<CollImplBase> make_dissemination_barrier(rt::CollKey key,
                                                         CollDesc desc);
std::unique_ptr<CollImplBase> make_scan(rt::CollKey key, CollDesc desc);
std::unique_ptr<CollImplBase> make_binomial_gather(rt::CollKey key,
                                                   CollDesc desc);
std::unique_ptr<CollImplBase> make_binomial_scatter(rt::CollKey key,
                                                    CollDesc desc);
/// The distributed sample sort (sort.cpp).
std::unique_ptr<CollImplBase> make_sort(rt::CollKey key, CollDesc desc);

/// The factory the pairing table gives (kind, algorithm); nullptr when the
/// pairing is not implemented.
CollFactory find_factory(CollKind kind, CollAlgorithm algorithm);

/// Cofence classification from the pairing table (paper Fig. 4 rows): does
/// \p desc read / write initiator-local data on the calling image?
void classify(const CollDesc& desc, bool& reads, bool& writes);

}  // namespace caf2::ops::detail
