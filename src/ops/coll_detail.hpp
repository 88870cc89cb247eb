#pragma once

/// \file coll_detail.hpp
/// Internal machinery shared by the collective implementations
/// (collectives.cpp) and the distributed sort (sort.cpp). Not public API.

#include <cstdint>
#include <cstring>
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

/// Common machinery: stage-message sending with staged/ack bookkeeping, the
/// two completion points (local data / local operation), and finish
/// attribution captured at start time.
class CollImplBase : public rt::CollBase {
 public:
  CollImplBase(rt::CollKey key, CollDesc desc);

  void on_stage(rt::Image& image, rt::CollStageMsg&& msg) override;
  bool finished() const override { return erasable_; }

  /// Entered once, after construction (and before any buffered replay).
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
  bool data_done_ = false;
  bool data_after_stages_ = false;
  bool op_done_ = false;
  bool erasable_ = false;
};

/// Factory for the distributed sample sort (implemented in sort.cpp).
std::unique_ptr<CollImplBase> make_sort_impl(rt::CollKey key, CollDesc desc);

/// Algorithm-family factories (one translation unit per family; each
/// switches on desc.kind for the kinds its schedule covers). desc.algorithm
/// is already resolved to the family's concrete value.
std::unique_ptr<CollImplBase> make_tree_barrier_impl(rt::CollKey key,
                                                     CollDesc desc);
/// Broadcast and reduce over the binomial, k-nomial or ring-chain tree.
std::unique_ptr<CollImplBase> make_tree_impl(rt::CollKey key, CollDesc desc);
std::unique_ptr<CollImplBase> make_ring_impl(rt::CollKey key, CollDesc desc);
std::unique_ptr<CollImplBase> make_rd_impl(rt::CollKey key, CollDesc desc);
std::unique_ptr<CollImplBase> make_direct_impl(rt::CollKey key,
                                               CollDesc desc);

}  // namespace caf2::ops::detail
