#include <memory>
#include <vector>

#include "ops/coll_detail.hpp"
#include "runtime/runtime.hpp"
#include "support/error.hpp"

/// \file coll_algo_tree.cpp
/// Tree-family schedules (DESIGN.md §4.13): broadcast and reduce over a
/// rooted tree — binomial (the default), radix-4 k-nomial (shallower: depth
/// log_4 p, at the cost of up to three sends per level per node) or, for
/// broadcast, a ring chain (p-1 hops: the degenerate pipeline schedule) —
/// and a binomial gather+release barrier (an alternative to the default
/// dissemination rounds: 2 log2 p hops of depth instead of log2 p rounds of
/// p messages).

namespace caf2::ops::detail {

namespace {

using rt::CollStageMsg;
using rt::Image;

/// A rooted tree over relative ranks (root 0): all that the binomial,
/// k-nomial and ring-chain broadcast/reduce schedules differ in.
struct TreeShape {
  int (*parent)(int vr);
  std::vector<int> (*children)(int vr, int p);
};

/// The tree of kBinomialTree, kKnomialTree (radix kKnomialRadix) or kRing
/// (a chain: vr's only child is vr + 1).
TreeShape tree_shape(CollAlgorithm algorithm) {
  switch (algorithm) {
    case CollAlgorithm::kBinomialTree:
      return {binomial_parent, binomial_children};
    case CollAlgorithm::kKnomialTree:
      return {[](int vr) { return knomial_parent(vr, kKnomialRadix); },
              [](int vr, int p) {
                return knomial_children(vr, p, kKnomialRadix);
              }};
    case CollAlgorithm::kRing:
      return {[](int vr) { return vr - 1; },
              [](int vr, int p) {
                return vr + 1 < p ? std::vector<int>{vr + 1}
                                  : std::vector<int>{};
              }};
    default:
      throw UsageError("tree schedule: unsupported algorithm");
  }
}

/// Broadcast from desc().root down a tree over relative ranks. Payload
/// ownership: the root snapshots its buffer once, every interior image
/// forwards the buffer it received, and each image drops its reference as
/// soon as it has forwarded — one buffer serves every edge of the tree.
class TreeBroadcastImpl final : public CollImplBase {
 public:
  TreeBroadcastImpl(rt::CollKey key, CollDesc desc, TreeShape shape)
      : CollImplBase(key, std::move(desc)), shape_(shape) {}

 protected:
  void begin(Image& image) override {
    started_ = true;
    if (team_rank() == desc().root) {
      payload_ = net::SharedBytes::copy_of(desc().buf, desc().bytes);
      have_data_ = true;
      forward(image);
      mark_data_done(image, /*after_stages=*/true);
    } else if (pending_payload_) {
      deliver(image);
    }
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    payload_ = std::move(msg.data);
    pending_payload_ = true;
    if (started_) {
      deliver(image);
    }
  }

  bool role_done() const override { return started_ && have_data_; }

 private:
  int vrank() const {
    const int p = team_size();
    return (team_rank() - desc().root + p) % p;
  }

  void forward(Image& image) {
    const int p = team_size();
    for (int child : shape_.children(vrank(), p)) {
      send_stage(image, (child + desc().root) % p, 0, payload_);
    }
    payload_.reset();
  }

  void deliver(Image& image) {
    CAF2_ASSERT(payload_.size() == desc().bytes, "broadcast size mismatch");
    copy_bytes(desc().buf, payload_.data(), payload_.size());
    have_data_ = true;
    pending_payload_ = false;
    forward(image);
    mark_data_done(image);
  }

  TreeShape shape_;
  bool started_ = false;
  bool have_data_ = false;
  bool pending_payload_ = false;
  net::SharedBytes payload_;
};

/// Reduction toward desc().root up a tree over relative ranks. The
/// accumulator is the stage buffer itself: a non-root image moves it into
/// the message to its parent instead of copying it.
class TreeReduceImpl final : public CollImplBase {
 public:
  TreeReduceImpl(rt::CollKey key, CollDesc desc, TreeShape shape)
      : CollImplBase(key, std::move(desc)), shape_(shape) {}

 protected:
  void begin(Image& image) override {
    started_ = true;
    acc_ = net::SharedBytes::copy_of(desc().buf, desc().bytes);
    expected_ =
        static_cast<int>(shape_.children(vrank(), team_size()).size());
    if (team_rank() != desc().root) {
      mark_data_done(image);  // inputs captured; user buffer reusable
    }
    for (const net::SharedBytes& pending : pending_msgs_) {
      absorb(pending);
    }
    pending_msgs_.clear();
    try_advance(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    if (!started_) {
      pending_msgs_.push_back(std::move(msg.data));
      return;
    }
    absorb(msg.data);
    try_advance(image);
  }

  bool role_done() const override { return started_ && done_; }

 private:
  int vrank() const {
    const int p = team_size();
    return (team_rank() - desc().root + p) % p;
  }

  void absorb(const net::SharedBytes& data) {
    CAF2_ASSERT(data.size() == desc().bytes, "reduce size mismatch");
    const Reducer& reducer = desc().reducer;
    reducer.combine(acc_.mutable_data(), data.data(),
                    desc().bytes / reducer.elem_size);
    ++got_;
  }

  void try_advance(Image& image) {
    if (done_ || got_ < expected_) {
      return;
    }
    done_ = true;
    if (team_rank() == desc().root) {
      copy_bytes(desc().buf, acc_.data(), acc_.size());
      acc_.reset();
      mark_data_done(image);
    } else {
      const int p = team_size();
      send_stage(image, (shape_.parent(vrank()) + desc().root) % p, 0,
                 std::move(acc_));
    }
  }

  TreeShape shape_;
  bool started_ = false;
  bool done_ = false;
  int expected_ = 0;
  int got_ = 0;
  net::SharedBytes acc_;
  std::vector<net::SharedBytes> pending_msgs_;
};

/// Binomial gather+release barrier rooted at team rank 0: zero-byte tokens
/// flow up the tree (stage 0); once the root holds its whole subtree it
/// releases back down (stage 1). The release is causally ordered after this
/// node's own up token, so it can never arrive before the up phase is done.
class TreeBarrierImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

  static constexpr int kStageUp = 0;
  static constexpr int kStageDown = 1;

 protected:
  void begin(Image& image) override {
    started_ = true;
    expected_ = static_cast<int>(
        binomial_children(team_rank(), team_size()).size());
    try_up(image);
    if (pending_release_) {
      release(image);
    }
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    if (msg.stage == kStageUp) {
      ++got_;
      if (started_) {
        try_up(image);
      }
    } else {
      pending_release_ = true;
      if (started_) {
        release(image);
      }
    }
  }

  bool role_done() const override { return started_ && released_; }

 private:
  void try_up(Image& image) {
    if (up_done_ || got_ < expected_) {
      return;
    }
    up_done_ = true;
    if (team_rank() == 0) {
      release(image);
    } else {
      send_stage(image, binomial_parent(team_rank()), kStageUp, {});
    }
  }

  void release(Image& image) {
    CAF2_ASSERT(up_done_, "tree barrier released before its subtree arrived");
    pending_release_ = false;
    released_ = true;
    for (int child : binomial_children(team_rank(), team_size())) {
      send_stage(image, child, kStageDown, {});
    }
    mark_data_done(image);
  }

  bool started_ = false;
  bool up_done_ = false;
  bool released_ = false;
  bool pending_release_ = false;
  int expected_ = 0;
  int got_ = 0;
};

}  // namespace

std::unique_ptr<CollImplBase> make_tree_barrier_impl(rt::CollKey key,
                                                     CollDesc desc) {
  return std::make_unique<TreeBarrierImpl>(key, std::move(desc));
}

std::unique_ptr<CollImplBase> make_tree_impl(rt::CollKey key, CollDesc desc) {
  const TreeShape shape = tree_shape(desc.algorithm);
  switch (desc.kind) {
    case CollKind::kBroadcast:
      return std::make_unique<TreeBroadcastImpl>(key, std::move(desc), shape);
    case CollKind::kReduce:
      return std::make_unique<TreeReduceImpl>(key, std::move(desc), shape);
    default:
      throw UsageError("tree schedule: unsupported collective kind");
  }
}

}  // namespace caf2::ops::detail
