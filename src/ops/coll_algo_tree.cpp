#include <memory>
#include <vector>

#include "ops/coll_detail.hpp"
#include "runtime/runtime.hpp"
#include "support/error.hpp"

/// \file coll_algo_tree.cpp
/// The tree pattern (DESIGN.md §4.13): one rooted tree with an optional up
/// phase (children combine into their parent) and an optional down phase
/// (parents forward the result to their children). Broadcast is down only,
/// reduce is up only, and the binomial allreduce and the binomial barrier
/// (zero-byte tokens up, release down) run both. The allreduce is one pass
/// up a reduction tree to team rank 0 and one down a broadcast tree, the
/// structure the paper's critical-path bound assumes. The tree is binomial, radix-4 k-nomial (shallower: depth
/// log_4 p, at the cost of up to three sends per level per node) or, for
/// broadcast, a ring chain (p-1 hops: the degenerate pipeline schedule).

namespace caf2::ops::detail {

namespace {

using rt::CollStageMsg;
using rt::Image;

/// A rooted tree over relative ranks (root 0): all that the binomial,
/// k-nomial and ring-chain schedules differ in.
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

/// Tree collective rooted at desc().root (team rank 0 for allreduce and
/// barrier, whose descriptors leave it at its default). Payload ownership:
/// the accumulator is the stage buffer itself, moved into the message to
/// the parent; the result buffer (the root's accumulator, or the broadcast
/// root's one snapshot or CollDesc::shared buffer) is forwarded unchanged
/// down every edge, and each image drops its reference as soon as it has
/// forwarded — unless CollDesc::shared asks it to keep the buffer.
class TreeImpl final : public CollImplBase {
 public:
  TreeImpl(rt::CollKey key, CollDesc desc)
      : CollImplBase(key, std::move(desc)),
        shape_(tree_shape(this->desc().algorithm)),
        up_(this->desc().kind != CollKind::kBroadcast),
        down_(this->desc().kind != CollKind::kReduce) {}

 protected:
  void begin(Image& image) override {
    const bool root = team_rank() == desc().root;
    if (!up_) {
      if (root) {
        deliver(image, desc().shared != nullptr
                           ? *desc().shared
                           : net::SharedBytes::copy_of(desc().buf,
                                                       desc().bytes));
      }
      return;
    }
    acc_ = net::SharedBytes::copy_of(desc().buf, desc().bytes);
    expected_ =
        static_cast<int>(shape_.children(vrank(), team_size()).size());
    if (!down_ && !root) {
      mark_data_done(image);  // inputs captured; user buffer reusable
    }
    try_up(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    if (msg.stage == down_stage()) {
      deliver(image, std::move(msg.data));
      return;
    }
    CAF2_ASSERT(msg.data.size() == desc().bytes, "tree: up-stage size mismatch");
    if (desc().bytes > 0) {  // barrier tokens carry nothing to combine
      const Reducer& reducer = desc().reducer;
      reducer.combine(acc_.mutable_data(), msg.data.data(),
                      desc().bytes / reducer.elem_size);
    }
    ++got_;
    try_up(image);
  }

  bool role_done() const override { return done_; }

 private:
  static constexpr int kStageUp = 0;
  int down_stage() const { return up_ ? 1 : 0; }

  int vrank() const {
    const int p = team_size();
    return (team_rank() - desc().root + p) % p;
  }

  void try_up(Image& image) {
    if (up_done_ || got_ < expected_) {
      return;
    }
    up_done_ = true;
    if (team_rank() == desc().root) {
      deliver(image, std::move(acc_));
    } else {
      done_ = !down_;
      const int p = team_size();
      send_stage(image, (shape_.parent(vrank()) + desc().root) % p, kStageUp,
                 std::move(acc_));
    }
  }

  /// The result reached this image: store it, forward it down the tree.
  void deliver(Image& image, net::SharedBytes result) {
    // The broadcast root's result is a snapshot of its own buffer; its data
    // completes once the forwarded stages are injected.
    const bool source = !up_ && team_rank() == desc().root;
    CAF2_ASSERT(result.size() == desc().bytes, "tree: result size mismatch");
    if (!source && desc().shared != nullptr) {
      *desc().shared = result;
    } else if (!source) {
      copy_bytes(desc().buf, result.data(), result.size());
    }
    done_ = true;
    if (down_) {
      const int p = team_size();
      for (int child : shape_.children(vrank(), p)) {
        send_stage(image, (child + desc().root) % p, down_stage(), result);
      }
    }
    mark_data_done(image, /*after_stages=*/source);
  }

  TreeShape shape_;
  bool up_;
  bool down_;
  bool up_done_ = false;
  bool done_ = false;
  int expected_ = 0;
  int got_ = 0;
  net::SharedBytes acc_;
};

}  // namespace

std::unique_ptr<CollImplBase> make_tree(rt::CollKey key, CollDesc desc) {
  return std::make_unique<TreeImpl>(key, std::move(desc));
}

}  // namespace caf2::ops::detail
