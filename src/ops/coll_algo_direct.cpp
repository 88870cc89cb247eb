#include <memory>
#include <numeric>
#include <vector>

#include "ops/coll_detail.hpp"
#include "runtime/runtime.hpp"
#include "support/error.hpp"

/// \file coll_algo_direct.cpp
/// The direct-exchange pattern (DESIGN.md §4.13): every pair that must
/// exchange data does so with one message — p-1 sends or receives at the
/// busiest rank, no intermediate hops. Latency-optimal for tiny teams and
/// the only schedule whose message sizes can differ per pair, which is why
/// the variable-count collectives (gatherv / scatterv / alltoallv) run
/// here. Fixed-count gather, scatter and alltoall are the same exchange
/// with uniform blocks; allgather sends one block to everyone, and
/// reduce-scatter folds its arrivals instead of placing them. Zero-byte
/// blocks are still sent: receivers complete by *counting* their arrivals,
/// which keeps completion deterministic without a separate handshake for
/// empty pairs.

namespace caf2::ops::detail {

namespace {

using rt::CollStageMsg;
using rt::Image;

/// Per-peer byte extents in a buffer: uniform blocks (`size` bytes, peer r
/// at r * `stride`; stride 0 gives every peer the whole buffer), or
/// variable blocks laid out by a prefix sum over per-peer counts, built
/// once.
class Extents {
 public:
  Extents() = default;
  Extents(std::size_t size, std::size_t stride)
      : size_(size), stride_(stride) {}
  explicit Extents(const std::vector<std::size_t>& counts)
      : prefix_(counts.size() + 1, 0) {
    std::partial_sum(counts.begin(), counts.end(), prefix_.begin() + 1);
  }

  std::size_t offset(int r) const {
    return prefix_.empty() ? static_cast<std::size_t>(r) * stride_
                           : prefix_[static_cast<std::size_t>(r)];
  }
  std::size_t size(int r) const {
    return prefix_.empty() ? size_
                           : prefix_[static_cast<std::size_t>(r) + 1] -
                                 prefix_[static_cast<std::size_t>(r)];
  }
  /// Every peer's block is the same bytes: one snapshot serves them all.
  bool shared() const { return prefix_.empty() && stride_ == 0; }

 private:
  std::size_t size_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::size_t> prefix_;
};

/// Direct exchange. Gather kinds send to the root, scatter kinds from it,
/// and every other kind exchanges among all members; sends go out in
/// team-rank order. Send blocks come from desc().buf (out_), arrivals land
/// in desc().buf2 (in_), and the image's own block moves locally. Local
/// data completion waits for every arrival and for the injection of every
/// send.
class DirectImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    const CollDesc& d = desc();
    const int p = team_size();
    const int me = team_rank();
    const bool root = me == d.root;
    const bool to_root =
        d.kind == CollKind::kGather || d.kind == CollKind::kGatherv;
    const bool from_root =
        d.kind == CollKind::kScatter || d.kind == CollKind::kScatterv;
    const auto team = static_cast<std::size_t>(p);
    switch (d.kind) {
      case CollKind::kGather:
      case CollKind::kAllgather:
        out_ = {d.bytes, 0};
        in_ = {d.bytes, d.bytes};
        break;
      case CollKind::kGatherv:
        out_ = {d.bytes, 0};
        if (root) {
          in_ = Extents(d.counts);
        }
        break;
      case CollKind::kScatter:
      case CollKind::kReduceScatter:
        out_ = {d.bytes2, d.bytes2};
        in_ = {d.bytes2, 0};
        break;
      case CollKind::kScatterv:
        if (root) {
          out_ = Extents(d.counts);
        }
        in_ = {d.bytes2, 0};
        break;
      case CollKind::kAlltoall:
        out_ = {d.bytes / team, d.bytes / team};
        in_ = {d.bytes2 / team, d.bytes2 / team};
        break;
      case CollKind::kAlltoallv:
        out_ = Extents(d.counts);
        in_ = Extents(d.counts2);
        break;
      default:
        CAF2_ASSERT(false, "direct exchange: unsupported collective kind");
    }
    if (d.kind == CollKind::kReduceScatter) {
      acc_.resize(d.bytes2);  // arrivals fold here, not into buf2
    }
    expected_ = to_root ? (root ? p - 1 : 0)
                        : from_root ? (root ? 0 : 1) : p - 1;
    const bool sends = to_root ? !root : (!from_root || root);
    const auto* in = static_cast<const std::uint8_t*>(d.buf);
    const net::SharedBytes block =
        sends && out_.shared() ? net::SharedBytes::copy_of(in, d.bytes)
                               : net::SharedBytes{};
    for (int r = 0; r < p; ++r) {
      if (r == me) {
        if (root || !(to_root || from_root)) {
          CAF2_ASSERT(out_.size(me) == in_.size(me),
                      "direct exchange: local block sizes disagree");
          copy_bytes(target() + in_.offset(me), in + out_.offset(me),
                     out_.size(me));
        }
      } else if (sends && (!to_root || r == d.root)) {
        send_stage(image, r, 0,
                   out_.shared() ? block
                                 : net::SharedBytes::copy_of(
                                       in + out_.offset(r), out_.size(r)));
      }
    }
    maybe_done(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    const int from = msg.from_team_rank;
    const net::SharedBytes& data = msg.data;
    CAF2_ASSERT(data.size() == in_.size(from),
                "direct exchange: block size mismatch");
    if (desc().kind == CollKind::kReduceScatter) {
      desc().reducer.combine(acc_.data(), data.data(),
                             data.size() / desc().reducer.elem_size);
    } else {
      copy_bytes(target() + in_.offset(from), data.data(), data.size());
    }
    ++received_;
    maybe_done(image);
  }

  bool role_done() const override { return received_ == expected_; }

 private:
  std::uint8_t* target() {
    return desc().kind == CollKind::kReduceScatter
               ? acc_.data()
               : static_cast<std::uint8_t*>(desc().buf2);
  }

  void maybe_done(Image& image) {
    if (received_ < expected_) {
      return;
    }
    if (desc().kind == CollKind::kReduceScatter) {
      copy_bytes(desc().buf2, acc_.data(), acc_.size());
    }
    mark_data_done(image, /*after_stages=*/true);
  }

  Extents out_;
  Extents in_;
  int expected_ = 0;
  int received_ = 0;
  std::vector<std::uint8_t> acc_;
};

}  // namespace

std::unique_ptr<CollImplBase> make_direct(rt::CollKey key, CollDesc desc) {
  return std::make_unique<DirectImpl>(key, std::move(desc));
}

}  // namespace caf2::ops::detail
