#include <memory>
#include <numeric>
#include <vector>

#include "ops/coll_detail.hpp"
#include "runtime/runtime.hpp"
#include "support/error.hpp"

/// \file coll_algo_direct.cpp
/// Direct (linear pairwise) schedules (DESIGN.md §4.13): every pair that
/// must exchange data does so with one message — p-1 sends or receives at
/// the busiest rank, no intermediate hops. Latency-optimal for tiny teams
/// and the only schedule whose message sizes can differ per pair, which is
/// why the variable-count collectives (gatherv / scatterv / alltoallv)
/// live here. Zero-byte chunks are still sent: receivers complete by
/// *counting* p-1 arrivals, which keeps completion deterministic without a
/// separate handshake for empty pairs.

namespace caf2::ops::detail {

namespace {

using rt::CollStageMsg;
using rt::Image;

/// Byte displacement of rank \p r given per-rank byte counts.
std::size_t displacement(const std::vector<std::size_t>& counts, int r) {
  return std::accumulate(counts.begin(),
                         counts.begin() + static_cast<std::size_t>(r),
                         std::size_t{0});
}

/// Direct gather: every non-root sends its contribution straight to the
/// root; the root counts p-1 arrivals and places them by source rank.
class DirectGatherImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    started_ = true;
    if (team_rank() == desc().root) {
      copy_bytes(static_cast<std::uint8_t*>(desc().buf2) +
                     static_cast<std::size_t>(team_rank()) * desc().bytes,
                 desc().buf, desc().bytes);
      for (auto& [from, data] : pending_) {
        place(from, data);
      }
      pending_.clear();
      maybe_done(image);
    } else {
      send_stage(image, desc().root, 0,
                 net::SharedBytes::copy_of(desc().buf, desc().bytes));
      mark_data_done(image, /*after_stages=*/true);
    }
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    if (!started_) {
      pending_.emplace_back(msg.from_team_rank, std::move(msg.data));
      return;
    }
    place(msg.from_team_rank, msg.data);
    maybe_done(image);
  }

  bool role_done() const override {
    if (!started_) {
      return false;
    }
    return team_rank() == desc().root ? received_ == team_size() - 1 : true;
  }

 private:
  void place(int from, const net::SharedBytes& data) {
    CAF2_ASSERT(data.size() == desc().bytes, "direct gather size mismatch");
    copy_bytes(static_cast<std::uint8_t*>(desc().buf2) +
                   static_cast<std::size_t>(from) * desc().bytes,
               data.data(), data.size());
    ++received_;
  }

  void maybe_done(Image& image) {
    if (received_ == team_size() - 1) {
      mark_data_done(image);
    }
  }

  bool started_ = false;
  int received_ = 0;
  std::vector<std::pair<int, net::SharedBytes>> pending_;
};

/// Direct scatter: the root sends each member its chunk directly.
class DirectScatterImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    started_ = true;
    if (team_rank() == desc().root) {
      const auto* in = static_cast<const std::uint8_t*>(desc().buf);
      for (int r = 0; r < team_size(); ++r) {
        if (r == team_rank()) {
          copy_bytes(desc().buf2,
                     in + static_cast<std::size_t>(r) * desc().bytes2,
                     desc().bytes2);
        } else {
          send_stage(image, r, 0,
                     net::SharedBytes::copy_of(
                         in + static_cast<std::size_t>(r) * desc().bytes2,
                         desc().bytes2));
        }
      }
      have_chunk_ = true;
      mark_data_done(image, /*after_stages=*/true);
    } else if (pending_chunk_) {
      deliver(image);
    }
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    chunk_ = std::move(msg.data);
    pending_chunk_ = true;
    if (started_) {
      deliver(image);
    }
  }

  bool role_done() const override { return started_ && have_chunk_; }

 private:
  void deliver(Image& image) {
    CAF2_ASSERT(chunk_.size() == desc().bytes2,
                "direct scatter size mismatch");
    copy_bytes(desc().buf2, chunk_.data(), chunk_.size());
    have_chunk_ = true;
    pending_chunk_ = false;
    mark_data_done(image);
  }

  bool started_ = false;
  bool have_chunk_ = false;
  bool pending_chunk_ = false;
  net::SharedBytes chunk_;
};

/// Direct allgather: everyone sends its block to everyone else.
class DirectAllgatherImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    started_ = true;
    copy_bytes(static_cast<std::uint8_t*>(desc().buf2) +
                   static_cast<std::size_t>(team_rank()) * desc().bytes,
               desc().buf, desc().bytes);
    // One snapshot serves all p-1 destinations.
    const net::SharedBytes block =
        net::SharedBytes::copy_of(desc().buf, desc().bytes);
    for (int r = 0; r < team_size(); ++r) {
      if (r != team_rank()) {
        send_stage(image, r, 0, block);
      }
    }
    for (auto& [from, data] : pending_) {
      place(from, data);
    }
    pending_.clear();
    maybe_done(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    if (!started_) {
      pending_.emplace_back(msg.from_team_rank, std::move(msg.data));
      return;
    }
    place(msg.from_team_rank, msg.data);
    maybe_done(image);
  }

  bool role_done() const override {
    return started_ && received_ == team_size() - 1;
  }

 private:
  void place(int from, const net::SharedBytes& data) {
    CAF2_ASSERT(data.size() == desc().bytes,
                "direct allgather size mismatch");
    copy_bytes(static_cast<std::uint8_t*>(desc().buf2) +
                   static_cast<std::size_t>(from) * desc().bytes,
               data.data(), data.size());
    ++received_;
  }

  void maybe_done(Image& image) {
    if (received_ == team_size() - 1) {
      mark_data_done(image, /*after_stages=*/true);
    }
  }

  bool started_ = false;
  int received_ = 0;
  std::vector<std::pair<int, net::SharedBytes>> pending_;
};

/// Direct reduce-scatter: rank r sends chunk j of its contribution to rank
/// j and folds the p-1 incoming chunks into its own chunk r.
class DirectReduceScatterImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    started_ = true;
    const auto* in = static_cast<const std::uint8_t*>(desc().buf);
    acc_.assign(in + static_cast<std::size_t>(team_rank()) * desc().bytes2,
                in + static_cast<std::size_t>(team_rank() + 1) *
                         desc().bytes2);
    for (int r = 0; r < team_size(); ++r) {
      if (r != team_rank()) {
        send_stage(image, r, 0,
                   net::SharedBytes::copy_of(
                       in + static_cast<std::size_t>(r) * desc().bytes2,
                       desc().bytes2));
      }
    }
    for (auto& data : pending_) {
      fold(data);
    }
    pending_.clear();
    maybe_done(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    if (!started_) {
      pending_.push_back(std::move(msg.data));
      return;
    }
    fold(msg.data);
    maybe_done(image);
  }

  bool role_done() const override {
    return started_ && received_ == team_size() - 1;
  }

 private:
  void fold(const net::SharedBytes& data) {
    CAF2_ASSERT(data.size() == desc().bytes2,
                "direct reduce-scatter size mismatch");
    desc().reducer.combine(acc_.data(), data.data(),
                           data.size() / desc().reducer.elem_size);
    ++received_;
  }

  void maybe_done(Image& image) {
    if (received_ == team_size() - 1) {
      copy_bytes(desc().buf2, acc_.data(), acc_.size());
      mark_data_done(image, /*after_stages=*/true);
    }
  }

  bool started_ = false;
  int received_ = 0;
  std::vector<std::uint8_t> acc_;
  std::vector<net::SharedBytes> pending_;
};

/// Variable-count gather: desc().counts (root only) carries per-rank byte
/// counts; arrivals are placed at their prefix-sum displacement.
class GathervImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    started_ = true;
    if (team_rank() == desc().root) {
      copy_bytes(static_cast<std::uint8_t*>(desc().buf2) +
                     displacement(desc().counts, team_rank()),
                 desc().buf, desc().bytes);
      for (auto& [from, data] : pending_) {
        place(from, data);
      }
      pending_.clear();
      maybe_done(image);
    } else {
      send_stage(image, desc().root, 0,
                 net::SharedBytes::copy_of(desc().buf, desc().bytes));
      mark_data_done(image, /*after_stages=*/true);
    }
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    if (!started_) {
      pending_.emplace_back(msg.from_team_rank, std::move(msg.data));
      return;
    }
    place(msg.from_team_rank, msg.data);
    maybe_done(image);
  }

  bool role_done() const override {
    if (!started_) {
      return false;
    }
    return team_rank() == desc().root ? received_ == team_size() - 1 : true;
  }

 private:
  void place(int from, const net::SharedBytes& data) {
    CAF2_ASSERT(data.size() == desc().counts[static_cast<std::size_t>(from)],
                "gatherv: contribution does not match the root's count");
    copy_bytes(static_cast<std::uint8_t*>(desc().buf2) +
                   displacement(desc().counts, from),
               data.data(), data.size());
    ++received_;
  }

  void maybe_done(Image& image) {
    if (received_ == team_size() - 1) {
      mark_data_done(image);
    }
  }

  bool started_ = false;
  int received_ = 0;
  std::vector<std::pair<int, net::SharedBytes>> pending_;
};

/// Variable-count scatter: the root slices its buffer by desc().counts;
/// each member's receive extent must equal its chunk (zero included).
class ScattervImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    started_ = true;
    if (team_rank() == desc().root) {
      const auto* in = static_cast<const std::uint8_t*>(desc().buf);
      for (int r = 0; r < team_size(); ++r) {
        const std::size_t bytes = desc().counts[static_cast<std::size_t>(r)];
        const std::size_t offset = displacement(desc().counts, r);
        if (r == team_rank()) {
          copy_bytes(desc().buf2, in + offset, bytes);
        } else {
          send_stage(image, r, 0,
                     net::SharedBytes::copy_of(in + offset, bytes));
        }
      }
      have_chunk_ = true;
      mark_data_done(image, /*after_stages=*/true);
    } else if (pending_chunk_) {
      deliver(image);
    }
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    chunk_ = std::move(msg.data);
    pending_chunk_ = true;
    if (started_) {
      deliver(image);
    }
  }

  bool role_done() const override { return started_ && have_chunk_; }

 private:
  void deliver(Image& image) {
    CAF2_ASSERT(chunk_.size() == desc().bytes2,
                "scatterv: chunk does not match this rank's receive extent");
    copy_bytes(desc().buf2, chunk_.data(), chunk_.size());
    have_chunk_ = true;
    pending_chunk_ = false;
    mark_data_done(image);
  }

  bool started_ = false;
  bool have_chunk_ = false;
  bool pending_chunk_ = false;
  net::SharedBytes chunk_;
};

/// Variable-count all-to-all: desc().counts = per-destination send bytes,
/// desc().counts2 = per-source receive bytes; both packed by prefix sum.
/// Lifts alltoall's "extent divisible by team size" restriction.
class AlltoallvImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    started_ = true;
    const int r = team_rank();
    const auto* in = static_cast<const std::uint8_t*>(desc().buf);
    CAF2_ASSERT(desc().counts[static_cast<std::size_t>(r)] ==
                    desc().counts2[static_cast<std::size_t>(r)],
                "alltoallv: send/recv counts disagree for the local pair");
    copy_bytes(static_cast<std::uint8_t*>(desc().buf2) +
                   displacement(desc().counts2, r),
               in + displacement(desc().counts, r),
               desc().counts[static_cast<std::size_t>(r)]);
    for (int to = 0; to < team_size(); ++to) {
      if (to != r) {
        send_stage(image, to, 0,
                   net::SharedBytes::copy_of(
                       in + displacement(desc().counts, to),
                       desc().counts[static_cast<std::size_t>(to)]));
      }
    }
    for (auto& [from, data] : pending_) {
      place(from, data);
    }
    pending_.clear();
    maybe_done(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    if (!started_) {
      pending_.emplace_back(msg.from_team_rank, std::move(msg.data));
      return;
    }
    place(msg.from_team_rank, msg.data);
    maybe_done(image);
  }

  bool role_done() const override {
    return started_ && received_ == team_size() - 1;
  }

 private:
  void place(int from, const net::SharedBytes& data) {
    CAF2_ASSERT(data.size() ==
                    desc().counts2[static_cast<std::size_t>(from)],
                "alltoallv: arrival does not match the receive count");
    copy_bytes(static_cast<std::uint8_t*>(desc().buf2) +
                   displacement(desc().counts2, from),
               data.data(), data.size());
    ++received_;
  }

  void maybe_done(Image& image) {
    if (received_ == team_size() - 1) {
      mark_data_done(image, /*after_stages=*/true);
    }
  }

  bool started_ = false;
  int received_ = 0;
  std::vector<std::pair<int, net::SharedBytes>> pending_;
};

}  // namespace

std::unique_ptr<CollImplBase> make_direct_impl(rt::CollKey key,
                                               CollDesc desc) {
  switch (desc.kind) {
    case CollKind::kGather:
      return std::make_unique<DirectGatherImpl>(key, std::move(desc));
    case CollKind::kScatter:
      return std::make_unique<DirectScatterImpl>(key, std::move(desc));
    case CollKind::kAllgather:
      return std::make_unique<DirectAllgatherImpl>(key, std::move(desc));
    case CollKind::kReduceScatter:
      return std::make_unique<DirectReduceScatterImpl>(key, std::move(desc));
    case CollKind::kGatherv:
      return std::make_unique<GathervImpl>(key, std::move(desc));
    case CollKind::kScatterv:
      return std::make_unique<ScattervImpl>(key, std::move(desc));
    case CollKind::kAlltoallv:
      return std::make_unique<AlltoallvImpl>(key, std::move(desc));
    default:
      throw UsageError("direct schedule: unsupported collective kind");
  }
}

}  // namespace caf2::ops::detail
