#include <memory>
#include <vector>

#include "ops/coll_detail.hpp"
#include "runtime/runtime.hpp"
#include "support/error.hpp"

/// \file coll_algo_ring.cpp
/// Ring-family schedules (DESIGN.md §4.13). The ring allreduce /
/// reduce-scatter / allgather move ~2·bytes·(p-1)/p per image regardless of
/// team size — bandwidth-optimal — against the binomial tree's
/// log2(p)·bytes per hop, at the cost of p-1 latency steps; the selection
/// table exploits exactly this crossover. Channels are non-FIFO (delivery
/// jitter can reorder same-link messages), so every impl buffers incoming
/// payloads by stage number and pumps strictly in stage order.

namespace caf2::ops::detail {

namespace {

using rt::CollStageMsg;
using rt::Image;

/// Per-stage receive buffer: non-FIFO-safe storage keyed by stage number.
class StageBuffer {
 public:
  void store(int stage, net::SharedBytes&& data) {
    const auto index = static_cast<std::size_t>(stage);
    if (index >= has_.size()) {
      data_.resize(index + 1);
      has_.resize(index + 1, false);
    }
    data_[index] = std::move(data);
    has_[index] = true;
  }

  bool has(int stage) const {
    const auto index = static_cast<std::size_t>(stage);
    return index < has_.size() && has_[index];
  }

  net::SharedBytes& at(int stage) {
    return data_[static_cast<std::size_t>(stage)];
  }

 private:
  std::vector<net::SharedBytes> data_;
  std::vector<bool> has_;
};

/// Ring allreduce: a reduce-scatter phase (steps 0..p-2, rank r sends
/// accumulated chunk (r-s) mod p to r+1 and folds in chunk (r-1-s) mod p
/// from r-1, ending as the owner of fully-reduced chunk (r+1) mod p)
/// followed by an allgather phase (steps p-1..2p-3 circulating the owned
/// chunks). Chunks split desc().bytes on reducer element boundaries, so
/// they may be empty when p exceeds the element count. In the allgather
/// phase the chunk sent at step s+1 is the one received at step s, so it
/// forwards the received buffer instead of copying it back out of acc_.
class RingAllreduceImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    started_ = true;
    const int p = team_size();
    stages_ = 2 * (p - 1);
    acc_.resize(desc().bytes);
    copy_bytes(acc_.data(), desc().buf, desc().bytes);
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    if (started_) {
      pump(image);
    }
  }

  bool role_done() const override { return started_ && stage_ == stages_; }

 private:
  std::size_t elems() const {
    return desc().bytes / desc().reducer.elem_size;
  }
  std::size_t chunk_begin(int chunk) const {
    return elems() * static_cast<std::size_t>(chunk) /
           static_cast<std::size_t>(team_size()) * desc().reducer.elem_size;
  }
  std::size_t chunk_bytes(int chunk) const {
    return chunk_begin(chunk + 1) - chunk_begin(chunk);
  }

  void pump(Image& image) {
    const int p = team_size();
    const int r = team_rank();
    while (stage_ < stages_) {
      const bool reduce_phase = stage_ < p - 1;
      const int step = reduce_phase ? stage_ : stage_ - (p - 1);
      const int send_chunk =
          reduce_phase ? (r - step + p) % p : (r + 1 - step + 2 * p) % p;
      const int recv_chunk =
          reduce_phase ? (r - 1 - step + 2 * p) % p : (r - step + 2 * p) % p;
      if (!sent_current_) {
        send_stage(image, (r + 1) % p, stage_,
                   reduce_phase || step == 0
                       ? net::SharedBytes::copy_of(
                             acc_.data() + chunk_begin(send_chunk),
                             chunk_bytes(send_chunk))
                       : std::move(forward_));
        sent_current_ = true;
      }
      if (!got_.has(stage_)) {
        return;
      }
      net::SharedBytes& incoming = got_.at(stage_);
      CAF2_ASSERT(incoming.size() == chunk_bytes(recv_chunk),
                  "ring allreduce chunk size mismatch");
      if (reduce_phase) {
        desc().reducer.combine(acc_.data() + chunk_begin(recv_chunk),
                               incoming.data(),
                               incoming.size() / desc().reducer.elem_size);
        incoming.reset();
      } else {
        copy_bytes(acc_.data() + chunk_begin(recv_chunk), incoming.data(),
                   incoming.size());
        forward_ = std::move(incoming);
      }
      ++stage_;
      sent_current_ = false;
    }
    forward_.reset();
    copy_bytes(desc().buf, acc_.data(), acc_.size());
    mark_data_done(image);
  }

  bool started_ = false;
  bool sent_current_ = false;
  int stage_ = 0;
  int stages_ = 0;
  std::vector<std::uint8_t> acc_;
  net::SharedBytes forward_;  ///< last allgather-phase chunk received
  StageBuffer got_;
};

/// Ring allgather: rank r seeds slot r of the receive buffer with its own
/// block, then p-1 steps circulate blocks around the ring (step s: send
/// block (r-s) mod p to r+1, receive block (r-1-s) mod p from r-1). The
/// block sent at step s+1 is the one received at step s: it is forwarded,
/// not copied.
class RingAllgatherImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    started_ = true;
    stages_ = team_size() - 1;
    copy_bytes(slot(team_rank()), desc().buf, desc().bytes);
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    if (started_) {
      pump(image);
    }
  }

  bool role_done() const override { return started_ && stage_ == stages_; }

 private:
  std::uint8_t* slot(int rank) const {
    return static_cast<std::uint8_t*>(desc().buf2) +
           static_cast<std::size_t>(rank) * desc().bytes;
  }

  void pump(Image& image) {
    const int p = team_size();
    const int r = team_rank();
    while (stage_ < stages_) {
      if (!sent_current_) {
        send_stage(image, (r + 1) % p, stage_,
                   stage_ == 0
                       ? net::SharedBytes::copy_of(slot(r), desc().bytes)
                       : std::move(forward_));
        sent_current_ = true;
      }
      if (!got_.has(stage_)) {
        return;
      }
      net::SharedBytes& incoming = got_.at(stage_);
      CAF2_ASSERT(incoming.size() == desc().bytes,
                  "ring allgather block size mismatch");
      const int recv_block = (r - 1 - stage_ + 2 * p) % p;
      copy_bytes(slot(recv_block), incoming.data(), incoming.size());
      forward_ = std::move(incoming);
      ++stage_;
      sent_current_ = false;
    }
    forward_.reset();
    mark_data_done(image, /*after_stages=*/true);
  }

  bool started_ = false;
  bool sent_current_ = false;
  int stage_ = 0;
  int stages_ = 0;
  net::SharedBytes forward_;  ///< block received at the previous step
  StageBuffer got_;
};

/// Ring reduce-scatter: the reduce-scatter phase of the ring allreduce over
/// uniform chunks of desc().bytes2, indexed so that rank r ends owning
/// chunk r (step s: send accumulated chunk (r-1-s) mod p, fold in chunk
/// (r-2-s) mod p).
class RingReduceScatterImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    started_ = true;
    stages_ = team_size() - 1;
    acc_.resize(desc().bytes);
    copy_bytes(acc_.data(), desc().buf, desc().bytes);
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    if (started_) {
      pump(image);
    }
  }

  bool role_done() const override { return started_ && stage_ == stages_; }

 private:
  std::uint8_t* chunk(int index) {
    return acc_.data() + static_cast<std::size_t>(index) * desc().bytes2;
  }

  void pump(Image& image) {
    const int p = team_size();
    const int r = team_rank();
    while (stage_ < stages_) {
      if (!sent_current_) {
        const int send_chunk = (r - 1 - stage_ + 2 * p) % p;
        send_stage(image, (r + 1) % p, stage_,
                   net::SharedBytes::copy_of(chunk(send_chunk),
                                             desc().bytes2));
        sent_current_ = true;
      }
      if (!got_.has(stage_)) {
        return;
      }
      net::SharedBytes& incoming = got_.at(stage_);
      CAF2_ASSERT(incoming.size() == desc().bytes2,
                  "ring reduce-scatter chunk size mismatch");
      const int recv_chunk = (r - 2 - stage_ + 2 * p) % p;
      desc().reducer.combine(chunk(recv_chunk), incoming.data(),
                             incoming.size() / desc().reducer.elem_size);
      incoming.reset();
      ++stage_;
      sent_current_ = false;
    }
    copy_bytes(desc().buf2, chunk(r), desc().bytes2);
    mark_data_done(image);
  }

  bool started_ = false;
  bool sent_current_ = false;
  int stage_ = 0;
  int stages_ = 0;
  std::vector<std::uint8_t> acc_;
  StageBuffer got_;
};

}  // namespace

std::unique_ptr<CollImplBase> make_ring_impl(rt::CollKey key, CollDesc desc) {
  switch (desc.kind) {
    case CollKind::kAllreduce:
      return std::make_unique<RingAllreduceImpl>(key, std::move(desc));
    case CollKind::kAllgather:
      return std::make_unique<RingAllgatherImpl>(key, std::move(desc));
    case CollKind::kReduceScatter:
      return std::make_unique<RingReduceScatterImpl>(key, std::move(desc));
    default:
      throw UsageError("ring schedule: unsupported collective kind");
  }
}

}  // namespace caf2::ops::detail
