#include <memory>
#include <vector>

#include "ops/coll_detail.hpp"
#include "runtime/runtime.hpp"
#include "support/error.hpp"

/// \file coll_algo_ring.cpp
/// The ring pattern (DESIGN.md §4.13): one pipeline over p chunks that runs
/// a reduce-scatter phase, an allgather phase, or both. The ring allreduce
/// (both phases), reduce-scatter and allgather move ~2·bytes·(p-1)/p per
/// image regardless of team size — bandwidth-optimal — against the binomial
/// tree's log2(p)·bytes per hop, at the cost of p-1 latency steps; the
/// selection table exploits exactly this crossover. Incoming payloads are
/// buffered by stage number and pumped strictly in stage order.

namespace caf2::ops::detail {

namespace {

using rt::CollStageMsg;
using rt::Image;

/// Ring pipeline. Each step sends one chunk to r+1 and receives the chunk
/// before it from r-1. With o = 1 for allreduce and 0 otherwise:
///  - a reduce step s sends the partial sum of chunk (r+o-1-s) mod p and
///    folds in chunk (r+o-2-s) mod p, so after p-1 steps rank r owns the
///    fully reduced chunk (r+o) mod p;
///  - an allgather step s passes on chunk (r+o-s) mod p and stores chunk
///    (r+o-1-s) mod p. The chunk sent at step s+1 is the one received at
///    step s, so it forwards the received buffer instead of copying it.
/// Allreduce chunks split desc().bytes on reducer element boundaries, so
/// they may be empty when p exceeds the element count. The allgather works
/// in place in the receive buffer; the reducing kinds in a private copy of
/// the send buffer.
class RingImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    const CollDesc& d = desc();
    const int p = team_size();
    const bool allreduce = d.kind == CollKind::kAllreduce;
    reduce_steps_ = d.kind == CollKind::kAllgather ? 0 : p - 1;
    stages_ = reduce_steps_ + (d.kind == CollKind::kReduceScatter ? 0 : p - 1);
    got_.resize(stages_);
    owner_ = allreduce ? 1 : 0;
    unit_ = allreduce ? d.reducer.elem_size : 1;
    if (d.kind == CollKind::kAllgather) {
      total_ = d.bytes2;
      copy_bytes(chunk(team_rank()), d.buf, d.bytes);
    } else {
      total_ = d.bytes;
      acc_.assign(static_cast<const std::uint8_t*>(d.buf),
                  static_cast<const std::uint8_t*>(d.buf) + d.bytes);
    }
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    pump(image);
  }

  bool role_done() const override { return stage_ == stages_; }

 private:
  std::uint8_t* work() {
    return desc().kind == CollKind::kAllgather
               ? static_cast<std::uint8_t*>(desc().buf2)
               : acc_.data();
  }
  std::size_t chunk_begin(int index) const {
    return total_ / unit_ * static_cast<std::size_t>(index) /
           static_cast<std::size_t>(team_size()) * unit_;
  }
  std::size_t chunk_bytes(int index) const {
    return chunk_begin(index + 1) - chunk_begin(index);
  }
  std::uint8_t* chunk(int index) { return work() + chunk_begin(index); }

  void pump(Image& image) {
    const int p = team_size();
    const int r = team_rank();
    const auto mod = [p](int x) { return ((x % p) + p) % p; };
    while (stage_ < stages_) {
      const bool reducing = stage_ < reduce_steps_;
      const int step = stage_ - (reducing ? 0 : reduce_steps_);
      const int send_chunk = mod(r + owner_ - step - (reducing ? 1 : 0));
      const int recv_chunk = mod(send_chunk - 1);
      if (!sent_current_) {
        send_stage(image, (r + 1) % p, stage_,
                   reducing || step == 0
                       ? net::SharedBytes::copy_of(chunk(send_chunk),
                                                   chunk_bytes(send_chunk))
                       : std::move(forward_));
        sent_current_ = true;
      }
      if (!got_.has(stage_)) {
        return;
      }
      net::SharedBytes& incoming = got_.at(stage_);
      CAF2_ASSERT(incoming.size() == chunk_bytes(recv_chunk),
                  "ring chunk size mismatch");
      if (reducing) {
        desc().reducer.combine(chunk(recv_chunk), incoming.data(),
                               incoming.size() / desc().reducer.elem_size);
        incoming.reset();
      } else {
        copy_bytes(chunk(recv_chunk), incoming.data(), incoming.size());
        forward_ = std::move(incoming);
      }
      ++stage_;
      sent_current_ = false;
    }
    forward_.reset();
    switch (desc().kind) {
      case CollKind::kAllreduce:
        copy_bytes(desc().buf, acc_.data(), acc_.size());
        mark_data_done(image);
        break;
      case CollKind::kReduceScatter:
        copy_bytes(desc().buf2, chunk(r), chunk_bytes(r));
        mark_data_done(image);
        break;
      default:  // allgather: the result is already in place
        mark_data_done(image, /*after_stages=*/true);
    }
  }

  int stage_ = 0;
  int stages_ = 0;
  int reduce_steps_ = 0;
  int owner_ = 0;              ///< o: chunk offset owned after the reduce phase
  std::size_t total_ = 0;      ///< bytes split into p chunks
  std::size_t unit_ = 1;       ///< chunk boundaries fall on multiples of this
  bool sent_current_ = false;
  std::vector<std::uint8_t> acc_;
  net::SharedBytes forward_;   ///< allgather chunk received at the last step
  StageBuffer got_;
};

}  // namespace

std::unique_ptr<CollImplBase> make_ring(rt::CollKey key, CollDesc desc) {
  return std::make_unique<RingImpl>(key, std::move(desc));
}

}  // namespace caf2::ops::detail
