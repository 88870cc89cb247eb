#include "ops/collectives.hpp"

#include <bit>

#include "obs/obs.hpp"
#include "ops/coll_algo.hpp"
#include "ops/coll_detail.hpp"
#include "runtime/internal.hpp"
#include "runtime/runtime.hpp"
#include "support/serialize.hpp"

namespace caf2::ops {

namespace detail {

using rt::CollKey;
using rt::CollStageMsg;
using rt::Image;

int binomial_parent(int vr) { return vr & (vr - 1); }

std::vector<int> binomial_children(int vr, int p) {
  std::vector<int> children;
  const unsigned low = vr == 0 ? ~0u : static_cast<unsigned>(vr & -vr);
  for (unsigned bit = 1; bit < low && vr + static_cast<int>(bit) < p;
       bit <<= 1) {
    children.push_back(vr + static_cast<int>(bit));
  }
  return children;
}

int ceil_log2(int p) {
  return p <= 1 ? 0 : std::bit_width(static_cast<unsigned>(p - 1));
}

int knomial_parent(int vr, int k) {
  if (vr == 0) {
    return -1;
  }
  int pw = 1;
  while ((vr / pw) % k == 0) {
    pw *= k;
  }
  return vr - ((vr / pw) % k) * pw;
}

std::vector<int> knomial_children(int vr, int p, int k) {
  std::vector<int> children;
  // low = k^(position of vr's lowest nonzero base-k digit); children live
  // at every strictly lower digit position. Root 0 has no nonzero digit, so
  // every position below log_k(p) applies.
  long low = p;
  if (vr != 0) {
    low = 1;
    while ((vr / low) % k == 0) {
      low *= k;
    }
  }
  for (long pw = 1; pw < low && pw < p; pw *= k) {
    for (int j = 1; j < k; ++j) {
      const long child = vr + j * pw;
      if (child < p) {
        children.push_back(static_cast<int>(child));
      }
    }
  }
  return children;
}

CollImplBase::CollImplBase(CollKey key, CollDesc desc)
    : key_(key), desc_(std::move(desc)) {}

void CollImplBase::on_stage(Image& image, CollStageMsg&& msg) {
  CAF2_ASSERT(begun_, "collective stage delivered before begin() returned");
  handle(image, std::move(msg));
  try_complete(image);
}

void CollImplBase::start(Image& image, const net::FinishKey& finish,
                         rt::ImplicitOpPtr op) {
  finish_ = finish;
  op_ = std::move(op);
  begin_us_ = image.runtime().engine().now();
  begin(image);
  begun_ = true;
  try_complete(image);
}

void CollImplBase::send_stage(Image& image, int to_team_rank, int stage,
                              net::SharedBytes data) {
  net::Message message;
  message.header = image.make_header(desc_.team.world_rank(to_team_rank),
                                     rt::kHandlerCollective, finish_);
  WriteArchive archive;
  archive.write(key_);
  archive.write(static_cast<std::int32_t>(stage));
  archive.write(static_cast<std::int32_t>(desc_.team.rank()));
  message.payload = archive.take();
  message.bulk = std::move(data);

  ++pending_stage_;
  ++pending_ack_;
  Image* img = &image;
  net::SendCallbacks callbacks;
  callbacks.on_staged = [this, img] {
    --pending_stage_;
    try_complete(*img);
    img->runtime().engine().unblock(img->rank());
  };
  callbacks.on_acked = [this, img] {
    --pending_ack_;
    try_complete(*img);
    img->runtime().engine().unblock(img->rank());
  };
  image.send_message(std::move(message), std::move(callbacks));
}

void CollImplBase::mark_data_done(Image& image, bool after_stages) {
  if (after_stages && pending_stage_ > 0) {
    data_after_stages_ = true;
    return;
  }
  if (data_done_) {
    return;
  }
  data_done_ = true;
  if (op_) {
    op_->data_complete = true;
  }
  if (desc_.src_done.valid()) {
    rt::post_event_raw(image.runtime(), image.rank(), desc_.src_done);
  }
  image.runtime().engine().unblock(image.rank());
}

void CollImplBase::try_complete(Image& image) {
  if (data_after_stages_ && pending_stage_ == 0) {
    data_after_stages_ = false;
    mark_data_done(image);
  }
  if (op_done_ || !role_done() || pending_stage_ > 0 || pending_ack_ > 0) {
    return;
  }
  // Local operation completion: role complete and every stage this image
  // sent has been injected and acknowledged.
  op_done_ = true;
  if (!data_done_) {
    mark_data_done(image);
  }
  if (op_) {
    op_->op_complete = true;
  }
  if (desc_.local_done.valid()) {
    rt::post_event_raw(image.runtime(), image.rank(), desc_.local_done);
  }
  // Satellite: every collective stamps its resolved schedule into the span
  // label ("kind/algorithm"), so trace exports show which schedule ran.
  // Appending a span never schedules events, so obs on/off stays
  // schedule-identical.
  if (obs::Recorder* const rec = image.runtime().observer()) {
    rec->op_span(image.rank(), obs::SpanKind::kCollective, begin_us_,
                 image.runtime().engine().now(), desc_.bytes,
                 static_cast<std::uint64_t>(team_size()), -1,
                 coll_span_label(desc_.kind, desc_.algorithm));
  }
  image.runtime().engine().unblock(image.rank());
  erasable_ = true;
}

}  // namespace detail

namespace {

using detail::binomial_children;
using detail::binomial_parent;
using detail::ceil_log2;
using detail::CollImplBase;
using detail::copy_bytes;
using rt::CollKey;
using rt::CollStageMsg;
using rt::Image;

/// Dissemination barrier: round k sends a token to (rank + 2^k) mod p and
/// waits for the token from (rank - 2^k) mod p.
class DisseminationBarrierImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    rounds_ = ceil_log2(team_size());
    got_.resize(rounds_);
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    pump(image);
  }

  bool role_done() const override { return round_ == rounds_; }

 private:
  void pump(Image& image) {
    const int p = team_size();
    while (round_ < rounds_) {
      if (!sent_current_) {
        send_stage(image, (team_rank() + (1 << round_)) % p, round_, {});
        sent_current_ = true;
      }
      if (!got_.has(round_)) {
        return;
      }
      ++round_;
      sent_current_ = false;
    }
    mark_data_done(image);
  }

  int rounds_ = 0;
  int round_ = 0;
  bool sent_current_ = false;
  detail::StageBuffer got_;
};

/// Binomial gather toward desc().root. Each interior node accumulates its
/// whole subtree's contributions (tagged with their team ranks) before
/// sending one combined message to its parent. The subtree of relative rank
/// vr covers [vr, vr + lowbit(vr)) clipped to p.
class BinomialGatherImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    chunks_.emplace_back(team_rank(),
                         std::vector<std::uint8_t>(
                             static_cast<const std::uint8_t*>(desc().buf),
                             static_cast<const std::uint8_t*>(desc().buf) +
                                 desc().bytes));
    if (team_rank() != desc().root) {
      mark_data_done(image);  // contribution captured
    }
    try_advance(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    ReadArchive archive(msg.data);
    const auto count = archive.read<std::int32_t>();
    for (int i = 0; i < count; ++i) {
      const auto rank = archive.read<std::int32_t>();
      std::vector<std::uint8_t> chunk(desc().bytes);
      archive.read_bytes(chunk.data(), chunk.size());
      chunks_.emplace_back(rank, std::move(chunk));
    }
    try_advance(image);
  }

  bool role_done() const override { return done_; }

 private:
  int vrank() const {
    const int p = team_size();
    return (team_rank() - desc().root + p) % p;
  }

  int subtree_size() const {
    const int p = team_size();
    const int vr = vrank();
    const int low = vr == 0 ? p : (vr & -vr);
    return std::min(low, p - vr);
  }

  void try_advance(Image& image) {
    if (done_ || static_cast<int>(chunks_.size()) < subtree_size()) {
      return;
    }
    done_ = true;
    if (team_rank() == desc().root) {
      auto* out = static_cast<std::uint8_t*>(desc().buf2);
      for (const auto& [rank, chunk] : chunks_) {
        copy_bytes(out + static_cast<std::size_t>(rank) * desc().bytes,
                   chunk.data(), chunk.size());
      }
      mark_data_done(image);
    } else {
      WriteArchive archive;
      archive.write(static_cast<std::int32_t>(chunks_.size()));
      for (const auto& [rank, chunk] : chunks_) {
        archive.write(static_cast<std::int32_t>(rank));
        archive.write_bytes(chunk.data(), chunk.size());
      }
      const int p = team_size();
      send_stage(image, (binomial_parent(vrank()) + desc().root) % p, 0,
                 net::SharedBytes::copy_of(archive.bytes()));
    }
  }

  bool done_ = false;
  std::vector<std::pair<int, std::vector<std::uint8_t>>> chunks_;
};

/// Binomial scatter from desc().root: each node receives the packed chunks
/// of its whole subtree and forwards sub-ranges to its children.
class BinomialScatterImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    if (team_rank() != desc().root) {
      return;
    }
    // Pack [rank, chunk] pairs for the whole team from the send buffer.
    const auto* in = static_cast<const std::uint8_t*>(desc().buf);
    const std::size_t chunk = desc().bytes2;
    std::vector<std::pair<int, std::vector<std::uint8_t>>> all;
    all.reserve(static_cast<std::size_t>(team_size()));
    for (int r = 0; r < team_size(); ++r) {
      all.emplace_back(r, std::vector<std::uint8_t>(
                              in + static_cast<std::size_t>(r) * chunk,
                              in + static_cast<std::size_t>(r + 1) * chunk));
    }
    distribute(image, all);
    mark_data_done(image, /*after_stages=*/true);
    have_chunk_ = true;
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    ReadArchive archive(msg.data);
    const auto count = archive.read<std::int32_t>();
    std::vector<std::pair<int, std::vector<std::uint8_t>>> mine;
    mine.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      const auto rank = archive.read<std::int32_t>();
      std::vector<std::uint8_t> chunk(desc().bytes2);
      archive.read_bytes(chunk.data(), chunk.size());
      if (rank == team_rank()) {
        copy_bytes(desc().buf2, chunk.data(), chunk.size());
      } else {
        mine.emplace_back(rank, std::move(chunk));
      }
    }
    distribute(image, mine);
    have_chunk_ = true;
    mark_data_done(image);
  }

  bool role_done() const override { return have_chunk_; }

 private:
  int vrank() const {
    const int p = team_size();
    return (team_rank() - desc().root + p) % p;
  }

  void distribute(
      Image& image,
      const std::vector<std::pair<int, std::vector<std::uint8_t>>>& all) {
    const int p = team_size();
    for (int child : binomial_children(vrank(), p)) {
      const int low = child & -child;
      const int child_end = std::min(child + low, p);
      WriteArchive archive;
      std::int32_t count = 0;
      for (const auto& [rank, chunk] : all) {
        const int vr = (rank - desc().root + p) % p;
        if (vr >= child && vr < child_end) {
          ++count;
        }
      }
      archive.write(count);
      for (const auto& [rank, chunk] : all) {
        const int vr = (rank - desc().root + p) % p;
        if (vr >= child && vr < child_end) {
          archive.write(static_cast<std::int32_t>(rank));
          archive.write_bytes(chunk.data(), chunk.size());
        }
      }
      send_stage(image, (child + desc().root) % p, 0,
                 net::SharedBytes::copy_of(archive.bytes()));
    }
    if (team_rank() == desc().root) {
      const auto* in = static_cast<const std::uint8_t*>(desc().buf);
      copy_bytes(desc().buf2,
                 in + static_cast<std::size_t>(team_rank()) * desc().bytes2,
                 desc().bytes2);
    }
  }

  bool have_chunk_ = false;
};

/// Hillis-Steele inclusive scan: in round k, rank r sends its running
/// prefix to r + 2^k and folds in the prefix received from r - 2^k. After
/// ceil(log2 p) rounds the accumulator holds the prefix over ranks [0, r].
/// The exclusive variant ships the prefix *before* folding in its own
/// contribution.
class ScanImpl final : public CollImplBase {
 public:
  using CollImplBase::CollImplBase;

 protected:
  void begin(Image& image) override {
    rounds_ = ceil_log2(team_size());
    got_.resize(rounds_);
    acc_.assign(static_cast<const std::uint8_t*>(desc().buf),
                static_cast<const std::uint8_t*>(desc().buf) + desc().bytes);
    pump(image);
  }

  void handle(Image& image, CollStageMsg&& msg) override {
    got_.store(msg.stage, std::move(msg.data));
    pump(image);
  }

  bool role_done() const override { return round_ == rounds_; }

 private:
  void pump(Image& image) {
    const int p = team_size();
    while (round_ < rounds_) {
      const int dist = 1 << round_;
      if (!sent_current_) {
        if (team_rank() + dist < p) {
          send_stage(image, team_rank() + dist, round_,
                     net::SharedBytes::copy_of(acc_.data(), acc_.size()));
        }
        sent_current_ = true;
      }
      if (team_rank() - dist >= 0) {
        if (!got_.has(round_)) {
          return;  // wait for this round's prefix
        }
        net::SharedBytes& incoming = got_.at(round_);
        // carry_ = reduction over strictly-lower ranks (identity-free:
        // tracked with a has_carry_ flag instead of requiring an identity
        // element).
        if (!has_carry_) {
          carry_.assign(incoming.data(), incoming.data() + incoming.size());
          has_carry_ = true;
        } else {
          desc().reducer.combine(carry_.data(), incoming.data(),
                                 carry_.size() / desc().reducer.elem_size);
        }
        // Fold the incoming prefix into the running accumulator too: the
        // accumulator is what later rounds forward.
        desc().reducer.combine(acc_.data(), incoming.data(),
                               acc_.size() / desc().reducer.elem_size);
        incoming.reset();
      }
      ++round_;
      sent_current_ = false;
    }
    // Done: write the result into the user buffer.
    if (desc().exclusive_scan) {
      if (has_carry_) {
        copy_bytes(desc().buf, carry_.data(), carry_.size());
      }
      // Rank 0's buffer is left unchanged (no identity element available).
    } else {
      copy_bytes(desc().buf, acc_.data(), acc_.size());
    }
    mark_data_done(image);
  }

  int rounds_ = 0;
  int round_ = 0;
  bool sent_current_ = false;
  bool has_carry_ = false;
  std::vector<std::uint8_t> acc_;
  std::vector<std::uint8_t> carry_;
  detail::StageBuffer got_;
};

}  // namespace

namespace detail {

std::unique_ptr<CollImplBase> make_dissemination_barrier(CollKey key,
                                                         CollDesc desc) {
  return std::make_unique<DisseminationBarrierImpl>(key, std::move(desc));
}

std::unique_ptr<CollImplBase> make_binomial_gather(CollKey key,
                                                   CollDesc desc) {
  return std::make_unique<BinomialGatherImpl>(key, std::move(desc));
}

std::unique_ptr<CollImplBase> make_binomial_scatter(CollKey key,
                                                    CollDesc desc) {
  return std::make_unique<BinomialScatterImpl>(key, std::move(desc));
}

std::unique_ptr<CollImplBase> make_scan(CollKey key, CollDesc desc) {
  return std::make_unique<ScanImpl>(key, std::move(desc));
}

}  // namespace detail

void start_collective(CollDesc desc) {
  Image& image = Image::current();
  CAF2_REQUIRE(desc.team.valid(), "collective on an invalid team");
  CAF2_REQUIRE(desc.team.rank_of_world(image.rank()) == desc.team.rank(),
               "collective caller is not a member of the team");

  // Resolve kAuto to a concrete schedule. Every resolution input must be
  // team-uniform so all members independently pick the same schedule and
  // the stage machinery stays in lockstep: kind and team size trivially
  // are; for the payload we use the per-member chunk (bytes2) for scatter
  // kinds — desc.bytes is root-only there — and the contribution size
  // (bytes) everywhere else.
  const std::size_t uniform_bytes =
      (desc.kind == CollKind::kScatter || desc.kind == CollKind::kScatterv)
          ? desc.bytes2
          : desc.bytes;
  desc.algorithm = resolve_algorithm(desc.kind, desc.algorithm,
                                     desc.team.size(), uniform_bytes);

  const bool implicit =
      !desc.src_done.valid() && !desc.local_done.valid();
  rt::ImplicitOpPtr op;
  net::FinishKey finish{};
  if (implicit) {
    bool reads = false;
    bool writes = false;
    detail::classify(desc, reads, writes);
    op = image.register_implicit(reads, writes, "collective");
    finish = image.current_finish();
    if (finish.valid()) {
      const auto finish_team = image.find_team(finish.team);
      CAF2_ASSERT(finish_team != nullptr, "finish team unknown");
      CAF2_REQUIRE(Team(finish_team).contains_team(desc.team),
                   "collective team is not a subset of the enclosing "
                   "finish team");
    }
  }

  const CollKey key{desc.team.id(), image.next_coll_seq(desc.team.id())};
  rt::PendingColl& pending = image.coll_state(key);
  CAF2_ASSERT(pending.op == nullptr, "collective sequence collision");
  const detail::CollFactory make =
      detail::find_factory(desc.kind, desc.algorithm);
  CAF2_ASSERT(make != nullptr, "collective schedule resolved to no pattern");
  auto impl = make(key, std::move(desc));
  detail::CollImplBase* raw = impl.get();
  pending.op = std::move(impl);
  raw->start(image, finish, std::move(op));

  auto buffered = std::move(pending.buffered);
  pending.buffered.clear();
  for (auto& msg : buffered) {
    raw->on_stage(image, std::move(msg));
  }
  if (raw->finished()) {
    image.erase_coll_state(key);
  }
}

void install_collective_handlers(rt::Runtime& runtime) {
  runtime.set_handler(
      rt::kHandlerCollective, [](Image& image, net::Message&& message) {
        ReadArchive archive(message.payload);
        const auto key = archive.read<CollKey>();
        const auto stage = archive.read<std::int32_t>();
        const auto from = archive.read<std::int32_t>();
        CollStageMsg msg;
        msg.stage = stage;
        msg.from_team_rank = from;
        msg.data = std::move(message.bulk);

        rt::PendingColl& pending = image.coll_state(key);
        if (pending.op != nullptr) {
          pending.op->on_stage(image, std::move(msg));
          if (pending.op->finished()) {
            image.erase_coll_state(key);
          }
        } else {
          pending.buffered.push_back(std::move(msg));
        }
      });
}

}  // namespace caf2::ops

namespace caf2 {

void barrier_async(const Team& team, CollOptions options) {
  ops::CollDesc desc;
  desc.kind = ops::CollKind::kBarrier;
  desc.team = team;
  desc.algorithm = options.algorithm;
  desc.src_done = options.src_done;
  desc.local_done = options.local_done;
  ops::start_collective(desc);
}

void team_barrier(const Team& team) {
  rt::Image& image = rt::Image::current();
  obs::Recorder* const rec = image.runtime().observer();
  const double obs_begin =
      rec != nullptr ? image.runtime().engine().now() : 0.0;
  {
    // Scope the completion wait so it is not misclassified as event-wait
    // time: a barrier wait blocked on the wire lands in the network bucket,
    // everything else in "other".
    obs::BlameScope blame(rec, image.rank(), obs::Blame::kOther);
    Event done;
    barrier_async(team, {.local_done = done.handle()});
    done.wait();
  }
  if (rec != nullptr) {
    rec->op_span(image.rank(), obs::SpanKind::kCollective, obs_begin,
                 image.runtime().engine().now(), 0, 0, -1, "barrier");
  }
}

}  // namespace caf2
