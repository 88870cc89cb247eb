#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "ops/collectives.hpp"
#include "runtime/runtime.hpp"

/// \file team_split.cpp
/// Team::split (paper §II-A) as an ordinary collective on the parent team:
/// a binomial gather brings every member's (color, key) to parent rank 0,
/// which groups the members, numbers the new teams and packs every new
/// member list into one buffer; a binomial broadcast forwards that buffer
/// unchanged, and each member's TeamData views its list inside it. Both
/// steps pin kBinomialTree, so a loaded selection table cannot change what a
/// split costs, and both complete through Events, charged to no finish
/// scope or cofence.

namespace caf2 {

namespace {

/// The broadcast buffer, in ints, for a parent team of p members: the
/// entry of parent rank r, words [4r, 4r + 4), holds r's new team id (-1
/// when r opted out), the offset and length of that team's member list, and
/// r's rank in it; the member lists follow from word 4p, one per new team
/// in ascending color order. 5p ints, whatever the colors.
constexpr int kEntryWords = 4;

std::size_t layout_bytes(int parent_size) {
  return static_cast<std::size_t>(kEntryWords + 1) *
         static_cast<std::size_t>(parent_size) * sizeof(int);
}

/// Root side: group (color, key) pairs, indexed by parent rank, into the
/// new teams and pack the buffer.
net::SharedBytes pack_layout(rt::Image& root, std::span<const int> parent,
                             std::span<const int> color_key) {
  const int p = static_cast<int>(parent.size());
  // color -> [(key, parent rank)]
  std::map<int, std::vector<std::pair<int, int>>> groups;
  for (int r = 0; r < p; ++r) {
    const auto at = 2 * static_cast<std::size_t>(r);
    if (color_key[at] >= 0) {
      groups[color_key[at]].emplace_back(color_key[at + 1], r);
    }
  }
  std::vector<int> words(layout_bytes(p) / sizeof(int), -1);
  int id = root.number_teams(static_cast<int>(groups.size()));
  int list = kEntryWords * p;
  for (auto& [color, members] : groups) {
    (void)color;
    std::sort(members.begin(), members.end());
    const int size = static_cast<int>(members.size());
    for (int rank = 0; rank < size; ++rank) {
      const int r = members[static_cast<std::size_t>(rank)].second;
      int* entry = &words[static_cast<std::size_t>(kEntryWords * r)];
      entry[0] = id;
      entry[1] = list;
      entry[2] = size;
      entry[3] = rank;
      words[static_cast<std::size_t>(list + rank)] =
          parent[static_cast<std::size_t>(r)];
    }
    list += size;
    id += root.num_images();
  }
  return net::SharedBytes::copy_of(words.data(), words.size() * sizeof(int));
}

}  // namespace

Team Team::split(int color, int key) const {
  rt::Image& image = rt::Image::current();
  const TeamData& parent = require();
  const int p = size();
  const bool root = parent.my_rank == 0;
  // One outer frame names the whole split: collective (parent team, seq),
  // seq being the parent's collective sequence number reserved for it.
  const rt::WaitFrameScope frame(
      image,
      obs::ResourceId{obs::ResourceKind::kCollective, -1,
                      static_cast<std::uint64_t>(parent.id),
                      image.next_coll_seq(parent.id)},
      "team_split");
  // Collective waits, not event waits (as in team_barrier).
  const obs::BlameScope blame(image.runtime().observer(), image.rank(),
                              obs::Blame::kOther);

  const int mine[2] = {color, key};
  std::vector<int> color_key(root ? 2 * static_cast<std::size_t>(p) : 0);
  {
    Event gathered;
    gather_async<int>(*this, mine, color_key, 0,
                      {.local_done = gathered.handle(),
                       .algorithm = CollAlgorithm::kBinomialTree});
    gathered.wait();
  }

  net::SharedBytes layout;
  if (root) {
    layout = pack_layout(image, parent.members, color_key);
  }
  {
    Event delivered;
    ops::CollDesc desc;
    desc.kind = ops::CollKind::kBroadcast;
    desc.team = *this;
    desc.bytes = layout_bytes(p);
    desc.shared = &layout;
    desc.algorithm = CollAlgorithm::kBinomialTree;
    desc.local_done = delivered.handle();
    ops::start_collective(std::move(desc));
    delivered.wait();
  }

  const auto* words = reinterpret_cast<const int*>(layout.data());
  const int* entry = words + kEntryWords * parent.my_rank;
  if (entry[0] < 0) {
    return Team{};  // negative color: the image opted out
  }
  auto data = std::make_shared<TeamData>();
  data->id = entry[0];
  data->my_rank = entry[3];
  data->members = {words + entry[1], static_cast<std::size_t>(entry[2])};
  data->storage = std::move(layout);
  image.add_team(data);
  return Team(std::move(data));
}

}  // namespace caf2
