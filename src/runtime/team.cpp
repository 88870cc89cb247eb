#include "runtime/team.hpp"

#include <algorithm>

#include "runtime/image.hpp"

namespace caf2 {

int Team::world_rank(int team_rank) const {
  const std::span<const int> list = members();
  CAF2_REQUIRE(team_rank >= 0 && team_rank < static_cast<int>(list.size()),
               "team rank out of range");
  return list[static_cast<std::size_t>(team_rank)];
}

int Team::rank_of_world(int world) const {
  const std::span<const int> list = members();
  const auto it = std::find(list.begin(), list.end(), world);
  return it == list.end() ? -1 : static_cast<int>(it - list.begin());
}

bool Team::contains_team(const Team& other) const {
  const std::span<const int> mine = members();
  for (int member : other.members()) {
    if (std::find(mine.begin(), mine.end(), member) == mine.end()) {
      return false;
    }
  }
  return true;
}

Team team_world() { return rt::Image::current().world_team(); }

}  // namespace caf2
