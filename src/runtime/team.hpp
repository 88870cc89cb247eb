#pragma once

/// \file team.hpp
/// Teams — first-class process subsets (paper §II-A).
///
/// A team serves three purposes in CAF 2.0: a domain for coarray allocation,
/// a rank name space, and an isolated communication/synchronization domain.
/// All images start in team_world; new teams are created collectively with
/// split(color, key).
///
/// Team is a cheap value handle. Each member holds its own small immutable
/// TeamData (id and its own rank); the member list inside it is a view into
/// one immutable buffer shared by every member of the team: team_world's is
/// built once per runtime, a split team's is the buffer the split's
/// broadcast delivered (DESIGN.md §4.13).

#include <memory>
#include <span>

#include "net/message.hpp"
#include "support/error.hpp"

namespace caf2 {

namespace rt {
class Image;
class Runtime;
}  // namespace rt

struct TeamData {
  int id = -1;
  int my_rank = -1;  ///< calling image's rank within the team
  /// World ranks indexed by team rank: a view into `storage`.
  std::span<const int> members;
  /// The buffer `members` points into, shared by every member of the team.
  net::SharedBytes storage;
};

class Team {
 public:
  Team() = default;
  explicit Team(std::shared_ptr<const TeamData> data) : data_(std::move(data)) {}

  bool valid() const { return data_ != nullptr; }

  /// Team identifier (equal on every member).
  int id() const { return require().id; }

  /// Calling image's rank within this team.
  int rank() const { return require().my_rank; }

  /// Number of member images.
  int size() const { return static_cast<int>(require().members.size()); }

  /// World rank of the member with team rank \p team_rank.
  int world_rank(int team_rank) const;

  /// Team rank of world-rank \p world, or -1 if not a member.
  int rank_of_world(int world) const;

  /// True when every member of \p other is also a member of this team
  /// (used to validate collectives inside finish blocks, paper §III-A1).
  bool contains_team(const Team& other) const;

  /// Collectively split this team. Members calling with the same \p color
  /// form a new team; ranks within it are ordered by (key, old rank); a
  /// negative color opts out and returns an invalid Team. All members of
  /// this team must call split (SPMD). The split is a collective on this
  /// team — a binomial gather to rank 0 and a binomial broadcast back —
  /// defined in ops/ (team_split.cpp).
  Team split(int color, int key) const;

  std::span<const int> members() const { return require().members; }

 private:
  const TeamData& require() const {
    CAF2_REQUIRE(data_ != nullptr, "operation on an invalid Team");
    return *data_;
  }

  std::shared_ptr<const TeamData> data_;
};

/// The team containing every image (rank == world rank).
Team team_world();

}  // namespace caf2
