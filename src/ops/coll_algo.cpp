#include "ops/coll_algo.hpp"

#include <array>
#include <bit>
#include <cctype>
#include <fstream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <sstream>

#include "obs/obs.hpp"
#include "ops/coll_detail.hpp"
#include "support/error.hpp"

namespace caf2 {

const char* to_string(CollAlgorithm algorithm) {
  switch (algorithm) {
    case CollAlgorithm::kAuto:
      return "auto";
    case CollAlgorithm::kBinomialTree:
      return "binomial";
    case CollAlgorithm::kKnomialTree:
      return "knomial";
    case CollAlgorithm::kRing:
      return "ring";
    case CollAlgorithm::kRecursiveDoubling:
      return "recursive_doubling";
    case CollAlgorithm::kDissemination:
      return "dissemination";
    case CollAlgorithm::kDirect:
      return "direct";
  }
  return "?";
}

namespace ops {

/// --- the (kind, schedule) pairing table --------------------------------------

namespace detail {
namespace {

/// Which members of the team touch their initiator-local data.
enum class Access : std::uint8_t { kNone, kRoot, kNonRoot, kAll };

struct Schedule {
  CollAlgorithm algorithm = CollAlgorithm::kAuto;  ///< kAuto: unused slot
  CollFactory make = nullptr;
};

/// One row per collective kind, in CollKind order: its name, its cofence
/// classification (does the operation read / write initiator-local data?),
/// and its schedules with the pattern that runs each. The default (legacy)
/// schedule comes first, so untuned runs keep their historical traces.
struct KindRow {
  CollKind kind;
  const char* name;
  Access reads;
  Access writes;
  std::array<Schedule, 3> schedules;
};

using A = CollAlgorithm;
using K = CollKind;
using enum Access;

constexpr KindRow kKinds[] = {
    {K::kBarrier, "barrier", kNone, kNone,
     {{{A::kDissemination, make_dissemination_barrier},
       {A::kBinomialTree, make_tree}}}},
    {K::kBroadcast, "broadcast", kRoot, kNonRoot,
     {{{A::kBinomialTree, make_tree},
       {A::kKnomialTree, make_tree},
       {A::kRing, make_tree}}}},
    {K::kReduce, "reduce", kAll, kRoot,
     {{{A::kBinomialTree, make_tree}, {A::kKnomialTree, make_tree}}}},
    {K::kAllreduce, "allreduce", kAll, kAll,
     {{{A::kBinomialTree, make_tree},
       {A::kRing, make_ring},
       {A::kRecursiveDoubling, make_rd_allreduce}}}},
    {K::kGather, "gather", kAll, kRoot,
     {{{A::kBinomialTree, make_binomial_gather}, {A::kDirect, make_direct}}}},
    {K::kScatter, "scatter", kRoot, kAll,
     {{{A::kBinomialTree, make_binomial_scatter},
       {A::kDirect, make_direct}}}},
    {K::kAlltoall, "alltoall", kAll, kAll, {{{A::kDirect, make_direct}}}},
    // Hillis-Steele is the recursive-doubling schedule.
    {K::kScan, "scan", kAll, kAll, {{{A::kRecursiveDoubling, make_scan}}}},
    // Sample sort's splitter exchange is direct pairwise.
    {K::kSort, "sort", kAll, kAll, {{{A::kDirect, make_sort}}}},
    {K::kAllgather, "allgather", kAll, kAll,
     {{{A::kRing, make_ring},
       {A::kRecursiveDoubling, make_rd_allgather},
       {A::kDirect, make_direct}}}},
    {K::kReduceScatter, "reduce_scatter", kAll, kAll,
     {{{A::kRing, make_ring}, {A::kDirect, make_direct}}}},
    {K::kGatherv, "gatherv", kAll, kRoot, {{{A::kDirect, make_direct}}}},
    {K::kScatterv, "scatterv", kRoot, kAll, {{{A::kDirect, make_direct}}}},
    {K::kAlltoallv, "alltoallv", kAll, kAll, {{{A::kDirect, make_direct}}}},
};

constexpr bool rows_follow_kind_order() {
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    if (static_cast<std::size_t>(kKinds[i].kind) != i) {
      return false;
    }
  }
  return true;
}
static_assert(rows_follow_kind_order(), "kKinds must list CollKind in order");

const KindRow& row(CollKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  CAF2_REQUIRE(index < std::size(kKinds), "unknown collective kind");
  return kKinds[index];
}

}  // namespace

CollFactory find_factory(CollKind kind, CollAlgorithm algorithm) {
  for (const Schedule& schedule : row(kind).schedules) {
    if (schedule.algorithm == algorithm) {
      return schedule.make;  // nullptr for kAuto on an unused slot
    }
  }
  return nullptr;
}

void classify(const CollDesc& desc, bool& reads, bool& writes) {
  const Access mine = desc.team.rank() == desc.root ? kRoot : kNonRoot;
  const KindRow& kind = row(desc.kind);
  reads = kind.reads == kAll || kind.reads == mine;
  writes = kind.writes == kAll || kind.writes == mine;
}

}  // namespace detail

const char* to_string(CollKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  return index < std::size(detail::kKinds) ? detail::kKinds[index].name : "?";
}

std::vector<CollAlgorithm> supported_algorithms(CollKind kind) {
  std::vector<CollAlgorithm> out;
  for (const detail::Schedule& schedule : detail::row(kind).schedules) {
    if (schedule.algorithm != CollAlgorithm::kAuto) {
      out.push_back(schedule.algorithm);
    }
  }
  return out;
}

CollAlgorithm default_algorithm(CollKind kind) {
  return detail::row(kind).schedules.front().algorithm;
}

bool algorithm_supported(CollKind kind, CollAlgorithm algorithm) {
  return detail::find_factory(kind, algorithm) != nullptr;
}

bool parse_algorithm(std::string_view name, CollAlgorithm& out) {
  for (const CollAlgorithm a :
       {CollAlgorithm::kAuto, CollAlgorithm::kBinomialTree,
        CollAlgorithm::kKnomialTree, CollAlgorithm::kRing,
        CollAlgorithm::kRecursiveDoubling, CollAlgorithm::kDissemination,
        CollAlgorithm::kDirect}) {
    if (name == to_string(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

bool parse_coll_kind(std::string_view name, CollKind& out) {
  for (const detail::KindRow& row : detail::kKinds) {
    if (name == row.name) {
      out = row.kind;
      return true;
    }
  }
  return false;
}

/// --- selection table ---------------------------------------------------------

int CollSelectionTable::log2_bucket(std::size_t value) {
  return value <= 1 ? 0 : std::bit_width(value) - 1;
}

void CollSelectionTable::set(CollKind kind, int images, std::size_t bytes,
                             CollAlgorithm algorithm) {
  CAF2_REQUIRE(algorithm != CollAlgorithm::kAuto,
               "selection table entries must name a concrete algorithm");
  CAF2_REQUIRE(algorithm_supported(kind, algorithm),
               std::string("selection table: ") + to_string(algorithm) +
                   " is not implemented for " + to_string(kind));
  entries_[{static_cast<int>(kind),
            log2_bucket(static_cast<std::size_t>(images < 1 ? 1 : images)),
            log2_bucket(bytes)}] = algorithm;
}

CollAlgorithm CollSelectionTable::lookup(CollKind kind, int images,
                                         std::size_t bytes) const {
  const int li =
      log2_bucket(static_cast<std::size_t>(images < 1 ? 1 : images));
  const int lb = log2_bucket(bytes);
  // Nearest recorded bucket for this kind: images distance dominates, then
  // payload distance; ties break toward the smaller bucket (map order).
  const auto* best = static_cast<const decltype(entries_)::value_type*>(nullptr);
  int best_di = 0;
  int best_db = 0;
  for (const auto& entry : entries_) {
    const auto& [ekind, eli, elb] = entry.first;
    if (ekind != static_cast<int>(kind)) {
      continue;
    }
    const int di = eli > li ? eli - li : li - eli;
    const int db = elb > lb ? elb - lb : lb - elb;
    if (best == nullptr || di < best_di ||
        (di == best_di && db < best_db)) {
      best = &entry;
      best_di = di;
      best_db = db;
    }
  }
  return best == nullptr ? CollAlgorithm::kAuto : best->second;
}

std::string CollSelectionTable::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"caf2.coll_selection\",\n";
  out << "  \"schema_version\": 1,\n";
  out << "  \"entries\": [";
  bool first = true;
  for (const auto& [key, algorithm] : entries_) {
    const auto& [kind, li, lb] = key;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"collective\": \""
        << to_string(static_cast<CollKind>(kind)) << "\", \"log2_images\": "
        << li << ", \"log2_bytes\": " << lb << ", \"algorithm\": \""
        << to_string(algorithm) << "\"}";
  }
  out << (first ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

namespace {

/// Minimal scanner for the to_json() document shape (objects of scalar
/// fields inside one "entries" array). Not a general JSON parser; rejects
/// anything it does not understand instead of guessing.
class TableScanner {
 public:
  explicit TableScanner(const std::string& text) : text_(text) {}

  [[noreturn]] void fail(const std::string& why) const {
    throw UsageError("coll selection table: " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        fail("escape sequences are not supported");
      }
      out.push_back(text_[pos_++]);
    }
    expect('"');
    return out;
  }

  /// \p field names the value in the error for a numeral that overflows.
  long parse_int(const std::string& field) {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    const std::size_t digits = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ == digits) {
      fail("expected an integer");
    }
    try {
      return std::stol(text_.substr(start, pos_ - start));
    } catch (const std::out_of_range&) {
      fail("\"" + field + "\": " + text_.substr(start, pos_ - start) +
           " is out of range");
    }
  }

  /// Either a string or a number, discarded (unknown fields are skipped).
  void skip_scalar(const std::string& field) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '"') {
      (void)parse_string();
    } else {
      (void)parse_int(field);
    }
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

CollSelectionTable CollSelectionTable::from_json(const std::string& text) {
  TableScanner in(text);
  CollSelectionTable table;
  in.expect('{');
  bool saw_entries = false;
  while (true) {
    const std::string field = in.parse_string();
    in.expect(':');
    if (field == "entries") {
      saw_entries = true;
      in.expect('[');
      if (!in.eat(']')) {
        do {
          in.expect('{');
          std::string kind_name;
          std::string algo_name;
          std::optional<long> li;
          std::optional<long> lb;
          do {
            const std::string key = in.parse_string();
            in.expect(':');
            if (key == "collective") {
              kind_name = in.parse_string();
            } else if (key == "algorithm") {
              algo_name = in.parse_string();
            } else if (key == "log2_images") {
              li = in.parse_int(key);
            } else if (key == "log2_bytes") {
              lb = in.parse_int(key);
            } else {
              in.skip_scalar(key);
            }
          } while (in.eat(','));
          in.expect('}');
          CollKind kind{};
          CollAlgorithm algorithm{};
          if (!parse_coll_kind(kind_name, kind)) {
            in.fail("unknown collective \"" + kind_name + "\"");
          }
          if (!parse_algorithm(algo_name, algorithm)) {
            in.fail("unknown algorithm \"" + algo_name + "\"");
          }
          if (!li || !lb) {
            in.fail("entry is missing log2_images / log2_bytes");
          }
          // The buckets become shift counts: images is an int, bytes a
          // 64-bit size_t.
          const auto require_range = [&in](const char* field, long value,
                                           long max) {
            if (value < 0 || value > max) {
              in.fail(std::string("\"") + field + "\": " +
                      std::to_string(value) + " outside [0, " +
                      std::to_string(max) + "]");
            }
          };
          require_range("log2_images", *li, 30);
          require_range("log2_bytes", *lb, 63);
          table.set(kind, 1 << static_cast<int>(*li),
                    std::size_t{1} << static_cast<int>(*lb), algorithm);
        } while (in.eat(','));
        in.expect(']');
      }
    } else {
      in.skip_scalar(field);
    }
    if (!in.eat(',')) {
      break;
    }
  }
  in.expect('}');
  if (!in.at_end()) {
    in.fail("trailing content after the closing brace");
  }
  if (!saw_entries) {
    in.fail("document has no \"entries\" array");
  }
  return table;
}

/// --- process-global table ----------------------------------------------------

namespace {
std::mutex g_table_mutex;
CollSelectionTable g_table;
}  // namespace

void set_selection_table(CollSelectionTable table) {
  const std::lock_guard<std::mutex> lock(g_table_mutex);
  g_table = std::move(table);
}

void clear_selection_table() {
  const std::lock_guard<std::mutex> lock(g_table_mutex);
  g_table = CollSelectionTable{};
}

void load_selection_table_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CAF2_REQUIRE(in.good(),
               "coll selection table: cannot read \"" + path + "\"");
  std::ostringstream text;
  text << in.rdbuf();
  set_selection_table(CollSelectionTable::from_json(text.str()));
}

CollSelectionTable selection_table() {
  const std::lock_guard<std::mutex> lock(g_table_mutex);
  return g_table;
}

CollAlgorithm resolve_algorithm(CollKind kind, CollAlgorithm requested,
                                int team_size, std::size_t bytes) {
  CollAlgorithm algorithm = requested;
  if (algorithm == CollAlgorithm::kAuto) {
    {
      const std::lock_guard<std::mutex> lock(g_table_mutex);
      algorithm = g_table.lookup(kind, team_size, bytes);
    }
    if (algorithm == CollAlgorithm::kAuto ||
        !algorithm_supported(kind, algorithm)) {
      algorithm = default_algorithm(kind);
    }
  } else {
    CAF2_REQUIRE(algorithm_supported(kind, algorithm),
                 std::string("collective algorithm \"") +
                     to_string(algorithm) + "\" is not implemented for " +
                     to_string(kind));
  }
  // Structural clamps: keep the choice runnable on this team.
  if (kind == CollKind::kAllgather &&
      algorithm == CollAlgorithm::kRecursiveDoubling &&
      !std::has_single_bit(static_cast<unsigned>(team_size))) {
    algorithm = CollAlgorithm::kRing;
  }
  return algorithm;
}

const char* coll_span_label(CollKind kind, CollAlgorithm algorithm) {
  return obs::intern_label(std::string(to_string(kind)) + "/" +
                           to_string(algorithm));
}

}  // namespace ops
}  // namespace caf2
