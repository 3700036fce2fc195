// mmap-backed query half of the persistent capacity index (see DESIGN.md,
// "Persistent capacity index").
#ifndef VIEWCAP_INDEX_INDEX_READER_H_
#define VIEWCAP_INDEX_INDEX_READER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "engine/engine.h"
#include "index/format.h"

namespace viewcap {

/// Point-in-time snapshot of a reader's serving counters. Hits are exact
/// served verdicts; every non-hit lookup fell back to the live engine, so
/// fallbacks are derived, not separately counted. `limit_mismatches` is
/// the subset of membership fallbacks caused by the caller probing under
/// limits other than the ones the index was built for.
struct IndexStats {
  std::size_t membership_lookups = 0;
  std::size_t membership_hits = 0;
  std::size_t dominance_lookups = 0;
  std::size_t dominance_hits = 0;
  std::size_t limit_mismatches = 0;

  std::size_t membership_fallbacks() const {
    return membership_lookups - membership_hits;
  }
  std::size_t dominance_fallbacks() const {
    return dominance_lookups - dominance_hits;
  }
};

/// Header and meta facts of an index file (what `viewcap_cli index info`
/// prints; no catalog needed).
struct IndexInfo {
  std::uint32_t format_version = 0;
  std::uint32_t fingerprint_scheme_version = 0;
  std::uint64_t file_size = 0;
  std::string catalog_fingerprint;
  // Serving limits every stored verdict was computed under.
  std::uint64_t extra_leaves = 0;
  std::uint64_t max_leaves = 0;
  std::uint64_t max_candidates = 0;
  // Saturation budget of the build sweep.
  std::uint64_t build_max_leaves = 0;
  std::uint64_t build_max_entries = 0;
  // Entity counts.
  std::uint64_t classes = 0;
  std::uint64_t sets = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t dominance_entries = 0;
};

/// Serves precomputed verdicts out of an mmap'd index file. Open() fully
/// validates the file — header, versions, catalog fingerprint, section
/// checksums and structural decode — so a stale or corrupt index is a
/// structured Status at attach time, never a silently wrong answer later.
/// After Open, lookups are binary searches over the mapping plus a
/// per-process resolution cache translating live TableauIds to stored
/// class ordinals: the exact canonical key of a class's representative
/// names it, so resolving a class is one binary search over the sorted
/// key table. Lookups are safe for concurrent use, also under a
/// workspace's shared lock (equiv, answerable): the catalog is held const,
/// so re-parsing a stored witness only looks names up.
class IndexReader : public VerdictIndex {
 public:
  /// Opens and fully validates `path` against `catalog` (the serving
  /// process's catalog, after loading the same program the index was
  /// built from). Rejects — with a structured IllFormed, never UB — files
  /// that are truncated, corrupt, version- or endian-mismatched, or built
  /// over a different catalog.
  static Result<std::unique_ptr<IndexReader>> Open(const std::string& path,
                                                   const Catalog* catalog);

  /// Header + meta of `path` without a catalog (no fingerprint check, no
  /// structural decode beyond the meta section).
  static Result<IndexInfo> Inspect(const std::string& path);

  ~IndexReader() override;
  IndexReader(const IndexReader&) = delete;
  IndexReader& operator=(const IndexReader&) = delete;

  const std::string& path() const { return path_; }
  const IndexInfo& info() const { return info_; }
  IndexStats StatsSnapshot() const;

  std::optional<MembershipResult> LookupMembership(
      Engine& engine, const MembershipProbe& probe) override;
  std::optional<DominanceResult> LookupDominance(
      Engine& engine, const std::string& key) override;

 private:
  IndexReader() = default;

  /// mmaps `path` and validates everything; called by Open.
  Status Load(const std::string& path, const Catalog* catalog);
  Status ValidateKeys();
  Status ValidateVerdicts();
  Status ValidateDominance();

  // Unchecked little-endian reads; positions were bounds-validated at
  // Open time.
  static std::uint32_t U32At(std::string_view s, std::size_t pos);
  static std::uint64_t U64At(std::string_view s, std::size_t pos);

  struct KeyEntry {
    std::string_view key;
    std::uint32_t ordinal = 0;
  };
  KeyEntry KeyEntryAt(std::size_t i) const;

  /// Stored class ordinal of live class `id`, or nullopt when the index
  /// has no key equal to the class's. Memoized (the file is immutable, so
  /// a negative answer stays correct).
  std::optional<std::uint32_t> ResolveClass(Engine& engine, TableauId id);
  std::optional<std::uint32_t> ResolveSet(Engine& engine,
                                          const MembershipProbe& probe);

  std::string path_;
  const char* data_ = nullptr;  // mmap base; non-null once loaded.
  std::size_t size_ = 0;
  const Catalog* catalog_ = nullptr;
  IndexInfo info_;

  std::string_view keys_;
  std::string_view verdicts_;
  std::string_view dominance_;
  std::size_t key_count_ = 0;
  std::size_t verdict_count_ = 0;
  std::size_t dominance_count_ = 0;

  /// "(handle:ordinal;)*" signature -> set ordinal, built at Open.
  std::unordered_map<std::string, std::uint32_t> set_index_;

  std::mutex resolve_mu_;
  std::unordered_map<TableauId, std::optional<std::uint32_t>>
      class_resolution_;
  std::unordered_map<std::string, std::optional<std::uint32_t>>
      set_resolution_;

  mutable std::atomic<std::size_t> membership_lookups_{0};
  mutable std::atomic<std::size_t> membership_hits_{0};
  mutable std::atomic<std::size_t> dominance_lookups_{0};
  mutable std::atomic<std::size_t> dominance_hits_{0};
  mutable std::atomic<std::size_t> limit_mismatches_{0};
};

}  // namespace viewcap

#endif  // VIEWCAP_INDEX_INDEX_READER_H_
