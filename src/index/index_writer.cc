#include "index/index_writer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/printer.h"
#include "base/check.h"
#include "base/hash.h"
#include "base/strings.h"
#include "base/thread_pool.h"
#include "index/format.h"
#include "views/capacity.h"
#include "views/equivalence.h"

namespace viewcap {

namespace {

/// Dense ordinals for the interned classes the index stores. Ordinals are
/// assigned in first-reference order, which is deterministic: views in
/// load order, definitions in declaration order, then the capacity sweep's
/// deterministic enumeration order. The key table names each class by the
/// exact canonical key of its representative; the key is a function of
/// the class alone, so it does not matter which equivalent reduced form
/// the parallel sweep interned first, and index bytes are identical for
/// every --threads.
class ClassRegistry {
 public:
  std::uint32_t OrdinalOf(TableauId id) {
    auto [it, inserted] = ordinals_.try_emplace(
        id, static_cast<std::uint32_t>(ids_.size()));
    if (inserted) ids_.push_back(id);
    return it->second;
  }

  TableauId id(std::size_t ordinal) const { return ids_[ordinal]; }
  std::size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<TableauId, std::uint32_t> ordinals_;
  std::vector<TableauId> ids_;
};

}  // namespace

Result<std::string> BuildIndexBytes(Analyzer& analyzer,
                                    const IndexBuildOptions& options,
                                    IndexBuildStats* stats_out) {
  Engine& engine = analyzer.engine();
  const Catalog& catalog = analyzer.catalog();
  // Captured before any closure work: the fingerprint names the catalog
  // state a fresh process reaches by loading the same program text, which
  // is the invalidation gate the reader checks at attach time.
  const std::string fingerprint = CatalogFingerprint(catalog);

  const std::vector<std::string> names = analyzer.ViewNames();
  if (names.empty()) {
    return Status::InvalidArgument(
        "capacity index: the program declares no views to index");
  }
  std::vector<const View*> views;
  views.reserve(names.size());
  for (const std::string& name : names) {
    VIEWCAP_ASSIGN_OR_RETURN(const View* view, analyzer.GetView(name));
    views.push_back(view);
  }

  ClassRegistry classes;
  struct SetRecord {
    std::vector<std::pair<RelId, std::uint32_t>> members;
  };
  std::vector<SetRecord> sets;
  sets.reserve(views.size());
  // Keyed by (set ordinal, query class ordinal); a std::map so the
  // serialized order is the reader's binary-search order.
  std::map<std::pair<std::uint32_t, std::uint32_t>, MembershipResult>
      verdicts;
  std::map<std::string, DominanceResult> dominance;

  // One oracle per view, all over the shared engine, under the SERVING
  // limits (see IndexBuildOptions).
  std::vector<CapacityOracle> oracles;
  oracles.reserve(views.size());
  for (const View* view : views) {
    SetRecord record;
    record.members.reserve(view->size());
    for (const ViewDefinition& d : view->definitions()) {
      record.members.emplace_back(d.rel,
                                  classes.OrdinalOf(engine.Intern(d.tableau)));
    }
    sets.push_back(std::move(record));
    oracles.emplace_back(&engine, *view, options.limits);
  }

  // Phase A — every expensive closure answer, parallel over source views:
  // view i's thread enumerates its capacity fragment, computes the
  // membership verdict of each entry, probes every other view's
  // definitions against its oracle and computes its row of the dominance
  // matrix. Each view's questions run serially on one thread and ask only
  // under that view's handles, so running views concurrently changes no
  // stored value — only the racy parts of the build (ordinal assignment,
  // dedup) matter for byte identity, and those all happen in the serial
  // Phase B below.
  // Duplicate queries across entries re-run Contains instead of being
  // deduped up front (ordinals do not exist yet); the engine's verdict
  // cache makes the repeats warm hits.
  struct ViewSweep {
    Status status = Status::OK();
    std::vector<CapacityOracle::CapacityEntry> entries;
    std::vector<MembershipResult> entry_verdicts;
    /// Ordered cross-view targets j (ascending, universe-compatible, != i)
    /// with the per-definition probe verdicts and the dominance verdict.
    std::vector<std::size_t> cross_targets;
    std::vector<std::vector<MembershipResult>> cross_verdicts;
    std::vector<DominanceResult> cross_dominance;
  };
  std::vector<ViewSweep> sweeps(views.size());
  const std::size_t threads =
      std::min(ThreadPool::DecideThreads(options.limits.threads), views.size());
  ThreadPool* pool = engine.SharedPool(threads);
  ParallelFor(pool, threads, views.size(), [&](std::size_t i) {
    ViewSweep& sweep = sweeps[i];
    const auto run = [&]() -> Status {
      VIEWCAP_ASSIGN_OR_RETURN(
          sweep.entries,
          oracles[i].EnumerateCapacity(options.max_leaves,
                                       options.max_entries_per_view));
      sweep.entry_verdicts.reserve(sweep.entries.size());
      for (const CapacityOracle::CapacityEntry& entry : sweep.entries) {
        VIEWCAP_ASSIGN_OR_RETURN(MembershipResult verdict,
                                 oracles[i].Contains(entry.query));
        sweep.entry_verdicts.push_back(std::move(verdict));
      }
      for (std::size_t j = 0; j < views.size(); ++j) {
        if (i == j || views[i]->universe() != views[j]->universe()) continue;
        std::vector<MembershipResult> probes;
        probes.reserve(views[j]->size());
        for (const ViewDefinition& d : views[j]->definitions()) {
          VIEWCAP_ASSIGN_OR_RETURN(MembershipResult verdict,
                                   oracles[i].Contains(d.tableau));
          probes.push_back(std::move(verdict));
        }
        VIEWCAP_ASSIGN_OR_RETURN(
            DominanceResult result,
            Dominates(engine, *views[i], *views[j], options.limits));
        sweep.cross_targets.push_back(j);
        sweep.cross_verdicts.push_back(std::move(probes));
        sweep.cross_dominance.push_back(std::move(result));
      }
      return Status::OK();
    };
    sweep.status = run();
  });
  for (const ViewSweep& sweep : sweeps) {
    VIEWCAP_RETURN_NOT_OK(sweep.status);
  }

  // Phase B — ordinal assignment and map insertion, serial, in exactly
  // the order the single-threaded build used: view i's capacity entries
  // in enumeration order, then the cross-view probes in (i, j) order.
  const auto store_verdict = [&](std::uint32_t set_ordinal,
                                 const Tableau& query,
                                 MembershipResult verdict) {
    const std::uint32_t query_ordinal = classes.OrdinalOf(engine.Intern(query));
    const auto key = std::make_pair(set_ordinal, query_ordinal);
    // First stored verdict wins, as in the serial build; duplicates carry
    // the identical answer anyway (Contains is deterministic).
    if (verdicts.find(key) == verdicts.end()) {
      verdicts.emplace(key, std::move(verdict));
    }
  };
  for (std::size_t i = 0; i < views.size(); ++i) {
    ViewSweep& sweep = sweeps[i];
    for (std::size_t k = 0; k < sweep.entries.size(); ++k) {
      store_verdict(static_cast<std::uint32_t>(i), sweep.entries[k].query,
                    std::move(sweep.entry_verdicts[k]));
    }
  }
  for (std::size_t i = 0; i < views.size(); ++i) {
    ViewSweep& sweep = sweeps[i];
    for (std::size_t c = 0; c < sweep.cross_targets.size(); ++c) {
      const std::size_t j = sweep.cross_targets[c];
      const auto& definitions = views[j]->definitions();
      for (std::size_t k = 0; k < definitions.size(); ++k) {
        store_verdict(static_cast<std::uint32_t>(i), definitions[k].tableau,
                      std::move(sweep.cross_verdicts[c][k]));
      }
      dominance.emplace(DominanceKeyFor(*views[i], *views[j], options.limits),
                        std::move(sweep.cross_dominance[c]));
    }
  }

  // --- Serialize ---------------------------------------------------------

  std::string meta;
  AppendU64(meta, options.limits.extra_leaves);
  AppendU64(meta, options.limits.max_leaves);
  AppendU64(meta, options.limits.max_candidates);
  AppendU64(meta, options.max_leaves);
  AppendU64(meta, options.max_entries_per_view);
  AppendU64(meta, classes.size());
  AppendU64(meta, sets.size());
  AppendU64(meta, verdicts.size());
  AppendU64(meta, dominance.size());

  // Exact canonical keys, sorted (std::map), each naming one stored class.
  std::map<std::string, std::uint32_t> by_key;
  for (std::size_t ordinal = 0; ordinal < classes.size(); ++ordinal) {
    const bool inserted =
        by_key.emplace(engine.ClassKey(classes.id(ordinal)),
                       static_cast<std::uint32_t>(ordinal))
            .second;
    VIEWCAP_CHECK(inserted);  // Distinct classes have distinct keys.
  }
  std::string keys_section;
  {
    std::string blob;
    std::vector<std::uint64_t> offsets;
    offsets.reserve(by_key.size());
    for (const auto& [key, ordinal] : by_key) {
      offsets.push_back(blob.size());
      AppendString(blob, key);
      AppendU32(blob, ordinal);
    }
    AppendU32(keys_section, static_cast<std::uint32_t>(offsets.size()));
    for (std::uint64_t offset : offsets) AppendU64(keys_section, offset);
    keys_section += blob;
  }

  std::string sets_section;
  AppendU32(sets_section, static_cast<std::uint32_t>(sets.size()));
  for (const SetRecord& record : sets) {
    AppendU32(sets_section, static_cast<std::uint32_t>(record.members.size()));
    for (const auto& [handle, ordinal] : record.members) {
      AppendU32(sets_section, handle);
      AppendU32(sets_section, ordinal);
    }
  }

  std::string verdicts_section;
  {
    std::string blob;
    std::vector<std::uint64_t> offsets;
    offsets.reserve(verdicts.size());
    for (const auto& [key, verdict] : verdicts) {
      offsets.push_back(blob.size());
      AppendU32(blob, key.first);
      AppendU32(blob, key.second);
      AppendU8(blob, verdict.member ? 1 : 0);
      AppendU8(blob, verdict.budget_exhausted ? 1 : 0);
      AppendU64(blob, verdict.candidates_tried);
      AppendU64(blob, verdict.leaf_budget);
      AppendString(blob, verdict.witness == nullptr
                             ? std::string()
                             : ToString(verdict.witness, catalog));
    }
    AppendU32(verdicts_section, static_cast<std::uint32_t>(offsets.size()));
    for (std::uint64_t offset : offsets) AppendU64(verdicts_section, offset);
    verdicts_section += blob;
  }

  std::string dominance_section;
  {
    // Sorted by (hash, key): binary search lands on the hash run, the full
    // key stored with each entry disambiguates collisions exactly.
    std::vector<std::pair<std::uint64_t, const std::string*>> order;
    order.reserve(dominance.size());
    for (const auto& [key, result] : dominance) {
      order.emplace_back(Fnv1a64(key), &key);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first < b.first
                                          : *a.second < *b.second;
              });
    std::string blob;
    std::vector<std::uint64_t> offsets;
    offsets.reserve(order.size());
    for (const auto& [hash, key] : order) {
      const DominanceResult& result = dominance.at(*key);
      offsets.push_back(blob.size());
      AppendString(blob, *key);
      AppendU8(blob, result.dominates ? 1 : 0);
      AppendU8(blob, result.inconclusive ? 1 : 0);
      AppendU32(blob, static_cast<std::uint32_t>(result.witnesses.size()));
      for (const ExprPtr& witness : result.witnesses) {
        AppendU8(blob, witness == nullptr ? 0 : 1);
        AppendString(blob, witness == nullptr ? std::string()
                                              : ToString(witness, catalog));
      }
      AppendU32(blob, static_cast<std::uint32_t>(result.missing.size()));
      for (std::size_t index : result.missing) AppendU64(blob, index);
    }
    AppendU32(dominance_section, static_cast<std::uint32_t>(order.size()));
    for (const auto& [hash, key] : order) AppendU64(dominance_section, hash);
    for (std::uint64_t offset : offsets) AppendU64(dominance_section, offset);
    dominance_section += blob;
  }

  std::vector<std::pair<std::uint32_t, std::string>> sections;
  sections.emplace_back(kSectionMeta, std::move(meta));
  sections.emplace_back(kSectionKeys, std::move(keys_section));
  sections.emplace_back(kSectionSets, std::move(sets_section));
  sections.emplace_back(kSectionVerdicts, std::move(verdicts_section));
  sections.emplace_back(kSectionDominance, std::move(dominance_section));
  std::string file = AssembleIndexFile(fingerprint, sections);

  if (stats_out != nullptr) {
    stats_out->classes = classes.size();
    stats_out->sets = sets.size();
    stats_out->verdicts = verdicts.size();
    stats_out->dominance_entries = dominance.size();
    stats_out->bytes = file.size();
  }
  return file;
}

Result<IndexBuildStats> BuildIndexFile(Analyzer& analyzer,
                                       const std::string& path,
                                       const IndexBuildOptions& options) {
  IndexBuildStats stats;
  VIEWCAP_ASSIGN_OR_RETURN(std::string bytes,
                           BuildIndexBytes(analyzer, options, &stats));
  const std::string temp = StrCat(path, ".tmp");
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal(
          StrCat("capacity index: cannot open '", temp, "' for writing"));
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(temp.c_str());
      return Status::Internal(
          StrCat("capacity index: short write to '", temp, "'"));
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Status::Internal(
        StrCat("capacity index: cannot rename '", temp, "' to '", path, "'"));
  }
  return stats;
}

}  // namespace viewcap
