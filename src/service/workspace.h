// Workspace: the long-lived state behind one serving process.
//
// A Workspace owns exactly one Analyzer — and through it the catalog and
// the warm, thread-safe Engine (engine/engine.h) — for the lifetime of the
// process. Every front end (the one-shot viewcap_cli, the viewcapd
// daemon, tests) funnels requests through a Dispatcher over one Workspace,
// so the warm-engine steady state that BENCH_capacity.json measures
// (10-100x over a cold run) is what repeated requests actually hit.
//
// Concurrency contract (see DESIGN.md, "Service core"): the Engine itself
// is safe for concurrent use, but the surrounding program state is not —
// load interns names into the shared catalog, redundancy/simplify/compose
// register result views, and Simplify mints catalog relations. Request
// expressions only read the catalog (ParseExpr takes `const Catalog&`:
// a name it lacks is a typing error, never a new entry). The Workspace
// therefore classifies request handling into two lock classes on one
// reader/writer mutex:
//
//   - shared   (WithShared): handlers that register nothing — list,
//     export, equiv, lattice, answerable, minimize, capacity, eval. They
//     get a `const Analyzer&`, so the compiler keeps them from writing.
//     Any number run concurrently; their closure searches multiplex onto
//     the engine's striped caches and shared thread pool.
//   - exclusive (WithExclusive): handlers that mint relations or register
//     views — load, nonredundant, simplify, compose, report.
//
// Every handler passes its per-request SearchLimits explicitly (the
// Analyzer keeps no limits of its own), so nothing mutates under a
// shared lock. Verdicts stay bit-identical
// regardless of interleaving: the engine's compute-once caches make every
// verdict a function of the request, not of thread timing (PR 5's
// determinism guarantee), which the concurrent-session tests pin.
#ifndef VIEWCAP_SERVICE_WORKSPACE_H_
#define VIEWCAP_SERVICE_WORKSPACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>

#include "core/analyzer.h"
#include "index/index_reader.h"
#include "index/index_writer.h"

namespace viewcap {

class Workspace {
 public:
  /// `default_limits` seeds the per-request SearchLimits when a request
  /// does not override them (the daemon's --threads / --max-candidates
  /// startup flags).
  explicit Workspace(SearchLimits default_limits = {})
      : default_limits_(default_limits) {}

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Parses and registers `program_text`'s schema and views into the
  /// shared analyzer (exclusive). View names accumulate across loads, so
  /// a daemon can grow its workspace one program at a time; a duplicate
  /// view name fails the load and leaves earlier state intact.
  Status Load(std::string_view program_text) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    return analyzer_.Load(program_text);
  }

  /// Runs `fn(analyzer)` under the shared (reader) lock, on a read-only
  /// analyzer: `fn` can register no view and intern no name.
  template <typename Fn>
  auto WithShared(Fn&& fn) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return std::forward<Fn>(fn)(analyzer_);
  }

  /// Runs `fn(analyzer)` under the exclusive (writer) lock.
  template <typename Fn>
  auto WithExclusive(Fn&& fn) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    return std::forward<Fn>(fn)(analyzer_);
  }

  const SearchLimits& default_limits() const { return default_limits_; }

  /// Opens the persistent capacity index at `path`, validates it against
  /// the loaded program's catalog (exclusive: attach changes what every
  /// subsequent verdict consults) and attaches it to the engine. A stale
  /// or corrupt index is a structured error and leaves the workspace
  /// serving live, never a silently wrong answer.
  Status AttachIndex(const std::string& path) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    VIEWCAP_ASSIGN_OR_RETURN(std::unique_ptr<IndexReader> reader,
                             IndexReader::Open(path, &analyzer_.catalog()));
    index_ = std::move(reader);
    analyzer_.engine().AttachIndex(index_.get());
    return Status::OK();
  }

  /// Builds (and publishes at `path`) an index over the loaded program
  /// (exclusive: the build saturates the shared engine).
  Result<IndexBuildStats> BuildIndex(const std::string& path,
                                     const IndexBuildOptions& options) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    return BuildIndexFile(analyzer_, path, options);
  }

  bool has_index() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return index_ != nullptr;
  }

  /// Counters of the attached index, or nullopt when serving live-only.
  std::optional<IndexStats> IndexStatsSnapshot() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (index_ == nullptr) return std::nullopt;
    return index_->StatsSnapshot();
  }

  /// Consistent copy of the shared engine's counters (thread-safe, no
  /// workspace lock: the engine publishes its own snapshot).
  EngineStats EngineStatsSnapshot() const {
    return analyzer_.engine_stats();
  }

  /// Served-request counter for the daemon's `stats` method. Counted once
  /// per dispatched request, including failed ones.
  void CountRequest() {
    requests_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::shared_mutex mu_;
  Analyzer analyzer_;
  SearchLimits default_limits_;
  /// Attached persistent capacity index; must outlive its attachment to
  /// the engine, so it is owned here next to the analyzer.
  std::unique_ptr<IndexReader> index_;
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace viewcap

#endif  // VIEWCAP_SERVICE_WORKSPACE_H_
