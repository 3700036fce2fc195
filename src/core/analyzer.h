// Analyzer: a convenience facade over the whole library, driven by the
// textual program syntax (see algebra/parser.h).
#ifndef VIEWCAP_CORE_ANALYZER_H_
#define VIEWCAP_CORE_ANALYZER_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "engine/engine.h"
#include "tableau/recognize.h"
#include "views/compose.h"
#include "views/equivalence.h"
#include "views/redundancy.h"
#include "views/simplify.h"

namespace viewcap {

/// Owns a catalog plus the base schema and views declared by a program and
/// exposes the paper's decision procedures by view name. Intended for the
/// CLI and the examples; library users composing pipelines should use the
/// layer APIs directly.
class Analyzer {
 public:
  Analyzer()
      : catalog_(std::make_unique<Catalog>()),
        engine_(std::make_unique<Engine>(catalog_.get())) {}

  /// Parses `program` (schema and view blocks) into this analyzer.
  /// All relation names across calls share one catalog. A load costs what
  /// its program costs: its views share one base snapshot, the registered
  /// base extended by the program's relations, and a definition that
  /// reads view relations (views of views) is flattened against just
  /// those, found among the program's earlier views or in the index of
  /// registered ones. Reading a relation that two views define
  /// differently is an error. The load is atomic: it builds and checks
  /// every view first, so a failed load registers no view and leaves the
  /// base as it was (names the parse interned stay in the catalog).
  Status Load(std::string_view program);

  Catalog& catalog() { return *catalog_; }
  const Catalog& catalog() const { return *catalog_; }
  const DbSchema& base() const { return base_; }

  /// The memoizing engine shared by every decision procedure this analyzer
  /// runs: repeated questions about the same views hit its caches.
  Engine& engine() { return *engine_; }

  /// Consistent snapshot of the shared engine's cache and interning
  /// counters (Engine::StatsSnapshot).
  EngineStats engine_stats() const { return engine_->StatsSnapshot(); }

  /// The names of loaded views, in load order.
  std::vector<std::string> ViewNames() const;

  /// Fails with NotFound for unknown names.
  Result<const View*> GetView(const std::string& name) const;

  // Every decision method below takes its SearchLimits per call, and the
  // const ones neither intern names nor register views, so the service
  // layer's shared-lock handlers run them on a `const Analyzer&` (see
  // service/workspace.h).

  /// Theorem 2.4.12. Also renders a human-readable report into `*report`
  /// when non-null (witnessing expressions, missing queries).
  Result<EquivalenceResult> CheckEquivalence(
      const std::string& left, const std::string& right,
      const SearchLimits& limits = {}, std::string* report = nullptr) const;

  /// Theorem 2.4.11: is `query_text` (an expression over the base schema)
  /// answerable through view `name`?
  Result<MembershipResult> CheckAnswerable(
      const std::string& name, const std::string& query_text,
      const SearchLimits& limits = {}, std::string* report = nullptr) const;

  /// Theorem 3.1.4: redundancy elimination; registers the result as
  /// "<name>_nr".
  Result<NonredundantViewResult> EliminateRedundancy(
      const std::string& name, const SearchLimits& limits = {},
      std::string* report = nullptr);

  /// Theorem 4.1.3: normalization; registers the result as "<name>_simplified".
  Result<SimplifyOutcome> SimplifyView(const std::string& name,
                                       const SearchLimits& limits = {},
                                       std::string* report = nullptr);

  /// One cell of the pairwise dominance classification.
  struct LatticeEntry {
    std::string left;
    std::string right;
    bool left_dominates_right = false;
    bool right_dominates_left = false;
    bool inconclusive = false;
  };

  /// Classifies every pair of loaded views by dominance (Lemma 1.5.4);
  /// equivalence is mutual dominance. Renders a matrix into `*report`.
  Result<std::vector<LatticeEntry>> CompareAllViews(
      const SearchLimits& limits = {}, std::string* report = nullptr) const;

  /// Tableau minimization of a base-schema expression (the reference [2]
  /// application): returns an equivalent expression with the fewest leaf
  /// occurrences found.
  Result<MinimizeResult> MinimizeQuery(const std::string& expr_text,
                                       const SearchLimits& limits = {},
                                       std::string* report = nullptr) const;

  /// Flattens view `outer` (defined over `inner`'s schema... i.e. whose
  /// queries mention only `inner`'s view relations) into a view over the
  /// base; registers it as "<outer>_over_<inner>".
  Result<const View*> ComposeViews(const std::string& inner,
                                   const std::string& outer,
                                   std::string* report = nullptr);

  /// Renders a loaded view back into program syntax (see ExportProgram).
  Result<std::string> ExportView(const std::string& name) const;

  /// Materializes the distinct members of Cap(view) derivable with at most
  /// `max_leaves` view-query leaves (CapacityOracle::EnumerateCapacity);
  /// renders one line per member into `*report`.
  Result<std::vector<CapacityOracle::CapacityEntry>> EnumerateViewCapacity(
      const std::string& name, std::size_t max_leaves,
      const SearchLimits& limits = {}, std::size_t max_entries = 256,
      std::string* report = nullptr) const;

  /// Evaluates a view-schema query against a concrete database instance
  /// (`data_text` in the relation/data_parser.h format): computes the
  /// Theorem 1.4.2 surrogate and runs it on the base engine. The rendered
  /// result relation goes to `*report` when non-null.
  Result<Relation> EvaluateViewQuery(const std::string& view_name,
                                     const std::string& query_text,
                                     const std::string& data_text,
                                     std::string* report = nullptr) const;

 private:
  /// A view relation's defining query, as the views that define it agree.
  struct ViewRelation {
    ExprPtr query;
    std::string view;   ///< The first view that defined it.
    std::string rival;  ///< A view that defined it differently, if any.
  };
  using ViewRelations = std::unordered_map<RelId, ViewRelation>;

  /// Records in `*into` that view `view` has definition `d`, where
  /// `prior` is the entry `d.rel` had so far (null when none).
  static void Define(ViewRelations* into, const ViewRelation* prior,
                     const ViewDefinition& d, const std::string& view);

  /// `rel`'s entry among a load's earlier views (`pending`), else in the
  /// index of registered views; null when no view defines it.
  const ViewRelation* FindViewRelation(RelId rel,
                                       const ViewRelations& pending) const;

  /// Registers `view` under the new name `name` and adds its definitions
  /// to the view-relation index.
  void RegisterView(View view, const std::string& name);

  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<Engine> engine_;  // Over *catalog_; shared by all commands.
  DbSchema base_;
  std::map<std::string, View> views_;
  std::vector<std::string> view_order_;
  ViewRelations view_rels_;  // Every registered view's definitions.
};

}  // namespace viewcap

#endif  // VIEWCAP_CORE_ANALYZER_H_
