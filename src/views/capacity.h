// Query capacity: closure membership (Theorems 1.5.2, 2.3.2, 2.4.11).
#ifndef VIEWCAP_VIEWS_CAPACITY_H_
#define VIEWCAP_VIEWS_CAPACITY_H_

#include <optional>
#include <string>
#include <vector>

#include "algebra/enumerator.h"
#include "algebra/expr.h"
#include "engine/engine.h"
#include "tableau/substitution.h"
#include "views/view.h"

namespace viewcap {

// MembershipResult lives in engine/engine.h (the engine's verdict cache
// stores it); it is re-exported here for the views-layer callers.

/// A finite named query set F of a database schema. Each member query
/// (a template over the schema's universe) is paired with a "handle"
/// relation name of type TRS(query); constructions are substitutions
/// through these handles, exactly as a view's capacity is generated through
/// its schema names (Theorem 1.5.2: Cap(V) = closure of F).
class QuerySet {
 public:
  struct Member {
    RelId handle = kInvalidRel;
    Tableau query;
  };

  QuerySet() = default;

  /// From explicit handle/query pairs; each handle's type must equal the
  /// query's TRS and every query must be over `universe`.
  static Result<QuerySet> Create(const Catalog* catalog, AttrSet universe,
                                 std::vector<Member> members);

  /// Mints fresh handles (Catalog::MintRelation) for `queries`.
  static Result<QuerySet> FromTableaux(Catalog* catalog, AttrSet universe,
                                       std::vector<Tableau> queries);

  /// The defining query set of a view, with the view relation names as
  /// handles.
  static QuerySet FromView(const View& view);

  const std::vector<Member>& members() const { return members_; }
  const AttrSet& universe() const { return universe_; }
  std::size_t size() const { return members_.size(); }

  /// The set without member `index` (for redundancy, Section 3.1).
  QuerySet Without(std::size_t index) const;

  /// This set plus extra members (for simplicity testing, Section 4.1).
  QuerySet With(std::vector<Member> extra) const;

  /// handle -> query template, the template assignment of constructions.
  TemplateAssignment AsAssignment() const;

  /// The handle names, in member order.
  std::vector<RelId> Handles() const;

 private:
  const Catalog* catalog_ = nullptr;
  AttrSet universe_;
  std::vector<Member> members_;
};

/// A construction T -> beta of a query Q from a query set, together with
/// the exhibited homomorphism from Q to T -> beta (Section 3.2's "exhibited
/// construction").
struct ExhibitedConstruction {
  /// The handle-level expression E whose Algorithm 2.1.1 template is T.
  /// May be null for hand-built constructions (the Section 3 machinery
  /// never reads it).
  ExprPtr expr;
  /// T: the handle-level template.
  Tableau level_template;
  /// The template assignment beta of the construction. The Section 3.2
  /// notion of a "T-block" compares assigned templates (beta(lambda) = T),
  /// not names: one construction may route several names to one member.
  TemplateAssignment beta;
  /// T -> beta; blocks[i] is the <tau_i, beta(eta_i)> block of T's i-th
  /// row.
  SubstitutionOutcome substitution;
  /// Homomorphism from the query Q into substitution.result.
  SymbolMap hom;
};

/// Decides membership in the closure of a query set, and with it membership
/// in Cap(V) (Theorem 2.4.11). Contains first tries two cheap proofs: the
/// canonical single-copy witness (a "yes") and the canonical-rewriting
/// refutation (a "no"; DESIGN.md, "Search pruning"). Only when both fail
/// does it enumerate, following Lemma 2.4.10 organized by handle-level
/// expressions; candidates are deduplicated by equivalence of their
/// (reduced) expansions, which is a congruence for projection and join
/// (Lemma 2.3.1), so pruning preserves completeness.
///
/// All closure kernels route through an Engine: levels and expansions are
/// interned once, equivalence tests become TableauId comparisons, and
/// whole membership verdicts are cached per (set fingerprint, limits,
/// query class). Oracles over one engine share that machinery across
/// query sets — dominance's two directions, redundancy's leave-one-out
/// loops and the lattice all reuse one frontier.
class CapacityOracle {
 public:
  /// Shares `engine` (and all its caches) with other oracles. The engine
  /// must be over the same catalog as the set and outlive the oracle.
  CapacityOracle(Engine* engine, QuerySet set, SearchLimits limits = {});

  /// Cap(V) membership through a shared engine.
  CapacityOracle(Engine* engine, const View& view, SearchLimits limits = {});

  /// Is `query` (a template over the set's universe) in the closure?
  Result<MembershipResult> Contains(const Tableau& query) const;

  /// Expression convenience: converts with Algorithm 2.1.1 first.
  Result<MembershipResult> Contains(const ExprPtr& query) const;

  /// Collects up to `max_results` exhibited constructions of `query` from
  /// the set (for the Section 3.2 essentiality machinery). Returns an empty
  /// vector when the query is not a member within limits.
  Result<std::vector<ExhibitedConstruction>> FindConstructions(
      const Tableau& query, std::size_t max_results) const;

  /// One pairwise-inequivalent member of the closure.
  struct CapacityEntry {
    /// Expression over the set's handles deriving the member.
    ExprPtr witness;
    /// The member's reduced template over the base schema.
    Tableau query;
  };

  /// Materializes the distinct (up to mapping equivalence) members of the
  /// closure derivable by handle-level expressions with at most
  /// `max_leaves` leaves, stopping after `max_entries` members or the
  /// oracle's candidate cap. Closures are infinite in general
  /// (Section 3.1's categories); this enumerates the finite size-bounded
  /// fragment — the shapes a view's users can actually write down — which
  /// is what the security auditing workflow inspects.
  Result<std::vector<CapacityEntry>> EnumerateCapacity(
      std::size_t max_leaves, std::size_t max_entries) const;

  const QuerySet& set() const { return set_; }
  const SearchLimits& limits() const { return limits_; }
  Engine& engine() const { return *engine_; }

 private:
  /// Verdict-cache key for `query_id`; includes the member-wise set
  /// fingerprint (handles AND query classes — witnesses are expressions
  /// over the handles, so sets with the same queries but different handles
  /// must not share verdicts) and the search limits.
  std::string VerdictKey(TableauId query_id) const;

  /// Interns every member query and builds the set fingerprint.
  void InternMembers();

  Engine* engine_;  // Never null.
  const Catalog* catalog_;
  QuerySet set_;
  SearchLimits limits_;
  std::vector<TableauId> member_ids_;  // Interned member query classes.
  std::vector<RelId> member_handles_;  // Member handles, in member order.
  std::string set_fingerprint_;
};

}  // namespace viewcap

#endif  // VIEWCAP_VIEWS_CAPACITY_H_
