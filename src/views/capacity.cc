#include "views/capacity.h"

#include <algorithm>
#include <unordered_set>

#include "algebra/enumerator.h"
#include "base/check.h"
#include "base/strings.h"
#include "tableau/build.h"
#include "tableau/counterexample.h"
#include "tableau/evaluate.h"
#include "tableau/homomorphism.h"

namespace viewcap {

Result<QuerySet> QuerySet::Create(const Catalog* catalog, AttrSet universe,
                                  std::vector<Member> members) {
  QuerySet set;
  set.catalog_ = catalog;
  set.universe_ = std::move(universe);
  for (Member& m : members) {
    if (!catalog->HasRelation(m.handle)) {
      return Status::NotFound(StrCat("handle id ", m.handle));
    }
    if (m.query.universe() != set.universe_) {
      return Status::IllFormed("query set member over a different universe");
    }
    if (m.query.Trs() != catalog->RelationScheme(m.handle)) {
      return Status::IllFormed(
          StrCat("handle '", catalog->RelationName(m.handle),
                 "' has a type different from its query's TRS"));
    }
    VIEWCAP_RETURN_NOT_OK(m.query.Validate(*catalog));
  }
  set.members_ = std::move(members);
  return set;
}

Result<QuerySet> QuerySet::FromTableaux(Catalog* catalog, AttrSet universe,
                                        std::vector<Tableau> queries) {
  std::vector<Member> members;
  members.reserve(queries.size());
  for (Tableau& q : queries) {
    RelId handle = catalog->MintRelation("__q", q.Trs());
    members.push_back(Member{handle, std::move(q)});
  }
  return Create(catalog, std::move(universe), std::move(members));
}

QuerySet QuerySet::FromView(const View& view) {
  std::vector<Member> members;
  members.reserve(view.size());
  for (const ViewDefinition& d : view.definitions()) {
    members.push_back(Member{d.rel, d.tableau});
  }
  Result<QuerySet> set =
      Create(&view.catalog(), view.universe(), std::move(members));
  VIEWCAP_CHECK(set.ok());
  return std::move(set).value();
}

QuerySet QuerySet::Without(std::size_t index) const {
  VIEWCAP_CHECK(index < members_.size());
  QuerySet out;
  out.catalog_ = catalog_;
  out.universe_ = universe_;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i != index) out.members_.push_back(members_[i]);
  }
  return out;
}

QuerySet QuerySet::With(std::vector<Member> extra) const {
  QuerySet out = *this;
  for (Member& m : extra) out.members_.push_back(std::move(m));
  return out;
}

TemplateAssignment QuerySet::AsAssignment() const {
  TemplateAssignment beta;
  for (const Member& m : members_) beta.emplace(m.handle, m.query);
  return beta;
}

std::vector<RelId> QuerySet::Handles() const {
  std::vector<RelId> out;
  out.reserve(members_.size());
  for (const Member& m : members_) out.push_back(m.handle);
  return out;
}

CapacityOracle::CapacityOracle(Engine* engine, QuerySet set,
                               SearchLimits limits)
    : engine_(engine),
      catalog_(&engine->catalog()),
      set_(std::move(set)),
      limits_(limits) {
  InternMembers();
}

CapacityOracle::CapacityOracle(Engine* engine, const View& view,
                               SearchLimits limits)
    : CapacityOracle(engine, QuerySet::FromView(view), limits) {}

void CapacityOracle::InternMembers() {
  member_ids_.reserve(set_.size());
  member_handles_.reserve(set_.size());
  std::string fingerprint = "S";
  for (const QuerySet::Member& m : set_.members()) {
    const TableauId id = engine_->Intern(m.query);
    member_ids_.push_back(id);
    member_handles_.push_back(m.handle);
    // The handle is part of the fingerprint on purpose: a verdict's
    // witness is an expression over the handles, so sets with equivalent
    // queries behind different handles must not share verdicts.
    fingerprint += StrCat(m.handle, ":", id, ";");
  }
  set_fingerprint_ = std::move(fingerprint);
}

std::string CapacityOracle::VerdictKey(TableauId query_id) const {
  return StrCat(set_fingerprint_, "|", limits_.extra_leaves, ",",
                limits_.max_leaves, ",", limits_.max_candidates, "|Q",
                query_id);
}

namespace {

// Fast path: the canonical single-copy witness. If Q is equivalent to
// pi_TRS(Q)(join of one copy of every member whose query row-embeds into
// Q), return that witness immediately. Sound (the witness is checked by
// homomorphisms) but not complete — queries needing several copies of a
// member or partial projections inside the join fall through to the
// refutation and then the full enumeration.
Result<std::optional<ExprPtr>> TryCanonicalWitness(
    Engine& engine, const QuerySet& set,
    const std::vector<TableauId>& member_ids,
    const TemplateAssignment& beta, TableauId query_id) {
  const Catalog& catalog = engine.catalog();
  const Tableau& reduced_query = engine.Representative(query_id);
  std::vector<ExprPtr> parts;
  AttrSet joined_trs;
  for (std::size_t i = 0; i < set.members().size(); ++i) {
    const QuerySet::Member& m = set.members()[i];
    if (engine.RowEmbeds(member_ids[i], query_id)) {
      parts.push_back(Expr::Rel(catalog, m.handle));
      joined_trs = joined_trs.Union(m.query.Trs());
    }
  }
  if (parts.empty()) return std::optional<ExprPtr>();
  const AttrSet query_trs = reduced_query.Trs();
  if (!query_trs.SubsetOf(joined_trs)) return std::optional<ExprPtr>();
  ExprPtr candidate =
      parts.size() == 1 ? parts[0] : Expr::MustJoin(std::move(parts));
  if (candidate->trs() != query_trs) {
    candidate = Expr::MustProject(query_trs, std::move(candidate));
  }
  SymbolPool pool;
  VIEWCAP_ASSIGN_OR_RETURN(
      Tableau level, BuildTableau(catalog, set.universe(), *candidate, pool));
  VIEWCAP_ASSIGN_OR_RETURN(Tableau expansion,
                           SubstituteTableau(catalog, level, beta, pool));
  // Equivalence is a homomorphism each way (Proposition 2.4.3; it also
  // forces equal TRS). Interning the expansion would first reduce it to
  // its core, which dominates on large symmetric expansions.
  if (HasHomomorphism(catalog, reduced_query, expansion) &&
      HasHomomorphism(catalog, expansion, reduced_query)) {
    return std::optional(candidate);
  }
  return std::optional<ExprPtr>();
}

// Bound on the alpha-embeddings the refutation's member evaluations visit
// together. Past it the refutation gives up and Contains enumerates, so
// no question costs more than the enumeration plus this bounded work.
constexpr std::size_t kRefutationEmbeddingLimit = 1 << 12;

// The canonical-rewriting refutation (Levy, Mendelzon, Sagiv and
// Srivastava, PODS 1995; DESIGN.md, "Search pruning"). Freezes the reduced
// query Q into the instantiation D_Q, evaluates every member on it, and
// makes each answer tuple one handle-tagged row of T_can, with fresh
// symbols outside the handle's type. Any witness's template maps into
// T_can, so a witness E gives Q -> exp(E) -> exp(T_can): when Q has no
// homomorphism into T_can -> beta, no witness exists. True means refuted;
// false means Q passed the test or the evaluation hit its bound, and the
// enumeration decides.
Result<bool> RefutedByCanonicalRewriting(
    const Engine& engine, const QuerySet& set,
    const std::vector<TableauId>& member_ids,
    const TemplateAssignment& beta, const Tableau& reduced_query) {
  const Catalog& catalog = engine.catalog();
  const AttrSet& universe = set.universe();
  const Instantiation frozen = FreezeTableau(catalog, reduced_query);
  SymbolPool pool;
  reduced_query.ReserveSymbols(pool);
  std::vector<TaggedTuple> rows;
  AttrSet can_trs;
  std::size_t budget = kRefutationEmbeddingLimit;
  for (std::size_t i = 0; i < set.size(); ++i) {
    std::optional<Relation> answers = EvaluateTableauBounded(
        engine.Representative(member_ids[i]), frozen, &budget);
    if (!answers.has_value()) return false;
    for (const Tuple& answer : *answers) {
      std::vector<Symbol> values;
      values.reserve(universe.size());
      for (AttrId a : universe) {
        values.push_back(answer.scheme().Contains(a) ? answer.At(a)
                                                     : pool.Fresh(a));
      }
      can_trs = can_trs.Union(answer.DistinguishedAttrs());
      rows.push_back(TaggedTuple{set.members()[i].handle,
                                 Tuple(universe, std::move(values))});
    }
  }
  // exp(T_can) has T_can's TRS, and a homomorphism fixes 0_A: an empty
  // T_can, or one missing part of TRS(Q), admits none.
  if (!reduced_query.Trs().SubsetOf(can_trs)) return true;
  VIEWCAP_ASSIGN_OR_RETURN(
      Tableau can, Tableau::Create(catalog, universe, std::move(rows)));
  VIEWCAP_ASSIGN_OR_RETURN(Tableau expansion,
                           SubstituteTableau(catalog, can, beta, pool));
  return !HasHomomorphism(catalog, reduced_query, expansion);
}

}  // namespace

Result<MembershipResult> CapacityOracle::Contains(const Tableau& query) const {
  if (query.universe() != set_.universe()) {
    return Status::IllFormed(
        "query is over a different universe than the query set");
  }
  VIEWCAP_RETURN_NOT_OK(query.Validate(*catalog_));
  const TableauId query_id = engine_->Intern(query);
  const std::string verdict_key = VerdictKey(query_id);
  if (std::optional<MembershipResult> cached =
          engine_->LookupVerdict(verdict_key)) {
    return *std::move(cached);
  }
  // Persistent index, when one is attached: a hit is the exact verdict a
  // live search would produce (the index stores live Contains outputs),
  // so it is promoted into the in-memory verdict cache and returned; a
  // miss falls through to the search below, the index recording the
  // fallback in its own counters.
  if (VerdictIndex* index = engine_->attached_index()) {
    MembershipProbe probe;
    probe.handles = &member_handles_;
    probe.member_ids = &member_ids_;
    probe.set_fingerprint = &set_fingerprint_;
    probe.query_id = query_id;
    probe.extra_leaves = limits_.extra_leaves;
    probe.max_leaves = limits_.max_leaves;
    probe.max_candidates = limits_.max_candidates;
    if (std::optional<MembershipResult> hit =
            index->LookupMembership(*engine_, probe)) {
      engine_->StoreVerdict(verdict_key, *hit);
      return *std::move(hit);
    }
  }
  const Tableau& reduced_query = engine_->Representative(query_id);

  MembershipResult result;
  result.leaf_budget =
      std::min(limits_.max_leaves,
               reduced_query.size() + limits_.extra_leaves);

  const TemplateAssignment beta = set_.AsAssignment();

  VIEWCAP_ASSIGN_OR_RETURN(
      std::optional<ExprPtr> canonical,
      TryCanonicalWitness(*engine_, set_, member_ids_, beta, query_id));
  if (canonical.has_value()) {
    result.member = true;
    result.witness = std::move(*canonical);
    engine_->CountMembership(MembershipRoute::kCanonicalWitness);
    engine_->StoreVerdict(verdict_key, result);
    return result;
  }
  VIEWCAP_ASSIGN_OR_RETURN(
      bool refuted, RefutedByCanonicalRewriting(*engine_, set_, member_ids_,
                                                beta, reduced_query));
  if (refuted) {
    engine_->CountMembership(MembershipRoute::kRefutation);
    engine_->StoreVerdict(verdict_key, result);
    return result;
  }
  // Per-call dedup registries; the expensive kernels behind them (reduce,
  // canonicalize, substitute, embed) are memoized in the engine and so
  // shared across calls and oracles.
  std::unordered_set<TableauId> seen_levels;
  std::unordered_set<TableauId> seen_expansions;
  ExprEnumerator enumerator(catalog_, set_.Handles());
  Status failure = Status::OK();
  const ExprEnumerator::Stats stats = enumerator.Enumerate(
      result.leaf_budget, limits_.max_candidates,
      [&](const ExprPtr& candidate) -> ExprEnumerator::Verdict {
        SymbolPool pool;
        Result<Tableau> level =
            BuildTableau(*catalog_, set_.universe(), *candidate, pool);
        if (!level.ok()) {
          failure = level.status();
          return ExprEnumerator::Verdict::kStop;
        }
        // Cheap pre-substitution dedup: candidates whose handle-level
        // templates coincide up to equivalence (commuted joins etc.)
        // expand to equivalent templates (Lemma 2.3.1).
        const TableauId level_id = engine_->Intern(*level);
        if (!seen_levels.insert(level_id).second) {
          return ExprEnumerator::Verdict::kSkip;
        }
        Result<TableauId> expansion = engine_->ExpansionClass(level_id, beta);
        if (!expansion.ok()) {
          failure = expansion.status();
          return ExprEnumerator::Verdict::kStop;
        }
        // Completeness-preserving prune: a witness's expansion maps
        // homomorphically onto the query, and every subexpression's
        // expansion therefore row-embeds into it (see HasRowEmbedding).
        // Candidates failing the embedding can appear in no witness.
        // (Checked on the class representatives: embeddings compose with
        // the core homomorphisms, so the verdict is class-invariant.)
        if (!engine_->RowEmbeds(*expansion, query_id)) {
          return ExprEnumerator::Verdict::kSkip;
        }
        if (!seen_expansions.insert(*expansion).second) {
          return ExprEnumerator::Verdict::kSkip;
        }
        if (*expansion == query_id) {
          result.member = true;
          result.witness = candidate;
          return ExprEnumerator::Verdict::kStop;
        }
        return ExprEnumerator::Verdict::kKeep;
      });

  VIEWCAP_RETURN_NOT_OK(failure);
  result.candidates_tried = stats.generated;
  // A leaf budget that max_leaves holds below |Q_red| stops short of the
  // Lemma 2.4.8 bound, so a negative under it is inconclusive too.
  result.budget_exhausted =
      stats.exhausted_budget ||
      (!result.member && result.leaf_budget < reduced_query.size());
  engine_->CountMembership(MembershipRoute::kEnumeration);
  engine_->StoreVerdict(verdict_key, result);
  return result;
}

Result<MembershipResult> CapacityOracle::Contains(const ExprPtr& query) const {
  if (query == nullptr) {
    return Status::InvalidArgument("query expression is null");
  }
  VIEWCAP_ASSIGN_OR_RETURN(
      Tableau tableau, BuildTableau(*catalog_, set_.universe(), *query));
  return Contains(tableau);
}

Result<std::vector<ExhibitedConstruction>> CapacityOracle::FindConstructions(
    const Tableau& query, std::size_t max_results) const {
  if (query.universe() != set_.universe()) {
    return Status::IllFormed(
        "query is over a different universe than the query set");
  }
  // Constructions exhibit provenance (blocks, the concrete homomorphism),
  // so the candidate pipeline below stays on the raw substitution outcome;
  // the engine only supplies the memoized reduced query for the prune.
  const Tableau reduced_query =
      engine_->Representative(engine_->Intern(query));
  const AttrSet query_trs = query.Trs();
  const std::size_t leaf_budget =
      std::min(limits_.max_leaves,
               reduced_query.size() + limits_.extra_leaves);

  const TemplateAssignment beta = set_.AsAssignment();
  std::vector<ExhibitedConstruction> found;
  ExprEnumerator enumerator(catalog_, set_.Handles());
  Status failure = Status::OK();

  enumerator.Enumerate(
      leaf_budget, limits_.max_candidates,
      [&](const ExprPtr& candidate) -> ExprEnumerator::Verdict {
        SymbolPool pool;
        Result<Tableau> level =
            BuildTableau(*catalog_, set_.universe(), *candidate, pool);
        if (!level.ok()) {
          failure = level.status();
          return ExprEnumerator::Verdict::kStop;
        }
        Result<SubstitutionOutcome> outcome =
            Substitute(*catalog_, *level, beta, pool);
        if (!outcome.ok()) {
          failure = outcome.status();
          return ExprEnumerator::Verdict::kStop;
        }
        // Same completeness-preserving prune as Contains.
        if (!HasRowEmbedding(*catalog_, outcome->result, reduced_query)) {
          return ExprEnumerator::Verdict::kSkip;
        }
        // A construction of `query` needs equivalence in both directions;
        // the exhibited homomorphism is the query-to-substitution one.
        if (outcome->result.Trs() == query_trs &&
            HasHomomorphism(*catalog_, outcome->result, query)) {
          std::optional<SymbolMap> hom =
              FindHomomorphism(*catalog_, query, outcome->result);
          if (hom.has_value()) {
            found.push_back(ExhibitedConstruction{
                candidate, std::move(*level), beta, std::move(*outcome),
                std::move(*hom)});
            if (found.size() >= max_results) {
              return ExprEnumerator::Verdict::kStop;
            }
          }
        }
        // No semantic dedup here: distinct constructions of the same
        // mapping are exactly what Section 3.2 quantifies over.
        return ExprEnumerator::Verdict::kKeep;
      });

  VIEWCAP_RETURN_NOT_OK(failure);
  return found;
}

Result<std::vector<CapacityOracle::CapacityEntry>>
CapacityOracle::EnumerateCapacity(std::size_t max_leaves,
                                  std::size_t max_entries) const {
  const TemplateAssignment beta = set_.AsAssignment();
  std::vector<CapacityEntry> entries;
  std::unordered_set<TableauId> seen_levels;
  std::unordered_set<TableauId> seen_expansions;
  ExprEnumerator enumerator(catalog_, set_.Handles());
  Status failure = Status::OK();

  enumerator.Enumerate(
      std::min(max_leaves, limits_.max_leaves), limits_.max_candidates,
      [&](const ExprPtr& candidate) -> ExprEnumerator::Verdict {
        SymbolPool pool;
        Result<Tableau> level =
            BuildTableau(*catalog_, set_.universe(), *candidate, pool);
        if (!level.ok()) {
          failure = level.status();
          return ExprEnumerator::Verdict::kStop;
        }
        // Level-class duplicates expand to expansion-class duplicates
        // (Lemma 2.3.1), which the historical implementation skipped after
        // substituting; skipping them here is the same verdict, cheaper.
        const TableauId level_id = engine_->Intern(*level);
        if (!seen_levels.insert(level_id).second) {
          return ExprEnumerator::Verdict::kSkip;
        }
        Result<TableauId> expansion = engine_->ExpansionClass(level_id, beta);
        if (!expansion.ok()) {
          failure = expansion.status();
          return ExprEnumerator::Verdict::kStop;
        }
        if (!seen_expansions.insert(*expansion).second) {
          return ExprEnumerator::Verdict::kSkip;
        }
        entries.push_back(
            CapacityEntry{candidate, engine_->Representative(*expansion)});
        if (entries.size() >= max_entries) {
          return ExprEnumerator::Verdict::kStop;
        }
        return ExprEnumerator::Verdict::kKeep;
      });
  VIEWCAP_RETURN_NOT_OK(failure);
  return entries;
}

}  // namespace viewcap
