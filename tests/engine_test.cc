// Tests for engine/engine.h: interning, memo caches, stats counters and
// the cross-layer reuse guarantees the views layer is built on.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "algebra/parser.h"
#include "algebra/printer.h"
#include "base/thread_pool.h"
#include "engine/engine.h"
#include "tableau/build.h"
#include "tableau/canonical.h"
#include "tableau/homomorphism.h"
#include "tests/test_util.h"
#include "views/capacity.h"
#include "views/equivalence.h"

namespace viewcap {
namespace {

using testing::MustParse;
using testing::Unwrap;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    u_ = catalog_.MakeScheme({"A", "B", "C"});
    r_ = Unwrap(catalog_.AddRelation("r", u_));
    base_ = DbSchema(catalog_, {r_});
  }

  Tableau T(const std::string& text) {
    return MustBuildTableau(catalog_, u_, *MustParse(catalog_, text));
  }

  View MakeProjectionsView(const std::string& name, const std::string& h1,
                           const std::string& h2) {
    RelId a = Unwrap(
        catalog_.AddRelation(h1, catalog_.MakeScheme({"A", "B"})));
    RelId b = Unwrap(
        catalog_.AddRelation(h2, catalog_.MakeScheme({"B", "C"})));
    return Unwrap(View::Create(&catalog_, base_,
                               {{a, MustParse(catalog_, "pi{A,B}(r)")},
                                {b, MustParse(catalog_, "pi{B,C}(r)")}},
                               name));
  }

  Catalog catalog_;
  AttrSet u_;
  RelId r_ = kInvalidRel;
  DbSchema base_;
};

TEST_F(EngineTest, InterningIdentifiesEquivalentTemplates) {
  Engine engine(&catalog_);
  // Equivalent realizations land in one class...
  TableauId a = engine.Intern(T("pi{A,B}(r)"));
  TableauId b = engine.Intern(T("pi{A,B}(r * r)"));
  TableauId c = engine.Intern(T("pi{A,B}(r) * pi{A,B}(r)"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  // ...and inequivalent ones do not.
  TableauId d = engine.Intern(T("pi{B,C}(r)"));
  EXPECT_NE(a, d);
  // The id comparison agrees with the exact two-way homomorphism test.
  EXPECT_TRUE(engine.Equivalent(T("pi{A}(r)"), T("pi{A}(pi{A,B}(r))")));
  EXPECT_FALSE(engine.Equivalent(T("pi{A}(r)"), T("pi{A,B}(r)")));
  // Representatives are reduced members of their class.
  EXPECT_TRUE(EquivalentTableaux(catalog_, engine.Representative(a),
                                 T("pi{A,B}(r)")));
}

TEST_F(EngineTest, StatsCountersGoldenForTinyWorkload) {
  Engine engine(&catalog_);
  Tableau t = T("pi{A}(r)");  // Single row: already reduced.
  TableauId first = engine.Intern(t);
  TableauId second = engine.Intern(t);
  EXPECT_EQ(first, second);
  EngineStats s = engine.StatsSnapshot();
  EXPECT_EQ(s.intern_requests, 2u);
  EXPECT_EQ(s.intern_hits, 1u);
  EXPECT_EQ(s.interned_classes, 1u);
  // The repeat is answered by the fingerprint memo: the kernels ran once.
  EXPECT_EQ(s.reduce_runs, 1u);
  EXPECT_EQ(s.canonical_key_runs, 1u);
  // Interning alone settles no membership question.
  EXPECT_EQ(s.membership, MembershipCounters{});
}

TEST_F(EngineTest, MemoCachesEvictUnderBoundedCapacity) {
  EngineOptions options;
  options.max_memo_entries = 2;
  Engine engine(&catalog_, options);
  const TableauId a = engine.Intern(T("pi{A}(r)"));
  const TableauId b = engine.Intern(T("pi{B}(r)"));
  const TableauId c = engine.Intern(T("pi{C}(r)"));
  // Four distinct class pairs: each RowEmbeds is a miss and a Put, so the
  // 2-entry LRU must evict the two oldest.
  engine.RowEmbeds(a, b);
  engine.RowEmbeds(a, c);
  engine.RowEmbeds(b, c);
  engine.RowEmbeds(c, a);
  EngineStats s = engine.StatsSnapshot();
  EXPECT_EQ(s.row_embedding.runs, 4u);
  EXPECT_EQ(s.row_embedding.entries, 2u);
  EXPECT_EQ(s.row_embedding.evictions, 2u);
  // The first pair was evicted, so asking again re-runs the kernel.
  engine.RowEmbeds(a, b);
  EXPECT_EQ(engine.StatsSnapshot().row_embedding.runs, 5u);
}

TEST_F(EngineTest, ZeroCapacityDisablesMemoCaches) {
  EngineOptions options;
  options.max_memo_entries = 0;
  Engine engine(&catalog_, options);
  const TableauId a = engine.Intern(T("pi{A}(r)"));
  const TableauId b = engine.Intern(T("pi{A,B}(r)"));
  engine.RowEmbeds(a, b);
  engine.RowEmbeds(a, b);
  EngineStats s = engine.StatsSnapshot();
  // Capacity 0 means no caching, not unbounded: every request is a miss
  // and nothing is ever stored or evicted.
  EXPECT_EQ(s.row_embedding.requests, 2u);
  EXPECT_EQ(s.row_embedding.runs, 2u);
  EXPECT_EQ(s.row_embedding.entries, 0u);
  EXPECT_EQ(s.row_embedding.evictions, 0u);
  // The interning store is exempt from the bound and keeps working; with
  // its fingerprint memo off, every intern runs the kernels.
  EXPECT_EQ(engine.Intern(T("pi{B}(r)")), engine.Intern(T("pi{B}(r)")));
  EXPECT_EQ(engine.StatsSnapshot().reduce_runs, 4u);
}

TEST_F(EngineTest, RepresentativesReinternWithoutKernelRuns) {
  Engine engine(&catalog_);
  // Two of the inputs are not cores, so their classes' representatives
  // are forms the memo saw only as cores.
  for (const char* text : {"pi{A,B}(r * r)", "pi{A,B}(r) * pi{B,C}(r)",
                           "pi{A}(r) * pi{C}(r)", "r * r"}) {
    engine.Intern(T(text));
  }
  const EngineStats before = engine.StatsSnapshot();
  ASSERT_EQ(before.interned_classes, 4u);
  for (TableauId id = 0; id < before.interned_classes; ++id) {
    EXPECT_EQ(engine.Intern(engine.Representative(id)), id);
    EXPECT_EQ(engine.ClassKey(id), CanonicalKey(engine.Representative(id)));
  }
  const EngineStats after = engine.StatsSnapshot();
  EXPECT_EQ(after.reduce_runs, before.reduce_runs);
  EXPECT_EQ(after.canonical_key_runs, before.canonical_key_runs);
  EXPECT_EQ(after.intern_hits, before.intern_hits + before.interned_classes);
}

TEST_F(EngineTest, ExpansionClassSurvivesInterningFreshAssignments) {
  Engine engine(&catalog_);
  RelId h = Unwrap(catalog_.AddRelation("h", catalog_.MakeScheme({"A", "B"})));
  Tableau level = MustBuildTableau(catalog_, u_, *MustParse(catalog_, "h"));
  TableauId level_id = engine.Intern(level);
  const Tableau& rep = engine.Representative(level_id);
  // beta's assignment has never been interned: ExpansionClass interns it
  // while holding the level's representative, growing the class store
  // mid-call. The store is a deque precisely so that growth cannot move
  // `rep` out from under the substitution (historically a use-after-free
  // when the store was a vector).
  TemplateAssignment beta;
  beta.emplace(h, T("pi{A,B}(r)"));
  TableauId expansion = Unwrap(engine.ExpansionClass(level_id, beta));
  EXPECT_EQ(expansion, engine.Intern(T("pi{A,B}(r)")));
  // The representative reference taken before the growth is still the
  // stored class member (the documented lifetime-stability contract).
  EXPECT_EQ(&rep, &engine.Representative(level_id));
}

TEST_F(EngineTest, RepeatedMembershipHitsTheVerdictCache) {
  Engine engine(&catalog_);
  View view = MakeProjectionsView("W", "w1", "w2");
  CapacityOracle oracle(&engine, view);
  MembershipResult first = Unwrap(oracle.Contains(T("pi{A}(r)")));
  EXPECT_TRUE(first.member);
  EngineStats after_first = engine.StatsSnapshot();
  EXPECT_EQ(after_first.verdict.runs, 1u);
  MembershipResult second = Unwrap(oracle.Contains(T("pi{A}(r)")));
  EngineStats after_second = engine.StatsSnapshot();
  // The repeat was answered from the verdict cache: no new run.
  EXPECT_EQ(after_second.verdict.runs, 1u);
  EXPECT_EQ(after_second.verdict.requests, after_first.verdict.requests + 1);
  // And the cached verdict is indistinguishable from the original.
  EXPECT_EQ(first.member, second.member);
  EXPECT_EQ(first.candidates_tried, second.candidates_tried);
  EXPECT_EQ(first.leaf_budget, second.leaf_budget);
  ASSERT_NE(second.witness, nullptr);
  EXPECT_EQ(ToString(*first.witness, catalog_),
            ToString(*second.witness, catalog_));
}

TEST_F(EngineTest, VerdictsAreIsolatedAcrossQuerySetsWithDifferentHandles) {
  Engine engine(&catalog_);
  // Two query sets with identical queries but different handle relations:
  // the shared engine must not leak one set's witnesses to the other,
  // because witnesses are expressions over the set's own handles.
  View v = MakeProjectionsView("V", "h1", "h2");
  View w = MakeProjectionsView("W", "k1", "k2");
  CapacityOracle ov(&engine, v);
  CapacityOracle ow(&engine, w);
  MembershipResult mv = Unwrap(ov.Contains(T("pi{A,B}(r)")));
  MembershipResult mw = Unwrap(ow.Contains(T("pi{A,B}(r)")));
  ASSERT_TRUE(mv.member);
  ASSERT_TRUE(mw.member);
  std::string wv = ToString(*mv.witness, catalog_);
  std::string ww = ToString(*mw.witness, catalog_);
  EXPECT_NE(wv.find("h1"), std::string::npos) << wv;
  EXPECT_EQ(wv.find("k1"), std::string::npos) << wv;
  EXPECT_NE(ww.find("k1"), std::string::npos) << ww;
  EXPECT_EQ(ww.find("h1"), std::string::npos) << ww;
  // Distinct set fingerprints mean distinct verdict entries, not a hit.
  EXPECT_EQ(engine.StatsSnapshot().verdict.runs, 2u);
}

TEST_F(EngineTest, RepeatedWorkloadSavesAtLeastAThirdOfKernelRuns) {
  Engine engine(&catalog_);
  View v = MakeProjectionsView("V", "v1", "v2");
  View w = MakeProjectionsView("W", "u1", "u2");
  // Same equivalence question twice. The second pass uses a candidate cap
  // that differs only cosmetically (never binding here), so its verdict
  // keys miss and the full closure search re-runs — against the warm
  // intern, pair-predicate and expansion memos.
  SearchLimits first_limits;
  EquivalenceResult first = Unwrap(AreEquivalent(engine, v, w, first_limits));
  SearchLimits second_limits;
  second_limits.max_candidates = first_limits.max_candidates - 1;
  EquivalenceResult second =
      Unwrap(AreEquivalent(engine, v, w, second_limits));
  EXPECT_TRUE(first.equivalent);
  EXPECT_EQ(first.equivalent, second.equivalent);
  EXPECT_EQ(first.inconclusive, second.inconclusive);
  // A third pass repeating the first limits exactly is answered from the
  // dominance cache alone: both directions hit, so neither a membership
  // verdict lookup nor a search runs.
  const EngineStats before_third = engine.StatsSnapshot();
  EquivalenceResult third = Unwrap(AreEquivalent(engine, v, w, first_limits));
  EXPECT_EQ(first.equivalent, third.equivalent);
  EngineStats s = engine.StatsSnapshot();
  EXPECT_EQ(s.verdict.runs, before_third.verdict.runs);
  EXPECT_EQ(s.verdict.requests, before_third.verdict.requests);
  // Four dominance misses across the first two passes (two directions
  // each, the second pass under different limits), two hits on the third.
  EXPECT_EQ(s.dominance.requests, 6u);
  EXPECT_EQ(s.dominance.runs, 4u);
  // The acceptance bar: at least 1.5x fewer Reduce kernel executions than
  // a memo-less engine, which reduces on every intern request.
  EXPECT_GE(static_cast<double>(s.intern_requests),
            1.5 * static_cast<double>(s.reduce_runs))
      << s.intern_requests << " interns vs " << s.reduce_runs
      << " reduce runs";
  // Every membership verdict request above was a genuine miss: the
  // repeat passes were absorbed one level up (dominance hits asserted
  // above) before reaching the membership cache.
  EXPECT_GE(s.verdict.requests, s.verdict.runs);
}

TEST_F(EngineTest, OracleMemoizesRepeatedExpressionQueries) {
  Engine engine(&catalog_);
  View v = MakeProjectionsView("V", "v1", "v2");
  CapacityOracle oracle(&engine, v);
  const ExprPtr query = MustParse(catalog_, "pi{A,B}(r) * pi{B,C}(r)");
  MembershipResult first = Unwrap(oracle.Contains(query));
  const EngineStats after_first = engine.StatsSnapshot();
  // The repeat is answered from the engine's verdict cache: identical
  // result, one more verdict request and no further verdict run.
  MembershipResult second = Unwrap(oracle.Contains(query));
  const EngineStats after_second = engine.StatsSnapshot();
  EXPECT_EQ(first.member, second.member);
  EXPECT_EQ(first.candidates_tried, second.candidates_tried);
  ASSERT_NE(second.witness, nullptr);
  EXPECT_EQ(ToString(first.witness, catalog_),
            ToString(second.witness, catalog_));
  EXPECT_EQ(after_second.verdict.requests, after_first.verdict.requests + 1);
  EXPECT_EQ(after_second.verdict.runs, after_first.verdict.runs);
  EXPECT_EQ(after_second.membership, after_first.membership);
  // A semantically equal but textually different query interns to the
  // same class, so its verdict key matches and the cache answers it too.
  MembershipResult third = Unwrap(
      oracle.Contains(MustParse(catalog_, "pi{A,B}(r * r) * pi{B,C}(r)")));
  const EngineStats after_third = engine.StatsSnapshot();
  EXPECT_EQ(first.member, third.member);
  EXPECT_EQ(after_third.verdict.requests, after_first.verdict.requests + 2);
  EXPECT_EQ(after_third.verdict.runs, after_first.verdict.runs);
}

TEST_F(EngineTest, PairPredicatesAreMemoizedPerClassPair) {
  Engine engine(&catalog_);
  TableauId small = engine.Intern(T("pi{A}(r)"));
  TableauId big = engine.Intern(T("pi{A,B}(r)"));
  EXPECT_TRUE(engine.RowEmbeds(small, big));
  EXPECT_TRUE(engine.RowEmbeds(small, big));
  EngineStats s = engine.StatsSnapshot();
  EXPECT_EQ(s.row_embedding.requests, 2u);
  EXPECT_EQ(s.row_embedding.runs, 1u);
}

TEST_F(EngineTest, ConcurrentInterningAgreesOnOneClass) {
  // N threads interning the same template (and its equivalent forms) must
  // all get a single class id, and the id must resolve to a stable
  // representative. This is the contract the parallel membership search
  // relies on (workers intern levels and expansions concurrently).
  Engine engine(&catalog_);
  const Tableau forms[] = {T("pi{A,B}(r)"), T("pi{A,B}(r * r)"),
                           T("pi{A,B}(r) * pi{A,B}(r)")};
  constexpr std::size_t kIterations = 24;
  std::vector<TableauId> ids(kIterations);
  ParallelFor(engine.SharedPool(8), 8, kIterations, [&](std::size_t i) {
    ids[i] = engine.Intern(forms[i % 3]);
  });
  for (std::size_t i = 1; i < kIterations; ++i) EXPECT_EQ(ids[i], ids[0]);
  // Distinct classes still separate under concurrency.
  const Tableau distinct[] = {T("pi{B,C}(r)"), T("pi{A}(r)")};
  std::vector<TableauId> other(kIterations);
  ParallelFor(engine.SharedPool(8), 8, kIterations, [&](std::size_t i) {
    other[i] = engine.Intern(distinct[i % 2]);
  });
  EXPECT_NE(other[0], ids[0]);
  EXPECT_NE(other[1], other[0]);
  EXPECT_EQ(engine.StatsSnapshot().interned_classes, 3u);
}

TEST_F(EngineTest, SharedPoolGrowsAndIsReused) {
  Engine engine(&catalog_);
  ThreadPool* pool = engine.SharedPool(2);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->workers(), 1u);  // Caller counts as one thread.
  // Same pool, grown, on a larger request; never shrinks.
  EXPECT_EQ(engine.SharedPool(4), pool);
  EXPECT_EQ(pool->workers(), 3u);
  EXPECT_EQ(engine.SharedPool(2), pool);
  EXPECT_EQ(pool->workers(), 3u);
}

}  // namespace
}  // namespace viewcap
