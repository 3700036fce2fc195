// Fidelity cross-check of Lemmas 2.4.9/2.4.10: a (size-bounded) literal
// materialization of the paper's J_k template enumeration, compared
// against the expression-driven CapacityOracle on the same membership
// questions. The two decision procedures must agree.
//
// Setting: U = {A, B}, one base relation r(A, B), query set
// F = { pi_A(r), pi_B(r) } with handles h_a:{A}, h_b:{B}. The paper's
// procedure enumerates expression templates S over U with symbols drawn
// from V_k (k+1 symbols per attribute including 0_A) and relation names
// among the handles, and asks whether some construction S -> beta is
// equivalent to the query. Lemma 2.4.8 bounds the needed construction at
// #(Q) rows, so enumerating subsets of P with at most #(Q)+1 rows is
// faithful (the +1 is headroom beyond the bound actually used).
#include <gtest/gtest.h>

#include "algebra/parser.h"
#include "tableau/build.h"
#include "tableau/homomorphism.h"
#include "tableau/recognize.h"
#include "tableau/reduce.h"
#include "tableau/substitution.h"
#include "tests/test_util.h"
#include "views/capacity.h"

namespace viewcap {
namespace {

using testing::MustParse;
using testing::Unwrap;

class JkCrosscheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    u_ = catalog_.MakeScheme({"A", "B"});
    a_ = Unwrap(catalog_.FindAttribute("A"));
    b_ = Unwrap(catalog_.FindAttribute("B"));
    r_ = Unwrap(catalog_.AddRelation("r", u_));
    h_a_ = Unwrap(catalog_.AddRelation("h_a", AttrSet{a_}));
    h_b_ = Unwrap(catalog_.AddRelation("h_b", AttrSet{b_}));
    pa_ = MustBuildTableau(catalog_, u_, *MustParse(catalog_, "pi{A}(r)"));
    pb_ = MustBuildTableau(catalog_, u_, *MustParse(catalog_, "pi{B}(r)"));
    beta_.emplace(h_a_, *pa_);
    beta_.emplace(h_b_, *pb_);
    set_ = Unwrap(QuerySet::Create(
        &catalog_, u_,
        {QuerySet::Member{h_a_, *pa_}, QuerySet::Member{h_b_, *pb_}}));
  }

  // The pool P of Lemma 2.4.9: every tagged tuple over V_k for both
  // handles. Symbols: ordinal 0 = distinguished, ordinals 100+1..100+k
  // nondistinguished (offset to avoid colliding with the defining
  // templates' symbols).
  std::vector<TaggedTuple> MakePool(std::uint32_t k) {
    std::vector<Symbol> va{Symbol::Distinguished(a_)};
    std::vector<Symbol> vb{Symbol::Distinguished(b_)};
    for (std::uint32_t i = 1; i <= k; ++i) {
      va.push_back(Symbol::Nondistinguished(a_, 100 + i));
      vb.push_back(Symbol::Nondistinguished(b_, 100 + i));
    }
    std::vector<TaggedTuple> pool;
    for (RelId handle : {h_a_, h_b_}) {
      for (const Symbol& sa : va) {
        for (const Symbol& sb : vb) {
          pool.push_back(TaggedTuple{handle, Tuple(u_, {sa, sb})});
        }
      }
    }
    return pool;
  }

  // The paper-literal decision: does some expression template S, made of
  // at most `max_rows` pool rows, satisfy S -> beta == query?
  bool PaperLiteralMember(const Tableau& query, std::uint32_t k,
                          std::size_t max_rows) {
    std::vector<TaggedTuple> pool = MakePool(k);
    // Enumerate subsets of size 1..max_rows by index vectors.
    std::vector<std::size_t> pick;
    return EnumerateSubsets(pool, pick, 0, max_rows, query);
  }

  bool EnumerateSubsets(const std::vector<TaggedTuple>& pool,
                        std::vector<std::size_t>& pick, std::size_t from,
                        std::size_t max_rows, const Tableau& query) {
    if (!pick.empty() && TryCandidate(pool, pick, query)) return true;
    if (pick.size() == max_rows) return false;
    for (std::size_t i = from; i < pool.size(); ++i) {
      pick.push_back(i);
      if (EnumerateSubsets(pool, pick, i + 1, max_rows, query)) return true;
      pick.pop_back();
    }
    return false;
  }

  bool TryCandidate(const std::vector<TaggedTuple>& pool,
                    const std::vector<std::size_t>& pick,
                    const Tableau& query) {
    std::vector<TaggedTuple> rows;
    for (std::size_t i : pick) rows.push_back(pool[i]);
    Result<Tableau> s = Tableau::Create(catalog_, u_, std::move(rows));
    if (!s.ok()) return false;  // Not a valid template.
    // J_k keeps only *expression* templates (Prop. 2.4.6 filter).
    Result<RecognitionResult> recognition =
        RecognizeExpressionTemplate(catalog_, *s);
    if (!recognition.ok() || recognition->expression == nullptr) {
      return false;
    }
    SymbolPool pool_syms;
    Result<Tableau> substituted =
        SubstituteTableau(catalog_, *s, beta_, pool_syms);
    if (!substituted.ok()) return false;
    return EquivalentTableaux(catalog_, *substituted, query);
  }

  Catalog catalog_;
  AttrSet u_;
  AttrId a_ = 0, b_ = 0;
  RelId r_ = kInvalidRel, h_a_ = kInvalidRel, h_b_ = kInvalidRel;
  std::optional<Tableau> pa_, pb_;
  TemplateAssignment beta_;
  std::optional<QuerySet> set_;
};

TEST_F(JkCrosscheckTest, BothProceduresAgreeOnMembership) {
  struct Case {
    const char* query;
    bool expected_member;
  };
  const Case cases[] = {
      {"pi{A}(r)", true},             // A defining query itself.
      {"pi{B}(r)", true},
      {"pi{A}(r) * pi{B}(r)", true},  // The cross product.
      {"r", false},                   // The lost A-B correlation.
      {"pi{A}(pi{A}(r) * pi{B}(r))", true},
  };
  Engine engine(&catalog_);
  CapacityOracle oracle(&engine, *set_);
  for (const Case& c : cases) {
    Tableau query =
        MustBuildTableau(catalog_, u_, *MustParse(catalog_, c.query));
    Tableau reduced = Reduce(catalog_, query);
    const std::uint32_t k = static_cast<std::uint32_t>(reduced.size());

    MembershipResult oracle_verdict = Unwrap(oracle.Contains(query));
    bool literal_verdict =
        PaperLiteralMember(query, k, /*max_rows=*/reduced.size() + 1);

    EXPECT_EQ(oracle_verdict.member, c.expected_member) << c.query;
    EXPECT_EQ(literal_verdict, c.expected_member) << c.query;
    EXPECT_EQ(oracle_verdict.member, literal_verdict) << c.query;
  }
}

TEST_F(JkCrosscheckTest, PoolSizeMatchesLemma249) {
  // |P| = |schema| * (k+1)^|U| (Lemma 2.4.9's finiteness argument).
  EXPECT_EQ(MakePool(1).size(), 2u * 2 * 2);
  EXPECT_EQ(MakePool(2).size(), 2u * 3 * 3);
}

}  // namespace
}  // namespace viewcap
