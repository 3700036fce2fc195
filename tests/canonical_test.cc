// Tests for tableau/canonical.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "algebra/parser.h"
#include "base/random.h"
#include "engine/engine.h"
#include "tableau/build.h"
#include "tableau/canonical.h"
#include "tableau/homomorphism.h"
#include "tableau/reduce.h"
#include "tests/test_util.h"

namespace viewcap {
namespace {

using testing::MustParse;
using testing::Row;
using testing::Unwrap;

class CanonicalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    u_ = catalog_.MakeScheme({"A", "B", "C"});
    Unwrap(catalog_.AddRelation("r", catalog_.MakeScheme({"A", "B"})));
    Unwrap(catalog_.AddRelation("s", catalog_.MakeScheme({"B", "C"})));
  }

  Tableau T(const std::string& text) {
    // A private pool per build: same expression yields differently-named
    // nondistinguished symbols across calls only when pools are shared;
    // with fresh pools the names coincide, so rename below to decouple.
    return MustBuildTableau(catalog_, u_, *MustParse(catalog_, text));
  }

  Tableau TRenamed(const std::string& text, std::uint32_t offset) {
    Tableau t = T(text);
    SymbolMap rename;
    for (const Symbol& s : t.Symbols()) {
      if (!s.IsDistinguished()) {
        rename[s] = Symbol::Nondistinguished(s.attr, s.ordinal + offset);
      }
    }
    return t.Apply(rename);
  }

  Catalog catalog_;
  AttrSet u_;
};

TEST_F(CanonicalTest, InvariantUnderSymbolRenaming) {
  EXPECT_EQ(CanonicalKey(T("pi{A}(r * s)")),
            CanonicalKey(TRenamed("pi{A}(r * s)", 40)));
}

TEST_F(CanonicalTest, InvariantUnderRowOrder) {
  // Join order permutes rows; small templates get the exact canonical key.
  EXPECT_EQ(CanonicalKey(T("r * s")), CanonicalKey(T("s * r")));
  EXPECT_EQ(CanonicalKey(T("pi{A}(r) * s * r")),
            CanonicalKey(T("r * s * pi{A}(r)")));
}

TEST_F(CanonicalTest, DistinguishesDifferentStructures) {
  EXPECT_NE(CanonicalKey(T("r")), CanonicalKey(T("pi{A}(r)")));
  EXPECT_NE(CanonicalKey(T("r * s")), CanonicalKey(T("pi{A}(r) * s")));
  EXPECT_NE(CanonicalKey(T("pi{A}(r * s)")),
            CanonicalKey(T("pi{A}(r) * pi{B}(s)")));
}

TEST_F(CanonicalTest, SharedVsUnsharedSymbolsDiffer) {
  // r |x| s (shared 0_B) vs pi_A-style severed link.
  Tableau linked = T("pi{A, C}(r * s)");
  Tableau severed = T("pi{A}(r) * pi{C}(s)");
  EXPECT_NE(CanonicalKey(linked), CanonicalKey(severed));
}

TEST_F(CanonicalTest, LargeTemplatesUseSignature) {
  // Seven or more rows: isomorphic copies still get one key.
  std::string text = "r * s";
  for (int i = 0; i < 6; ++i) text += " * pi{A}(r * s)";
  Tableau big = T(text);
  ASSERT_GE(big.size(), 7u);
  std::string key = CanonicalKey(big);
  SymbolMap rename;
  for (const Symbol& s : big.Symbols()) {
    if (!s.IsDistinguished()) {
      rename[s] = Symbol::Nondistinguished(s.attr, s.ordinal + 100);
    }
  }
  EXPECT_EQ(key, CanonicalKey(big.Apply(rename)));
}

TEST_F(CanonicalTest, ExactPathExactlyAtTheRowThreshold) {
  // 2 (r * s) + 2 (projected copy) + 1 (pi{A}(r)) distinct rows.
  Tableau t = T("r * s * pi{A}(r * s) * pi{A}(r)");
  ASSERT_EQ(t.size(), 5u);
  std::string key = CanonicalKey(t);
  for (std::uint32_t seed : {1u, 9u, 57u, 1000u}) {
    EXPECT_EQ(key, CanonicalKey(RenameNondistinguished(t, seed)))
        << "exact key split an isomorphic pair at seed " << seed;
  }
}

TEST_F(CanonicalTest, SignaturePathJustBeyondTheRowThreshold) {
  // Six rows: the key has no size threshold and stays invariant under
  // renaming.
  Tableau t = T("r * s * pi{A}(r * s) * pi{A}(r * s)");
  ASSERT_EQ(t.size(), 6u);
  std::string key = CanonicalKey(t);
  for (std::uint32_t seed : {1u, 9u, 57u, 1000u}) {
    EXPECT_EQ(key, CanonicalKey(RenameNondistinguished(t, seed)))
        << "key split an isomorphic pair at seed " << seed;
  }
}

TEST_F(CanonicalTest, SignatureNeverSplitsRenamedIsomorphs) {
  // A key never splits isomorphic templates: every RenameNondistinguished
  // relabeling of a template with seven or more rows keys equal.
  Tableau t = T("r * s * pi{A}(r * s) * pi{A}(r * s) * pi{B}(r * s)");
  ASSERT_GE(t.size(), 7u);
  std::string key = CanonicalKey(t);
  for (std::uint32_t seed : {0u, 1u, 13u, 64u, 999u}) {
    Tableau renamed = RenameNondistinguished(t, seed);
    EXPECT_EQ(key, CanonicalKey(renamed))
        << "key split an isomorphic pair at seed " << seed;
  }
}

TEST_F(CanonicalTest, RenameNondistinguishedYieldsEquivalentTemplate) {
  Tableau t = T("pi{A}(r * s) * r");
  Tableau renamed = RenameNondistinguished(t, 50);
  // Literally different rows (the labels moved), yet mapping-equivalent.
  EXPECT_NE(t, renamed);
  EXPECT_TRUE(EquivalentTableaux(catalog_, t, renamed));
}

TEST_F(CanonicalTest, ExactPathSeparatesNonIsomorphicFiveRowTemplates) {
  Tableau a = T("r * s * pi{A}(r * s) * pi{A}(r)");
  Tableau b = T("r * s * pi{A}(r * s) * pi{C}(s)");
  ASSERT_EQ(a.size(), 5u);
  ASSERT_EQ(b.size(), 5u);
  // Equal keys would mean isomorphic; these are not.
  EXPECT_NE(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, EqualKeysForEquivalentReducedRealizations) {
  // Reduced equivalent templates are isomorphic (unique core), so their
  // exact canonical keys coincide.
  Tableau a = T("pi{A, B}(r * s)");
  Tableau b = TRenamed("pi{A, B}(r * pi{B, C}(s))", 17);
  ASSERT_TRUE(EquivalentTableaux(catalog_, a, b));
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
}

// A union of even cycles of r-rows over U = {A, B}: a cycle of half-length
// m has rows r(a_i, b_i) and r(a_{i+1 mod m}, b_i), so every cycle symbol
// occurs twice. The row r(0_A, b) makes the result a template.
Tableau CycleUnion(const Catalog& catalog, const AttrSet& u, RelId r,
                   const std::vector<std::uint32_t>& half_lengths) {
  const AttrId a = u.attrs()[0];
  const AttrId b = u.attrs()[1];
  std::vector<TaggedTuple> rows;
  const auto add = [&](Symbol x, Symbol y) {
    rows.push_back(TaggedTuple{r, Tuple(u, {x, y})});
  };
  std::uint32_t next = 1;
  for (std::uint32_t m : half_lengths) {
    for (std::uint32_t i = 0; i < m; ++i) {
      const Symbol b_i = Symbol::Nondistinguished(b, next + i);
      add(Symbol::Nondistinguished(a, next + i), b_i);
      add(Symbol::Nondistinguished(a, next + (i + 1) % m), b_i);
    }
    next += m;
  }
  add(Symbol::Distinguished(a), Symbol::Nondistinguished(b, next));
  return Tableau::MustCreate(catalog, u, std::move(rows));
}

TEST(CanonicalKeyTest, SeparatesTemplatesThatColourRefinementCannot) {
  Catalog catalog;
  const AttrSet u = catalog.MakeScheme({"A", "B"});
  const RelId r = Unwrap(catalog.AddRelation("r", u));
  // An 8-cycle against two 4-cycles, 9 rows each: every cycle symbol
  // occurs twice in like places, so refinement alone gives both the same
  // colours (an invariant signature keys them equal), yet they are not
  // isomorphic.
  const Tableau eight = CycleUnion(catalog, u, r, {4});
  const Tableau two_fours = CycleUnion(catalog, u, r, {2, 2});
  ASSERT_EQ(eight.size(), 9u);
  ASSERT_EQ(two_fours.size(), 9u);
  ASSERT_FALSE(FindIsomorphism(catalog, eight, two_fours).has_value());
  EXPECT_NE(CanonicalKey(eight), CanonicalKey(two_fours));
}

TEST(CanonicalKeyTest, UniverseIsPartOfTheKey) {
  Catalog catalog;
  const AttrSet abc = catalog.MakeScheme({"A", "B", "C"});
  const AttrSet abd = catalog.MakeScheme({"A", "B", "D"});
  Unwrap(catalog.AddRelation("r", catalog.MakeScheme({"A", "B"})));
  // r(0_A, 0_B, c1) over {A, B, C} and r(0_A, 0_B, d1) over {A, B, D}
  // render alike cell by cell; only their universes differ.
  const Tableau over_c = Tableau::MustCreate(
      catalog, abc, {Row(catalog, abc, "r", {"0", "0", "c1"})});
  const Tableau over_d = Tableau::MustCreate(
      catalog, abd, {Row(catalog, abd, "r", {"0", "0", "d1"})});
  EXPECT_NE(CanonicalKey(over_c), CanonicalKey(over_d));
  Engine engine(&catalog);
  EXPECT_NE(engine.Intern(over_c), engine.Intern(over_d));
}

// A random template of about `rows` rows over `u`: each row takes a random
// tag, the cells in the tag's type are distinguished or drawn from a small
// per-attribute pool (so rows share symbols), and the other cells get
// fresh symbols, as condition (ii) of Section 2.1 requires. Duplicate rows
// collapse, so some templates come out smaller.
Tableau RandomTemplate(const Catalog& catalog, const AttrSet& u,
                       const std::vector<RelId>& rels, std::size_t rows,
                       Random& rng) {
  for (;;) {
    std::vector<TaggedTuple> drawn;
    std::uint32_t fresh = 1000;
    const std::uint64_t pool = rows / 2 + 1;
    for (std::size_t i = 0; i < rows; ++i) {
      const RelId rel = rels[rng.Index(rels.size())];
      const AttrSet& type = catalog.RelationScheme(rel);
      std::vector<Symbol> values;
      for (AttrId a : u) {
        if (!type.Contains(a)) {
          values.push_back(Symbol::Nondistinguished(a, fresh++));
        } else if (rng.Chance(0.3)) {
          values.push_back(Symbol::Distinguished(a));
        } else {
          values.push_back(Symbol::Nondistinguished(
              a, static_cast<std::uint32_t>(1 + rng.Next(pool))));
        }
      }
      drawn.push_back(TaggedTuple{rel, Tuple(u, std::move(values))});
    }
    Result<Tableau> t = Tableau::Create(catalog, u, std::move(drawn));
    if (t.ok()) return *std::move(t);
  }
}

// An isomorphic copy of `t` under a random attribute-preserving
// permutation of its nondistinguished symbols.
Tableau Shuffled(const Tableau& t, Random& rng) {
  std::map<AttrId, std::vector<Symbol>> by_attr;
  for (const Symbol& s : t.Symbols()) {
    if (!s.IsDistinguished()) by_attr[s.attr].push_back(s);
  }
  SymbolMap permutation;
  for (const auto& [attr, symbols] : by_attr) {
    std::vector<Symbol> image = symbols;
    std::shuffle(image.begin(), image.end(), rng.engine());
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      permutation[symbols[i]] = image[i];
    }
  }
  return t.Apply(permutation);
}

// ROADMAP's done-criterion for the exact key: over a seeded corpus of raw
// and reduced templates of 1-12 rows on three schemas (the last one all
// self-joins, with cycle unions that refinement alone cannot split), key
// equality of every same-size pair matches FindIsomorphism, and for cores
// also EquivalentTableaux; every key survives RenameNondistinguished.
TEST(CanonicalKeyTest, KeyEqualityMatchesIsomorphismOnRandomCorpus) {
  struct Corpus {
    Catalog catalog;
    AttrSet universe;
    std::vector<RelId> rels;
    // Raw templates on one relation are symmetric enough that the
    // unpruned search grows large; they stop at this row count.
    std::size_t max_raw_rows = 12;
  };
  std::vector<std::unique_ptr<Corpus>> corpora;
  {
    auto c = std::make_unique<Corpus>();
    c->universe = c->catalog.MakeScheme({"A", "B", "C"});
    c->rels.push_back(Unwrap(
        c->catalog.AddRelation("r", c->catalog.MakeScheme({"A", "B"}))));
    c->rels.push_back(Unwrap(
        c->catalog.AddRelation("s", c->catalog.MakeScheme({"B", "C"}))));
    corpora.push_back(std::move(c));
  }
  {
    auto c = std::make_unique<Corpus>();
    c->universe = c->catalog.MakeScheme({"A", "B", "C", "D"});
    c->rels.push_back(Unwrap(c->catalog.AddRelation(
        "r", c->catalog.MakeScheme({"A", "B", "C"}))));
    c->rels.push_back(Unwrap(c->catalog.AddRelation(
        "s", c->catalog.MakeScheme({"B", "C", "D"}))));
    c->rels.push_back(Unwrap(
        c->catalog.AddRelation("t", c->catalog.MakeScheme({"A", "D"}))));
    corpora.push_back(std::move(c));
  }
  {
    auto c = std::make_unique<Corpus>();
    c->universe = c->catalog.MakeScheme({"A", "B"});
    c->rels.push_back(Unwrap(c->catalog.AddRelation("r", c->universe)));
    c->max_raw_rows = 8;
    corpora.push_back(std::move(c));
  }

  Random rng(20261017);
  std::size_t pairs = 0, isomorphic_pairs = 0;
  for (std::size_t ci = 0; ci < corpora.size(); ++ci) {
    const Corpus& c = *corpora[ci];
    struct Entry {
      Tableau t;
      std::string key;
    };
    // [reduced][row count] -> templates.
    std::map<std::size_t, std::vector<Entry>> by_size[2];
    const auto add = [&](bool reduced, const Tableau& t) {
      by_size[reduced][t.size()].push_back({t, CanonicalKey(t)});
    };
    for (std::size_t rows = 1; rows <= 12; ++rows) {
      for (int i = 0; i < 24; ++i) {
        const Tableau t =
            RandomTemplate(c.catalog, c.universe, c.rels, rows, rng);
        if (t.size() <= c.max_raw_rows) {
          add(false, t);
          add(false, Shuffled(t, rng));
        }
        const Tableau core = Reduce(c.catalog, t);
        add(true, core);
        add(true, Shuffled(core, rng));
      }
    }
    if (c.rels.size() == 1) {
      for (const std::vector<std::uint32_t>& halves :
           std::vector<std::vector<std::uint32_t>>{
               {2}, {3}, {4}, {2, 2}, {5}, {2, 3}}) {
        const Tableau t =
            CycleUnion(c.catalog, c.universe, c.rels[0], halves);
        add(false, t);
        add(false, Shuffled(t, rng));
      }
    }
    for (int reduced = 0; reduced < 2; ++reduced) {
      for (const auto& [size, entries] : by_size[reduced]) {
        for (std::size_t i = 0; i < entries.size(); ++i) {
          const Entry& a = entries[i];
          for (std::uint32_t seed : {1u, 77u}) {
            ASSERT_EQ(a.key, CanonicalKey(RenameNondistinguished(a.t, seed)))
                << "renaming split " << a.t.ToString(c.catalog);
          }
          for (std::size_t j = i + 1; j < entries.size(); ++j) {
            const Entry& b = entries[j];
            const bool same_key = a.key == b.key;
            const bool isomorphic =
                FindIsomorphism(c.catalog, a.t, b.t).has_value();
            ++pairs;
            isomorphic_pairs += isomorphic ? 1 : 0;
            ASSERT_EQ(same_key, isomorphic)
                << "schema " << ci << ", " << size << " rows:\n"
                << a.t.ToString(c.catalog) << "vs\n"
                << b.t.ToString(c.catalog);
            if (reduced == 1) {
              ASSERT_EQ(same_key, EquivalentTableaux(c.catalog, a.t, b.t))
                  << a.t.ToString(c.catalog) << "vs\n"
                  << b.t.ToString(c.catalog);
            }
          }
        }
      }
    }
  }
  // The corpus must exercise both outcomes.
  EXPECT_GT(isomorphic_pairs, 1000u);
  EXPECT_GT(pairs - isomorphic_pairs, 1000u);
  std::printf("checked %zu same-size pairs, %zu isomorphic\n", pairs,
              isomorphic_pairs);
}

}  // namespace
}  // namespace viewcap
