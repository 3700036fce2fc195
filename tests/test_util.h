// Shared fixtures and builders for the viewcap test suite.
#ifndef VIEWCAP_TESTS_TEST_UTIL_H_
#define VIEWCAP_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/viewcap.h"

namespace viewcap {
namespace testing {

/// gtest helper: asserts a Status is OK with a useful message.
#define VIEWCAP_EXPECT_OK(expr)                                   \
  do {                                                            \
    const ::viewcap::Status _st = (expr);                         \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                      \
  } while (false)

#define VIEWCAP_ASSERT_OK(expr)                                   \
  do {                                                            \
    const ::viewcap::Status _st = (expr);                         \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                      \
  } while (false)

/// Unwraps a Result in a test, failing loudly on error.
template <typename T>
T Unwrap(Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) std::abort();
  return std::move(result).value();
}

/// A tiny DSL for building tagged tuples in tests:
///   Row(catalog, universe, "r", {"0", "b1", "0"})
/// where each cell is "0" (distinguished) or "<x><n>" (nondistinguished
/// with ordinal n of that attribute; the letter is ignored, only digits are
/// read). Cells follow the universe's sorted attribute order.
inline TaggedTuple Row(const Catalog& catalog, const AttrSet& universe,
                       const std::string& rel_name,
                       const std::vector<std::string>& cells) {
  RelId rel = Unwrap(catalog.FindRelation(rel_name));
  EXPECT_EQ(cells.size(), universe.size());
  std::vector<Symbol> values;
  values.reserve(cells.size());
  std::size_t i = 0;
  for (AttrId a : universe) {
    const std::string& cell = cells[i++];
    if (cell == "0") {
      values.push_back(Symbol::Distinguished(a));
    } else {
      std::uint32_t ordinal = 0;
      for (char c : cell) {
        if (c >= '0' && c <= '9') {
          ordinal = ordinal * 10 + static_cast<std::uint32_t>(c - '0');
        }
      }
      EXPECT_GT(ordinal, 0u) << "bad test cell '" << cell << "'";
      values.push_back(Symbol::Nondistinguished(a, ordinal));
    }
  }
  return TaggedTuple{rel, Tuple(universe, std::move(values))};
}

/// Parses an expression, failing the test on error.
inline ExprPtr MustParse(Catalog& catalog, const std::string& text) {
  return Unwrap(ParseExpr(catalog, text));
}

/// Hands out a new Engine on every call and keeps each one alive as long as
/// the factory. A check on another call's result takes its own engine, so
/// it runs the search again instead of reading back what that call cached.
class EngineFactory {
 public:
  explicit EngineFactory(const Catalog* catalog) : catalog_(catalog) {}

  Engine& New() {
    engines_.push_back(std::make_unique<Engine>(catalog_));
    return *engines_.back();
  }

 private:
  const Catalog* catalog_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

/// A catalog preloaded with one ternary relation r(A, B, C), the workhorse
/// schema of the paper's Section 3 examples.
class SingleRelationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    abc_ = catalog_.MakeScheme({"A", "B", "C"});
    r_ = Unwrap(catalog_.AddRelation("r", abc_));
    base_ = DbSchema(catalog_, {r_});
  }

  Catalog catalog_;
  AttrSet abc_;
  RelId r_ = kInvalidRel;
  DbSchema base_;
};

}  // namespace testing
}  // namespace viewcap

#endif  // VIEWCAP_TESTS_TEST_UTIL_H_
