// capacity_explorer: materializing the bounded fragment of Cap(V).
//
// Section 3.1 classifies closed query sets into three categories and warns
// that the view mechanism can only grant the smallest CLOSED query set
// containing what the administrator intended. Closures are infinite, but
// the fragment derivable with at most k view-query leaves is finite — and
// it is exactly what a user of the view can write down with bounded
// effort. This example prints that fragment for the two views of
// Example 3.1.5 and shows (a) how the counts grow with k and (b) that the
// two equivalent views enumerate the same query classes.
#include <iostream>
#include <map>

#include "core/viewcap.h"

int main() {
  viewcap::Analyzer analyzer;
  viewcap::Status st = analyzer.Load(R"(
    schema { r(A, B, C); }
    view Joined { j  := pi{A,B}(r) * pi{B,C}(r); }
    view Split  { p1 := pi{A,B}(r); p2 := pi{B,C}(r); }
  )");
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  std::cout << "== Size-bounded fragments of the two capacities ==\n";
  for (std::size_t leaves = 1; leaves <= 3; ++leaves) {
    auto joined = analyzer.EnumerateViewCapacity("Joined", leaves, {}, 512);
    auto split = analyzer.EnumerateViewCapacity("Split", leaves, {}, 512);
    if (!joined.ok() || !split.ok()) {
      std::cerr << "enumeration failed\n";
      return 1;
    }
    std::cout << "  <= " << leaves << " leaves:  |Cap(Joined)| = "
              << joined->size() << ",  |Cap(Split)| = " << split->size()
              << "\n";
  }

  std::cout << "\n== The <=2-leaf fragment of Cap(Split), spelled out ==\n";
  std::string report;
  auto entries =
      analyzer.EnumerateViewCapacity("Split", 2, {}, 512, &report);
  if (!entries.ok()) {
    std::cerr << entries.status().ToString() << "\n";
    return 1;
  }
  std::cout << report;

  // Equivalent views have the same capacity, so every member enumerated
  // from one view must be answerable through the other (Theorem 1.5.5 in
  // action, member by member).
  const viewcap::View* joined_view = analyzer.GetView("Joined").value();
  viewcap::Engine engine(&analyzer.catalog());
  viewcap::CapacityOracle joined_oracle(&engine, *joined_view);
  std::size_t confirmed = 0;
  for (const auto& entry : *entries) {
    auto member = joined_oracle.Contains(entry.query);
    if (!member.ok() || !member->member) {
      std::cerr << "capacity mismatch (bug): "
                << ToString(*entry.witness, analyzer.catalog()) << "\n";
      return 1;
    }
    ++confirmed;
  }
  std::cout << "\nAll " << confirmed
            << " enumerated members of Cap(Split) confirmed answerable "
               "through Joined.\n";

  // Group the fragment by target scheme: the "reachable schemas" a user
  // of the view can populate.
  std::map<std::string, std::size_t> by_scheme;
  for (const auto& entry : *entries) {
    ++by_scheme[ToString(entry.query.Trs(), analyzer.catalog())];
  }
  std::cout << "\n== Members per target scheme (<= 2 leaves) ==\n";
  for (const auto& [scheme, count] : by_scheme) {
    std::cout << "  " << scheme << " : " << count << "\n";
  }
  return 0;
}
