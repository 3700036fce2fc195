// security_views: the Section 3.1 database-administrator decree.
//
//   "Casual users shall be capable of requesting every query save those
//    which return values for sensitive attributes such as salary or
//    credit rating."
//
// The paper's point: such a decree describes a query set that is closed
// downward by *intent* but not closed under projection/join in the
// technical sense, and the view mechanism can only deliver the smallest
// CLOSED query set containing the granted queries. This example builds a
// personnel database, a sanitized view, and then audits exactly which
// queries leak through the closure.
#include <iostream>

#include "core/viewcap.h"

int main() {
  viewcap::Analyzer analyzer;
  viewcap::Status st = analyzer.Load(R"(
    schema {
      emp(Name, Dept, Salary);
      dept(Dept, Location);
    }
    # The sanitized view: everything except Salary.
    view Public {
      emp_pub  := pi{Name, Dept}(emp);
      dept_pub := dept;
    }
    # A careless alternative that a DBA might propose: it additionally
    # publishes which salary values exist per department ("for salary
    # banding"), believing names are protected.
    view Banded {
      emp_pub2   := pi{Name, Dept}(emp);
      salaries   := pi{Dept, Salary}(emp);
      dept_pub2  := dept;
    }
  )");
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  struct Probe {
    const char* description;
    const char* query;
  };
  const Probe probes[] = {
      {"employee directory", "pi{Name, Dept}(emp)"},
      {"employees by location", "pi{Name, Location}(emp * dept)"},
      {"raw salary table", "pi{Name, Salary}(emp)"},
      {"salary values per department", "pi{Dept, Salary}(emp)"},
      {"full employee records", "emp"},
      {"name-salary pairs via department",
       "pi{Name, Salary}(pi{Name, Dept}(emp) * pi{Dept, Salary}(emp))"},
  };

  for (const char* view_name : {"Public", "Banded"}) {
    std::cout << "== Audit of view '" << view_name << "' ==\n";
    for (const Probe& probe : probes) {
      std::string report;
      auto result =
          analyzer.CheckAnswerable(view_name, probe.query, {}, &report);
      if (!result.ok()) {
        std::cerr << result.status().ToString() << "\n";
        return 1;
      }
      std::cout << "  " << probe.description << ": "
                << (result->member ? "ANSWERABLE " : "blocked    ");
      if (result->member) {
        std::cout << " via " << ToString(*result->witness,
                                         analyzer.catalog());
      }
      std::cout << "\n";
    }
    std::cout << "\n";
  }

  std::cout
      << "Reading the audit:\n"
      << "  * 'Public' blocks every salary-bearing query: the decree's\n"
      << "    *intended* set is not closed, but its closure stays safe\n"
      << "    because no granted query mentions Salary at all.\n"
      << "  * 'Banded' leaks: the closure of the granted queries contains\n"
      << "    pi{Name, Salary}(...) joined through Dept — name-salary\n"
      << "    associations the DBA never meant to publish. Query capacity\n"
      << "    makes the leak checkable before deployment (Theorem 2.4.11).\n";

  // The two proposals are inequivalent, certified by Theorem 2.4.12.
  std::string report;
  auto eq = analyzer.CheckEquivalence("Public", "Banded", {}, &report);
  std::cout << "\n== Formal comparison ==\n" << report;
  return 0;
}
