// tcpdyn_claims [SET...]: runs the named claim sets (bench/claims.h), or
// every set when given none, and prints each one's summaries, charts, data
// tables and paper-vs-measured claim tables. A set's runs go through
// core::SweepRunner on util::ThreadPool::default_jobs() workers (TCPDYN_JOBS
// sets the count); the output does not depend on it. Exits 1 if any claim
// fails or a run throws, 2 on an unknown set name.
#include <algorithm>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "claims.h"
#include "util/thread_pool.h"

using namespace tcpdyn;

int main(int argc, char** argv) {
  const std::vector<claims::ClaimSet>& sets = claims::claim_sets();
  std::vector<const claims::ClaimSet*> chosen;
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(
        sets.begin(), sets.end(),
        [&](const claims::ClaimSet& s) { return s.name == argv[i]; });
    if (it == sets.end()) {
      std::string names;
      for (const claims::ClaimSet& s : sets) names += " " + s.name;
      std::cerr << "tcpdyn_claims: unknown claim set '" << argv[i]
                << "' (sets:" << names << ")\n";
      return 2;
    }
    chosen.push_back(&*it);
  }
  if (chosen.empty()) {
    for (const claims::ClaimSet& s : sets) chosen.push_back(&s);
  }
  int failed = 0;
  try {
    for (const claims::ClaimSet* set : chosen) {
      failed += claims::print_set(
          std::cout, *set,
          claims::run_set(*set, util::ThreadPool::default_jobs()));
    }
  } catch (const std::exception& e) {
    std::cerr << "tcpdyn_claims: " << e.what() << '\n';
    return 1;
  }
  return failed == 0 ? 0 : 1;
}
