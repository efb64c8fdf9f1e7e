// Every Duato search outcome over the shared search cases, pinned: the
// verdict's conclusion and detail, the escape set C1 the search settled on,
// the search's work counters (candidates, greedy expansions, ECDG builds and
// their direct / indirect / cross edge counts) and a hash of the
// certificate's JSON.  A change to how cdg::search finds its subfunction
// must leave tests/golden/search_results.txt byte-identical: the same
// candidates in the same order, the same C1 and the same certificate.
//
// The ECDG builder's excursion-visit count is left out: it measures how the
// builder reuses work, not what the search decides.
//
// Regenerate the fixture with:  WORMNET_UPDATE_GOLDEN=1 ./test_search_results
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "search_cases.hpp"
#include "wormnet/core/verifier.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/obs/probe.hpp"

namespace wormnet::test {
namespace {

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char byte : text) {
    h ^= byte;
    h *= 1099511628211ull;
  }
  return h;
}

/// One golden line for `c`.
std::string result_line(const SearchCase& c) {
  const topology::Topology topo = core::make_topology(c.topology);
  const auto relation = c.relation.build(topo);
  const cdg::StateGraph states(topo, *relation);
  core::VerifyOptions options;
  options.method = core::Method::kDuato;

  obs::CheckerStats stats;
  core::CertifiedVerdict verdict;
  {
    const obs::ProbeScope scope(stats);
    verdict = core::verify_certified(states, options);
  }
  const cdg::SearchResult search = cdg::search(states, options.duato);

  std::ostringstream os;
  os << c.topology << ' ' << c.relation.to_string() << " | "
     << core::to_string(verdict.verdict.conclusion) << " | "
     << verdict.verdict.detail << " | c1="
     << (search.found ? ft::mask_to_hex(search.c1) : "-")
     << " | candidates=" << stats.subfunction_candidates
     << " greedy=" << stats.greedy_expansions
     << " ecdg=" << stats.ecdg_builds
     << " direct=" << stats.ecdg_direct_edges
     << " indirect=" << stats.ecdg_indirect_edges
     << " cross=" << stats.ecdg_cross_edges << " | cert=";
  if (verdict.certificate) {
    os << std::hex << fnv1a(verdict.certificate->to_json());
  } else {
    os << '-';
  }
  os << '\n';
  return os.str();
}

TEST(SearchResults, EveryCaseMatchesGolden) {
  std::string actual;
  for (const SearchCase& c : search_cases()) actual += result_line(c);
  const std::string path =
      std::string(WORMNET_GOLDEN_DIR) + "/search_results.txt";
  if (std::getenv("WORMNET_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream file(path, std::ios::binary);
  std::ostringstream expected;
  expected << file.rdbuf();
  ASSERT_FALSE(expected.str().empty())
      << path << " missing — regenerate with WORMNET_UPDATE_GOLDEN=1";
  EXPECT_EQ(actual, expected.str());
}

}  // namespace
}  // namespace wormnet::test
