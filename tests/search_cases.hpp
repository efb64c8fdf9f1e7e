// The Duato-search cases shared by the search golden (test_search_results)
// and the search-state oracle (test_search_state): every registry relation
// on six small topologies, pristine and under two seeded fault masks, plus
// the full e-cube -> negative-first transition unions on mesh:2x2:2 and
// mesh:3x3:2, both of which the search fails to certify.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wormnet/core/registry.hpp"
#include "wormnet/reconfig/union_routing.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::test {

struct SearchCase {
  std::string topology;  ///< core::make_topology spec
  reconfig::RelationExpr relation;
};

/// Two seeded fault masks over `channels` channels: one and two dead.
inline std::vector<std::vector<bool>> search_case_masks(std::size_t channels,
                                                        std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<bool>> masks;
  for (std::size_t dead = 1; dead <= 2; ++dead) {
    std::vector<bool> mask(channels, false);
    for (std::size_t k = 0; k < dead; ++k) mask[rng() % channels] = true;
    masks.push_back(std::move(mask));
  }
  return masks;
}

inline std::vector<SearchCase> search_cases() {
  std::vector<SearchCase> cases;
  std::uint64_t seed = 26;
  for (const char* spec : {"mesh:4x4:2", "torus:4x4:3", "hypercube:4:2",
                           "ring:6:2", "ring:7:2", "mesh:3x3:2"}) {
    const topology::Topology topo = core::make_topology(spec);
    for (const core::AlgorithmEntry* entry : core::algorithms_for(topo)) {
      cases.push_back({spec, reconfig::RelationExpr(entry->name)});
      for (auto& mask : search_case_masks(topo.num_channels(), ++seed)) {
        cases.push_back(
            {spec, reconfig::RelationExpr(entry->name, std::move(mask))});
      }
    }
  }
  for (const auto& [spec, text] :
       {std::pair{"mesh:2x2:2", "transition|e-cube>negative-first/f.f"},
        std::pair{"mesh:3x3:2",
                  "transition|e-cube>negative-first/1ff.1ff"}}) {
    const topology::Topology topo = core::make_topology(spec);
    cases.push_back({spec, reconfig::RelationExpr::parse(text, topo)});
  }
  return cases;
}

}  // namespace wormnet::test
