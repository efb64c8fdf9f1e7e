// Every row of every relation, pinned.
//
// For each registry relation applicable to a handful of small topologies
// (plus a two-member transition union and an explicit table), one FNV-1a
// hash covers route() and waiting() at every state (input, at, dest): input
// ranges over the injection input and every channel into `at`, and dest
// over every other node.  A refactor of the relation interface must leave
// every candidate list, contents and order, exactly as it was.
//
// Regenerate the fixture with:  WORMNET_UPDATE_GOLDEN=1 ./test_relation_rows
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "wormnet/core/registry.hpp"
#include "wormnet/reconfig/union_routing.hpp"
#include "wormnet/routing/scripted.hpp"
#include "wormnet/routing/unrestricted.hpp"

namespace wormnet {
namespace {

using routing::ChannelSet;
using routing::RoutingFunction;
using topology::ChannelId;
using topology::NodeId;
using topology::Topology;

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(const ChannelSet& set) {
    add(set.size());
    for (const ChannelId c : set) add(c);
  }
};

/// "<topology> <relation> <states> <hash>" for one relation.
std::string row_line(const std::string& topo_spec, const Topology& topo,
                     const RoutingFunction& relation) {
  Fnv1a hash;
  std::size_t states = 0;
  for (NodeId at = 0; at < topo.num_nodes(); ++at) {
    ChannelSet inputs{topology::kInvalidChannel};
    for (const ChannelId c : topo.in_channels(at)) inputs.push_back(c);
    for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
      if (dest == at) continue;
      for (const ChannelId input : inputs) {
        hash.add(input);
        hash.add(at);
        hash.add(dest);
        hash.add(relation.route(input, at, dest));
        hash.add(relation.waiting(input, at, dest));
        ++states;
      }
    }
  }
  std::ostringstream os;
  os << topo_spec << ' ' << relation.name() << ' ' << states << ' ' << std::hex
     << hash.h << '\n';
  return os.str();
}

/// An input-dependent table on `topo`: exact rows for each node's first
/// input channel (unrestricted order, reversed), wildcard rows elsewhere
/// except toward node 0 (left empty), and a one-channel waiting table.
std::unique_ptr<routing::TableRouting> make_table(const Topology& topo) {
  const routing::UnrestrictedMinimal minimal(topo);
  std::map<routing::TableRouting::Key, ChannelSet> table;
  std::map<routing::TableRouting::Key, ChannelSet> waiting;
  for (NodeId at = 0; at < topo.num_nodes(); ++at) {
    const ChannelId first_in = topo.in_channels(at).front();
    for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
      if (dest == at) continue;
      const ChannelSet all = minimal.route(topology::kInvalidChannel, at, dest);
      table[{first_in, at, dest}] = ChannelSet(all.rbegin(), all.rend());
      if (dest == 0) continue;
      table[{topology::kInvalidChannel, at, dest}] = all;
      waiting[{topology::kInvalidChannel, at, dest}] = {all.front()};
    }
  }
  auto relation = std::make_unique<routing::TableRouting>(
      topo, "table", std::move(table),
      routing::RelationForm::kChannelNodeDest, routing::WaitMode::kSpecific);
  relation->set_waiting(std::move(waiting));
  return relation;
}

std::string all_rows() {
  std::string out;
  for (const char* spec : {"mesh:4x4:2", "torus:4x4:3", "hypercube:4:2",
                           "ring:6:2", "incoherent"}) {
    const Topology topo = core::make_topology(spec);
    for (const core::AlgorithmEntry* alg : core::algorithms_for(topo)) {
      out += row_line(spec, topo, *alg->make(topo));
    }
  }
  {
    // e-cube for every destination, west-first for the odd ones.
    const Topology topo = core::make_topology("mesh:4x4:2");
    reconfig::UnionSpec spec;
    spec.num_nodes = topo.num_nodes();
    spec.names = {"e-cube", "west-first"};
    spec.active.assign(2, std::vector<bool>(topo.num_nodes(), true));
    for (NodeId d = 0; d < topo.num_nodes(); d += 2) spec.active[1][d] = false;
    out += row_line("mesh:4x4:2", topo,
                    *reconfig::RelationExpr(spec).build(topo));
  }
  {
    const Topology topo = core::make_topology("ring:6:2");
    out += row_line("ring:6:2", topo, *make_table(topo));
  }
  return out;
}

TEST(RelationRows, EveryRowMatchesGolden) {
  const std::string actual = all_rows();
  const std::string path =
      std::string(WORMNET_GOLDEN_DIR) + "/relation_rows.txt";
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
}  // namespace wormnet
