#include "wormnet/core/registry.hpp"

#include <sstream>
#include <stdexcept>

#include "wormnet/routing/dateline.hpp"
#include "wormnet/routing/dimension_order.hpp"
#include "wormnet/routing/duato_adaptive.hpp"
#include "wormnet/routing/enhanced_hypercube.hpp"
#include "wormnet/routing/examples.hpp"
#include "wormnet/routing/hpl.hpp"
#include "wormnet/routing/turn_model.hpp"
#include "wormnet/routing/unrestricted.hpp"
#include "wormnet/topology/builders.hpp"
#include "wormnet/util/number.hpp"

namespace wormnet::core {
namespace {

using topology::Topology;

bool is_mesh(const Topology& t) {
  if (!t.is_cube()) return false;
  for (std::size_t d = 0; d < t.num_dims(); ++d) {
    if (t.cube().wraps[d]) return false;
  }
  return !t.cube().unidirectional;
}

bool has_wrap(const Topology& t) {
  if (!t.is_cube()) return false;
  for (std::size_t d = 0; d < t.num_dims(); ++d) {
    if (t.cube().wraps[d]) return true;
  }
  return false;
}

bool is_hypercube(const Topology& t) {
  if (!t.is_cube() || t.cube().unidirectional) return false;
  for (std::uint32_t k : t.cube().radices) {
    if (k != 2) return false;
  }
  return true;
}

std::vector<AlgorithmEntry> build_registry() {
  std::vector<AlgorithmEntry> reg;

  reg.push_back({"e-cube",
                 "deterministic dimension-order routing (mesh/hypercube)",
                 [](const Topology& t) {
                   return std::make_unique<routing::DimensionOrder>(t);
                 },
                 [](const Topology& t) { return is_mesh(t); }});

  reg.push_back({"dateline",
                 "Dally-Seitz dateline VC routing (ring/torus, >= 2 VCs)",
                 [](const Topology& t) {
                   return std::make_unique<routing::DatelineRouting>(t);
                 },
                 [](const Topology& t) {
                   return has_wrap(t) && t.cube().vcs >= 2;
                 }});

  reg.push_back({"west-first", "turn-model partially adaptive (2-D mesh)",
                 [](const Topology& t) {
                   return std::make_unique<routing::WestFirst>(t);
                 },
                 [](const Topology& t) {
                   return is_mesh(t) && t.num_dims() == 2;
                 }});

  reg.push_back({"north-last", "turn-model partially adaptive (2-D mesh)",
                 [](const Topology& t) {
                   return std::make_unique<routing::NorthLast>(t);
                 },
                 [](const Topology& t) {
                   return is_mesh(t) && t.num_dims() == 2;
                 }});

  reg.push_back({"negative-first", "turn-model partially adaptive (n-D mesh)",
                 [](const Topology& t) {
                   return std::make_unique<routing::NegativeFirst>(t);
                 },
                 [](const Topology& t) { return is_mesh(t); }});

  reg.push_back(
      {"negative-first-nonmin",
       "turn-model, nonminimal negative phase (n-D mesh)",
       [](const Topology& t) {
         return std::make_unique<routing::NegativeFirst>(t, true);
       },
       [](const Topology& t) { return is_mesh(t); }});

  reg.push_back(
      {"duato-mesh", "fully adaptive, e-cube escape on vc0 (mesh, >= 2 VCs)",
       [](const Topology& t) { return routing::make_duato_mesh(t); },
       [](const Topology& t) {
         return is_mesh(t) && !is_hypercube(t) && t.cube().vcs >= 2;
       }});

  reg.push_back(
      {"duato-hypercube",
       "fully adaptive, e-cube escape on vc0 (hypercube, >= 2 VCs)",
       [](const Topology& t) { return routing::make_duato_hypercube(t); },
       [](const Topology& t) { return is_hypercube(t) && t.cube().vcs >= 2; }});

  reg.push_back(
      {"duato-torus",
       "fully adaptive, dateline escape on vc0/vc1 (torus, >= 3 VCs)",
       [](const Topology& t) { return routing::make_duato_torus(t); },
       [](const Topology& t) { return has_wrap(t) && t.cube().vcs >= 3; }});

  reg.push_back({"unrestricted",
                 "minimal fully adaptive with no restrictions (deadlock-prone)",
                 [](const Topology& t) {
                   return std::make_unique<routing::UnrestrictedMinimal>(t);
                 },
                 [](const Topology& t) { return t.is_cube(); }});

  reg.push_back({"hpl",
                 "[companion] Highest-Positive-Last, nonminimal, no VCs (mesh)",
                 [](const Topology& t) {
                   return std::make_unique<routing::HighestPositiveLast>(t);
                 },
                 [](const Topology& t) { return is_mesh(t); }});

  reg.push_back(
      {"hpl-minimal", "[companion] Highest-Positive-Last, minimal core (mesh)",
       [](const Topology& t) {
         return std::make_unique<routing::HighestPositiveLast>(t, false);
       },
       [](const Topology& t) { return is_mesh(t); }});

  reg.push_back(
      {"enhanced",
       "[companion] Enhanced Fully Adaptive (hypercube, 2 VCs)",
       [](const Topology& t) {
         return std::make_unique<routing::EnhancedFullyAdaptive>(t);
       },
       [](const Topology& t) { return is_hypercube(t) && t.cube().vcs >= 2; }});

  reg.push_back(
      {"enhanced-relaxed",
       "[companion] Enhanced with the Theorem-6 restriction removed (deadlocks)",
       [](const Topology& t) {
         return std::make_unique<routing::EnhancedFullyAdaptive>(t, true);
       },
       [](const Topology& t) { return is_hypercube(t) && t.cube().vcs >= 2; }});

  reg.push_back({"incoherent",
                 "[companion] Duato's incoherent example (wait-on-any)",
                 [](const Topology& t) {
                   return std::make_unique<routing::IncoherentRouting>(t);
                 },
                 [](const Topology& t) {
                   return t.name() == "incoherent-net";
                 }});

  reg.push_back(
      {"incoherent-specific",
       "[companion] Duato's incoherent example (wait-specific; deadlocks)",
       [](const Topology& t) {
         return std::make_unique<routing::IncoherentRouting>(t, true);
       },
       [](const Topology& t) { return t.name() == "incoherent-net"; }});

  return reg;
}

}  // namespace

const std::vector<AlgorithmEntry>& all_algorithms() {
  static const std::vector<AlgorithmEntry> registry = build_registry();
  return registry;
}

std::vector<const AlgorithmEntry*> algorithms_for(const Topology& topo) {
  std::vector<const AlgorithmEntry*> out;
  for (const auto& entry : all_algorithms()) {
    if (entry.applicable(topo)) out.push_back(&entry);
  }
  return out;
}

namespace {

std::vector<std::string> split_spec(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream stream(text);
  std::string part;
  while (std::getline(stream, part, sep)) parts.push_back(part);
  return parts;
}

std::uint32_t parse_count(const std::string& text, const std::string& spec) {
  const auto v = util::read_number<std::uint32_t>(text);
  if (!v || v.value == 0 || v.value > 1u << 20) {
    throw std::invalid_argument("bad number '" + text + "' in topology spec '" +
                                spec + "'");
  }
  return v.value;
}

}  // namespace

topology::Topology make_topology(const std::string& spec) {
  const auto parts = split_spec(spec, ':');
  if (parts.empty()) throw std::invalid_argument("empty topology spec");
  const std::string& kind = parts[0];
  if (kind == "incoherent") return routing::make_incoherent_net();
  if (parts.size() < 2) {
    throw std::invalid_argument("topology spec needs a size: " + spec);
  }
  const std::uint8_t vcs =
      parts.size() > 2
          ? static_cast<std::uint8_t>(parse_count(parts[2], spec))
          : 1;
  if (kind == "hypercube") {
    return topology::make_hypercube(parse_count(parts[1], spec), vcs);
  }
  if (kind == "ring") {
    return topology::make_ring(parse_count(parts[1], spec), vcs);
  }
  if (kind == "uniring") {
    return topology::make_unidirectional_ring(parse_count(parts[1], spec),
                                              vcs);
  }
  std::vector<std::uint32_t> radices;
  for (const std::string& r : split_spec(parts[1], 'x')) {
    radices.push_back(parse_count(r, spec));
  }
  if (kind == "mesh") return topology::make_mesh(radices, vcs);
  if (kind == "torus") return topology::make_torus(radices, vcs);
  throw std::invalid_argument("unknown topology kind: " + kind);
}

std::string canonical_algorithm_name(const std::string& name,
                                     const Topology& topo) {
  if (name == "minimal-noescape") return "unrestricted";
  if (name == "duato") {
    for (const char* candidate :
         {"duato-hypercube", "duato-mesh", "duato-torus"}) {
      for (const auto& entry : all_algorithms()) {
        if (entry.name == candidate && entry.applicable(topo)) {
          return candidate;
        }
      }
    }
    throw std::invalid_argument(
        "alias 'duato' has no applicable construction for " + topo.name() +
        " (mesh/hypercube need >= 2 VCs, torus >= 3)");
  }
  return name;
}

std::unique_ptr<routing::RoutingFunction> make_algorithm(
    const std::string& name, const Topology& topo) {
  const std::string canonical = canonical_algorithm_name(name, topo);
  for (const auto& entry : all_algorithms()) {
    if (entry.name == canonical) {
      if (!entry.applicable(topo)) {
        throw std::invalid_argument("algorithm '" + canonical +
                                    "' not applicable to " + topo.name());
      }
      return entry.make(topo);
    }
  }
  throw std::invalid_argument("unknown algorithm '" + name + "'");
}

}  // namespace wormnet::core
