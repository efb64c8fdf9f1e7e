#include "wormnet/graph/digraph.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <sstream>

namespace wormnet::graph {

Digraph::Digraph(std::size_t num_vertices) : adj_(num_vertices) {}

bool Digraph::add_edge(Vertex u, Vertex v) {
  assert(u < adj_.size() && v < adj_.size());
  auto& row = adj_[u];
  auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it != row.end() && *it == v) return false;
  row.insert(it, v);
  ++num_edges_;
  return true;
}

void Digraph::set_out(Vertex u, std::span<const Vertex> sorted) {
  assert(u < adj_.size());
  assert(std::ranges::adjacent_find(sorted, std::greater_equal<>()) ==
         sorted.end());
  auto& row = adj_[u];
  num_edges_ = num_edges_ - row.size() + sorted.size();
  row.assign(sorted.begin(), sorted.end());
}

bool Digraph::remove_edge(Vertex u, Vertex v) {
  assert(u < adj_.size());
  auto& row = adj_[u];
  auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) return false;
  row.erase(it);
  --num_edges_;
  return true;
}

bool Digraph::has_edge(Vertex u, Vertex v) const {
  assert(u < adj_.size());
  const auto& row = adj_[u];
  return std::binary_search(row.begin(), row.end(), v);
}

std::vector<std::size_t> Digraph::in_degrees() const {
  std::vector<std::size_t> degrees(adj_.size(), 0);
  for (const auto& row : adj_) {
    for (Vertex v : row) ++degrees[v];
  }
  return degrees;
}

namespace {
enum class Color : std::uint8_t { kWhite, kGray, kBlack };
}  // namespace

bool Digraph::has_cycle() const { return find_cycle().has_value(); }

std::optional<std::vector<Vertex>> Digraph::find_cycle() const {
  const std::size_t n = num_vertices();
  std::vector<Color> color(n, Color::kWhite);
  std::vector<Vertex> parent(n, 0);
  // Iterative DFS; the stack stores (vertex, next-child-index).
  std::vector<std::pair<Vertex, std::size_t>> stack;
  for (Vertex root = 0; root < n; ++root) {
    if (color[root] != Color::kWhite) continue;
    stack.clear();
    stack.emplace_back(root, 0);
    color[root] = Color::kGray;
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      const auto& row = adj_[u];
      if (idx < row.size()) {
        const Vertex v = row[idx++];
        if (color[v] == Color::kWhite) {
          color[v] = Color::kGray;
          parent[v] = u;
          stack.emplace_back(v, 0);
        } else if (color[v] == Color::kGray) {
          // Back edge u -> v closes a cycle v -> ... -> u -> v.
          std::vector<Vertex> cycle;
          for (Vertex w = u; w != v; w = parent[w]) cycle.push_back(w);
          cycle.push_back(v);
          std::reverse(cycle.begin(), cycle.end());
          return cycle;
        }
      } else {
        color[u] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::vector<Vertex>> Digraph::topological_order() const {
  const std::size_t n = num_vertices();
  std::vector<std::size_t> in_deg = in_degrees();
  std::vector<Vertex> order;
  order.reserve(n);
  std::vector<Vertex> frontier;
  for (Vertex v = 0; v < n; ++v) {
    if (in_deg[v] == 0) frontier.push_back(v);
  }
  while (!frontier.empty()) {
    const Vertex u = frontier.back();
    frontier.pop_back();
    order.push_back(u);
    for (Vertex v : adj_[u]) {
      if (--in_deg[v] == 0) frontier.push_back(v);
    }
  }
  if (order.size() != n) return std::nullopt;
  return order;
}

std::vector<Vertex> Digraph::tarjan_scc(std::size_t& num_components) const {
  const std::size_t n = num_vertices();
  constexpr Vertex kUnvisited = static_cast<Vertex>(-1);
  std::vector<Vertex> index(n, kUnvisited);
  std::vector<Vertex> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<Vertex> scc_stack;
  std::vector<Vertex> component(n, 0);
  Vertex next_index = 0;
  Vertex next_component = 0;

  // Iterative Tarjan: frame = (vertex, next-child-index).
  std::vector<std::pair<Vertex, std::size_t>> call_stack;
  for (Vertex root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.emplace_back(root, 0);
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      auto& [u, idx] = call_stack.back();
      const auto& row = adj_[u];
      if (idx < row.size()) {
        const Vertex v = row[idx++];
        if (index[v] == kUnvisited) {
          index[v] = lowlink[v] = next_index++;
          scc_stack.push_back(v);
          on_stack[v] = true;
          call_stack.emplace_back(v, 0);
        } else if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
      } else {
        if (lowlink[u] == index[u]) {
          Vertex w;
          do {
            w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = false;
            component[w] = next_component;
          } while (w != u);
          ++next_component;
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const Vertex parent = call_stack.back().first;
          lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
        }
      }
    }
  }
  num_components = next_component;
  return component;
}

std::vector<bool> Digraph::reachable_from(Vertex start) const {
  std::vector<bool> seen(num_vertices(), false);
  std::vector<Vertex> stack{start};
  seen[start] = true;
  while (!stack.empty()) {
    const Vertex u = stack.back();
    stack.pop_back();
    for (Vertex v : adj_[u]) {
      if (!seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
  }
  return seen;
}

std::string Digraph::to_dot(
    const std::function<std::string(Vertex)>& label) const {
  std::ostringstream os;
  os << "digraph G {\n";
  for (Vertex u = 0; u < num_vertices(); ++u) {
    os << "  \"" << label(u) << "\";\n";
  }
  for (Vertex u = 0; u < num_vertices(); ++u) {
    for (Vertex v : adj_[u]) {
      os << "  \"" << label(u) << "\" -> \"" << label(v) << "\";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace wormnet::graph
