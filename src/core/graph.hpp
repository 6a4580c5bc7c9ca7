// The one graph kernel: a compressed-sparse-row digraph, Tarjan's strongly
// connected components and reachability closure.  Every SCC and closure in
// the library (tau-SCC contraction in bisim and imc lumping, bottom SCCs of
// a CTMC, Prob0/Prob1 precomputation, maximal end components) goes through
// these three.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace multival::core {

/// A directed graph over dense vertex ids 0..n-1, stored as CSR: the edges
/// of vertex v are targets()[offset[v] .. offset[v+1]).  Parallel edges and
/// self-loops are kept as given.
class Digraph {
 public:
  /// Builds a graph on @p num_vertices vertices from the edges that
  /// @p for_each_edge passes to its argument: for_each_edge(emit) must call
  /// emit(u, v) once per edge u -> v, and emit the same edges on both of
  /// the two calls it receives (one counts, one fills).  Each vertex keeps
  /// its out-edges in emission order.
  template <typename ForEachEdge>
  [[nodiscard]] static Digraph build(std::size_t num_vertices,
                                     ForEachEdge&& for_each_edge);

  [[nodiscard]] std::size_t num_vertices() const { return offset_.size() - 1; }

  /// Targets of the out-edges of @p v, in emission order.
  [[nodiscard]] std::span<const std::uint32_t> out(std::uint32_t v) const {
    return {target_.data() + offset_[v], target_.data() + offset_[v + 1]};
  }

 private:
  std::vector<std::size_t> offset_{0};
  std::vector<std::uint32_t> target_;
};

template <typename ForEachEdge>
Digraph Digraph::build(std::size_t num_vertices, ForEachEdge&& for_each_edge) {
  Digraph g;
  g.offset_.assign(num_vertices + 1, 0);
  for_each_edge([&](std::uint32_t u, std::uint32_t) { ++g.offset_[u + 1]; });
  for (std::size_t v = 0; v < num_vertices; ++v) {
    g.offset_[v + 1] += g.offset_[v];
  }
  g.target_.resize(g.offset_[num_vertices]);
  // offset_[u] serves as u's fill cursor and ends at u's end, i.e. at the
  // start of u + 1; shifting right by one restores the starts.
  for_each_edge([&](std::uint32_t u, std::uint32_t v) {
    g.target_[g.offset_[u]++] = v;
  });
  std::shift_right(g.offset_.begin(), g.offset_.end(), 1);
  g.offset_[0] = 0;
  return g;
}

/// The strongly connected components of a Digraph.
struct Components {
  std::vector<std::uint32_t> component_of;  // vertex -> component id
  std::size_t num_components = 0;
};

/// Tarjan's algorithm, iterative.  Roots are visited in ascending vertex
/// order and edges in stored order, so the numbering is a function of the
/// graph alone.  Components are numbered as they complete, which is reverse
/// topological order: every edge u -> v has
/// component_of[u] >= component_of[v], with equality iff u and v lie in one
/// component.
[[nodiscard]] Components strongly_connected_components(const Digraph& g);

/// @p seed plus every vertex reachable from it.  For the vertices that can
/// reach the seed, pass the predecessor graph.
[[nodiscard]] std::vector<bool> closure(const Digraph& g,
                                        std::vector<bool> seed);

}  // namespace multival::core
