// Tests for the graph kernel (core/graph.hpp): the CSR builder, Tarjan's
// strongly connected components and reachability closure, checked against
// brute force on seeded random digraphs with self-loops, duplicate edges and
// isolated vertices.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/graph.hpp"

namespace {

using multival::core::closure;
using multival::core::Components;
using multival::core::Digraph;
using multival::core::strongly_connected_components;

using Edge = std::pair<std::uint32_t, std::uint32_t>;

struct EdgeList {
  std::size_t n = 0;
  std::vector<Edge> edges;  // in emission order
};

constexpr std::uint32_t kSeedsPerSize = 3;
constexpr std::size_t kMaxVertices = 60;

/// A random digraph on @p n vertices: average out-degree up to 3, about one
/// vertex in six isolated, with planted self-loops and duplicate edges.
EdgeList random_graph(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  EdgeList g;
  g.n = n;
  if (n == 0) {
    return g;
  }
  std::vector<bool> isolated(n);
  for (std::size_t v = 0; v < n; ++v) {
    isolated[v] = rng() % 6 == 0;
  }
  const std::size_t m = rng() % (3 * n + 1);
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<std::uint32_t>(rng() % n);
    auto v = static_cast<std::uint32_t>(rng() % n);
    if (rng() % 8 == 0) {
      v = u;
    }
    if (isolated[u] || isolated[v]) {
      continue;
    }
    g.edges.emplace_back(u, v);
    if (rng() % 8 == 0) {
      g.edges.emplace_back(u, v);
    }
  }
  return g;
}

Digraph build(const EdgeList& g) {
  return Digraph::build(g.n, [&](auto&& emit) {
    for (const auto& [u, v] : g.edges) {
      emit(u, v);
    }
  });
}

/// reach[u][v]: v is reachable from u by zero or more edges (Warshall).
std::vector<std::vector<bool>> reachability(const EdgeList& g) {
  std::vector<std::vector<bool>> reach(g.n, std::vector<bool>(g.n, false));
  for (std::size_t v = 0; v < g.n; ++v) {
    reach[v][v] = true;
  }
  for (const auto& [u, v] : g.edges) {
    reach[u][v] = true;
  }
  for (std::size_t k = 0; k < g.n; ++k) {
    for (std::size_t u = 0; u < g.n; ++u) {
      if (!reach[u][k]) {
        continue;
      }
      for (std::size_t v = 0; v < g.n; ++v) {
        if (reach[k][v]) {
          reach[u][v] = true;
        }
      }
    }
  }
  return reach;
}

/// Calls @p f(seed, edge list) for every random graph of the suite.
template <typename F>
void for_each_random_graph(F&& f) {
  for (std::size_t n = 0; n <= kMaxVertices; ++n) {
    for (std::uint32_t k = 0; k < kSeedsPerSize; ++k) {
      const auto seed = static_cast<std::uint32_t>(n * kSeedsPerSize + k);
      f(seed, random_graph(seed, n));
    }
  }
}

TEST(Graph, BuilderKeepsEmissionOrder) {
  for_each_random_graph([](std::uint32_t seed, const EdgeList& g) {
    const Digraph d = build(g);
    ASSERT_EQ(d.num_vertices(), g.n) << "seed " << seed;
    std::vector<std::vector<std::uint32_t>> expected(g.n);
    for (const auto& [u, v] : g.edges) {
      expected[u].push_back(v);
    }
    for (std::uint32_t u = 0; u < g.n; ++u) {
      const auto out = d.out(u);
      EXPECT_EQ(std::vector<std::uint32_t>(out.begin(), out.end()),
                expected[u])
          << "seed " << seed << " vertex " << u;
    }
  });
}

TEST(Graph, ComponentsAreMutualReachabilityClasses) {
  for_each_random_graph([](std::uint32_t seed, const EdgeList& g) {
    const Components c = strongly_connected_components(build(g));
    const auto reach = reachability(g);
    ASSERT_EQ(c.component_of.size(), g.n) << "seed " << seed;
    std::set<std::uint32_t> ids;
    for (std::uint32_t u = 0; u < g.n; ++u) {
      ASSERT_LT(c.component_of[u], c.num_components) << "seed " << seed;
      ids.insert(c.component_of[u]);
      for (std::uint32_t v = 0; v < g.n; ++v) {
        EXPECT_EQ(c.component_of[u] == c.component_of[v],
                  reach[u][v] && reach[v][u])
            << "seed " << seed << " vertices " << u << ", " << v;
      }
    }
    EXPECT_EQ(ids.size(), c.num_components) << "seed " << seed;  // dense ids
  });
}

TEST(Graph, ComponentIdsAreReverseTopological) {
  for_each_random_graph([](std::uint32_t seed, const EdgeList& g) {
    const Components c = strongly_connected_components(build(g));
    for (const auto& [u, v] : g.edges) {
      EXPECT_GE(c.component_of[u], c.component_of[v])
          << "seed " << seed << " edge " << u << " -> " << v;
    }
  });
}

TEST(Graph, NumberingFollowsCompletionOrder) {
  // A cycle 0 -> 1 -> 2 -> 0 with an exit 2 -> 3: vertex 3 completes first.
  const Components cycle = strongly_connected_components(
      build(EdgeList{4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}}}));
  EXPECT_EQ(cycle.num_components, 2u);
  EXPECT_EQ(cycle.component_of, (std::vector<std::uint32_t>{1, 1, 1, 0}));
  // Successors complete in edge order, the root last.
  const Components fan =
      strongly_connected_components(build(EdgeList{3, {{0, 2}, {0, 1}}}));
  EXPECT_EQ(fan.component_of, (std::vector<std::uint32_t>{2, 1, 0}));
}

TEST(Graph, ClosureMatchesBruteForce) {
  for_each_random_graph([](std::uint32_t seed, const EdgeList& g) {
    std::mt19937 rng(seed ^ 0x9e3779b9u);
    std::vector<bool> seed_set(g.n);
    for (std::size_t v = 0; v < g.n; ++v) {
      seed_set[v] = rng() % 5 == 0;
    }
    const auto reach = reachability(g);
    std::vector<bool> expected(g.n, false);
    for (std::size_t s = 0; s < g.n; ++s) {
      if (!seed_set[s]) {
        continue;
      }
      for (std::size_t v = 0; v < g.n; ++v) {
        if (reach[s][v]) {
          expected[v] = true;
        }
      }
    }
    EXPECT_EQ(closure(build(g), seed_set), expected) << "seed " << seed;
  });
}

TEST(Graph, EmptyGraph) {
  const Digraph d = build(EdgeList{});
  EXPECT_EQ(d.num_vertices(), 0u);
  EXPECT_EQ(strongly_connected_components(d).num_components, 0u);
  EXPECT_TRUE(closure(d, {}).empty());
}

TEST(Graph, ClosureRejectsSeedOfWrongSize) {
  const Digraph d = build(EdgeList{2, {{0, 1}}});
  EXPECT_THROW((void)closure(d, std::vector<bool>(3)), std::invalid_argument);
}

}  // namespace
