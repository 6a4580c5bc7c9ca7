#include "core/graph.hpp"

#include <stdexcept>

namespace multival::core {

Components strongly_connected_components(const Digraph& g) {
  const std::size_t n = g.num_vertices();
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  Components r;
  r.component_of.assign(n, kNone);
  std::vector<std::uint32_t> index(n, kNone);
  std::vector<std::uint32_t> lowlink(n, 0);
  // Visited vertices whose component is still open: exactly those with an
  // index and no component yet, so membership needs no separate flag.
  std::vector<std::uint32_t> open;
  struct Frame {
    std::uint32_t v;
    std::size_t edge;  // next out-edge of v to follow
  };
  std::vector<Frame> call;
  std::uint32_t next_index = 0;
  const auto visit = [&](std::uint32_t v) {
    index[v] = lowlink[v] = next_index++;
    open.push_back(v);
    call.push_back(Frame{v, 0});
  };

  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != kNone) {
      continue;
    }
    visit(root);
    while (!call.empty()) {
      Frame& fr = call.back();
      const std::uint32_t v = fr.v;
      const auto edges = g.out(v);
      if (fr.edge < edges.size()) {
        const std::uint32_t w = edges[fr.edge++];
        if (index[w] == kNone) {
          visit(w);
        } else if (r.component_of[w] == kNone) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        const auto comp = static_cast<std::uint32_t>(r.num_components++);
        std::uint32_t w = kNone;
        do {
          w = open.back();
          open.pop_back();
          r.component_of[w] = comp;
        } while (w != v);
      }
      call.pop_back();
      if (!call.empty()) {
        const std::uint32_t parent = call.back().v;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
    }
  }
  return r;
}

std::vector<bool> closure(const Digraph& g, std::vector<bool> seed) {
  if (seed.size() != g.num_vertices()) {
    throw std::invalid_argument("closure: seed size mismatch");
  }
  std::vector<std::uint32_t> stack;
  for (std::uint32_t v = 0; v < seed.size(); ++v) {
    if (seed[v]) {
      stack.push_back(v);
    }
  }
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    for (const std::uint32_t w : g.out(v)) {
      if (!seed[w]) {
        seed[w] = true;
        stack.push_back(w);
      }
    }
  }
  return seed;
}

}  // namespace multival::core
