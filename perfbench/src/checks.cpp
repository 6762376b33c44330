#include "checks.h"

#include <algorithm>
#include <deque>
#include <queue>
#include <stdexcept>
#include <utility>

namespace perfbench {

Adjacency build_adjacency(std::size_t n, const EdgeSource& edges) {
  Adjacency g;
  g.offsets.assign(n + 1, 0);
  edges([&](std::uint32_t u, std::uint32_t, std::int64_t) {
    if (u >= n) throw std::runtime_error("edge source out of range");
    ++g.offsets[u + 1];
  });
  for (std::size_t v = 0; v < n; ++v) g.offsets[v + 1] += g.offsets[v];
  g.to.resize(g.offsets[n]);
  g.length.resize(g.offsets[n]);
  std::vector<std::uint64_t> fill(g.offsets.begin(), g.offsets.end() - 1);
  std::uint64_t seen = 0;
  edges([&](std::uint32_t u, std::uint32_t v, std::int64_t len) {
    if (++seen > g.offsets[n] || fill[u] >= g.offsets[u + 1] || v >= n ||
        len <= 0) {
      throw std::runtime_error("edge source did not replay identically");
    }
    g.to[fill[u]] = v;
    g.length[fill[u]] = static_cast<std::uint32_t>(len);
    ++fill[u];
  });
  if (seen != g.offsets[n]) {
    throw std::runtime_error("edge source did not replay identically");
  }
  return g;
}

std::vector<std::int64_t> dijkstra(const Adjacency& g, std::uint32_t source) {
  std::vector<std::int64_t> dist(g.num_vertices(), kUnreached);
  using Item = std::pair<std::int64_t, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[u]) continue;
    for (std::uint64_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
      const std::int64_t nd = d + g.length[e];
      if (nd < dist[g.to[e]]) {
        dist[g.to[e]] = nd;
        heap.emplace(nd, g.to[e]);
      }
    }
  }
  return dist;
}

KHopAnswer khop_bellman_ford(const Adjacency& g, std::uint32_t source,
                             std::uint32_t k) {
  const std::size_t n = g.num_vertices();
  KHopAnswer a;
  a.dist.assign(n, kUnreached);
  a.hops.assign(n, 0);
  a.dist[source] = 0;
  std::vector<std::int64_t> prev;
  for (std::uint32_t h = 1; h <= k; ++h) {
    prev = a.dist;  // walks of at most h-1 edges
    for (std::uint32_t u = 0; u < n; ++u) {
      if (prev[u] == kUnreached) continue;
      for (std::uint64_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
        const std::uint32_t v = g.to[e];
        const std::int64_t nd = prev[u] + g.length[e];
        if (nd < a.dist[v]) {
          a.dist[v] = nd;
          a.hops[v] = h;  // first round that reaches this length
        }
      }
    }
  }
  a.hops[source] = 0;
  return a;
}

std::int64_t max_flow(const Adjacency& g, std::uint32_t source,
                      std::uint32_t sink) {
  const std::size_t n = g.num_vertices();
  std::vector<std::int64_t> cap(n * n, 0);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint64_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
      cap[u * n + g.to[e]] += g.length[e];
    }
  }
  std::int64_t total = 0;
  std::vector<std::int64_t> pred(n);
  while (true) {
    std::fill(pred.begin(), pred.end(), -1);
    pred[source] = source;
    std::deque<std::uint32_t> bfs{source};
    while (!bfs.empty() && pred[sink] < 0) {
      const std::uint32_t u = bfs.front();
      bfs.pop_front();
      for (std::uint32_t v = 0; v < n; ++v) {
        if (pred[v] < 0 && cap[u * n + v] > 0) {
          pred[v] = u;
          bfs.push_back(v);
        }
      }
    }
    if (pred[sink] < 0) return total;
    std::int64_t push = std::numeric_limits<std::int64_t>::max();
    for (std::uint32_t v = sink; v != source;) {
      const auto u = static_cast<std::uint32_t>(pred[v]);
      push = std::min(push, cap[u * n + v]);
      v = u;
    }
    for (std::uint32_t v = sink; v != source;) {
      const auto u = static_cast<std::uint32_t>(pred[v]);
      cap[u * n + v] -= push;
      cap[v * n + u] += push;
      v = u;
    }
    total += push;
  }
}

}  // namespace perfbench
