// Independent reference solvers for the benchmark's answer checks. They
// share no code with the library's algorithms: each reads only the edge
// list (a replay of the same generator stream, or a Graph's edges) and
// solves the problem conventionally.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kUnreached =
    std::numeric_limits<std::int64_t>::max();

/// (from, to, length) edge callback and a replayable edge source.
using EdgeSink =
    std::function<void(std::uint32_t, std::uint32_t, std::int64_t)>;
using EdgeSource = std::function<void(const EdgeSink&)>;

/// Forward-star adjacency built by two replays of an edge source.
struct Adjacency {
  std::vector<std::uint64_t> offsets;  ///< n + 1
  std::vector<std::uint32_t> to;
  std::vector<std::uint32_t> length;
  std::size_t num_vertices() const { return offsets.size() - 1; }
};

Adjacency build_adjacency(std::size_t n, const EdgeSource& edges);

/// Binary-heap Dijkstra; kUnreached where no path exists.
std::vector<std::int64_t> dijkstra(const Adjacency& g, std::uint32_t source);

/// Hop-bounded Bellman-Ford: dist[v] = shortest length over walks of at
/// most k edges, hops[v] = the fewest edges among those shortest walks
/// (0 at the source and where unreached).
struct KHopAnswer {
  std::vector<std::int64_t> dist;
  std::vector<std::uint32_t> hops;
};
KHopAnswer khop_bellman_ford(const Adjacency& g, std::uint32_t source,
                             std::uint32_t k);

/// Edmonds-Karp maximum flow over capacities = edge lengths (parallel
/// edges add up). Dense residual matrix: meant for small graphs.
std::int64_t max_flow(const Adjacency& g, std::uint32_t source,
                      std::uint32_t sink);

}  // namespace perfbench
