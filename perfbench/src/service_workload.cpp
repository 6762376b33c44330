// service-mix: one svc::QueryService (2 workers, a CheckpointStore and a
// checkpoint interval) driven as a closed loop by 2 client threads through
// the blocking query(): each client sends its next request only when the
// previous answer is back, as a caller that needs the answer does.
//
// A round is 400 requests: 340 SSSP (every one ticketed, so it writes
// checkpoints), 40 k-hop (k = 5 and 8, which share one fabric) and 20
// max-flow. All three graphs are small, so storage-layout changes should
// leave this workload unchanged; it exists for the cache, admission,
// checkpoint serialization and the k-hop tail.
#include <algorithm>
#include <stdexcept>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "core/random.h"
#include "graph/generators.h"
#include "svc/checkpoint.h"
#include "svc/service.h"

namespace perfbench {
namespace {

using sga::svc::QueryKind;
using sga::svc::QueryRequest;
using sga::svc::QueryResult;

constexpr unsigned kWorkers = 2;
constexpr unsigned kClients = 2;
/// One checkpoint per SSSP request: on this fabric a run's last delivery
/// falls between steps 49 and 83 for the sources of seeds 1-40 (a source
/// without out-edges ends at once and writes none), so a 40-step interval
/// pauses almost every run exactly once (the few past step 80, twice). An interval that some runs cross
/// once more than others (2 or 3 checkpoints at the 20 steps of
/// bench_snapshot) splits the SSSP latency into two modes, and the median
/// jumps between them from seed to seed.
constexpr sga::Time kCheckpointInterval = 40;
/// A k = 8 request costs 45-65 ms depending on its source and is most of
/// the service's busy time, so a round carries 20 of them (and 20 k = 5)
/// to keep the seed's choice of sources from setting qps.
constexpr int kRound = 400;
/// A set-up takes about 8 ms, so its median needs many more samples than
/// the SSSP workloads' multi-second set-ups.
constexpr int kSetups = 150;

struct Inputs {
  sga::Graph sssp, khop, flow;
  std::vector<QueryRequest> round;  ///< graph handles filled in per service
};

Inputs make_inputs(const RunOptions& opt) {
  Inputs in;
  sga::Rng r1(derive_seed(opt.seed, 3));
  in.sssp = opt.smoke ? sga::make_random_graph(200, 1200, {1, 16}, r1)
                      : sga::make_random_graph(2000, 12000, {1, 16}, r1);
  sga::Rng r2(derive_seed(opt.seed, 4));
  in.khop = opt.smoke ? sga::make_random_graph(60, 300, {1, 9}, r2)
                      : sga::make_random_graph(400, 2000, {1, 9}, r2);
  sga::Rng r3(derive_seed(opt.seed, 5));
  in.flow = opt.smoke ? sga::make_random_graph(12, 40, {1, 6}, r3)
                      : sga::make_random_graph(24, 96, {1, 6}, r3);

  // Each round position gets its own source, so a run averages over many
  // sources: 340 SSSP, 40 k-hop (k alternating 5 and 8, one fabric) and 20
  // max-flow (source, sink) pairs, in a fixed interleaved order.
  sga::Rng pick(derive_seed(opt.seed, 6));
  const auto vertex = [&pick](const sga::Graph& g) {
    return static_cast<sga::VertexId>(
        pick.uniform_int(0, static_cast<std::int64_t>(g.num_vertices()) - 1));
  };
  for (int pos = 0; pos < kRound; ++pos) {
    QueryRequest req;
    if (pos % 10 == 3) {
      req.kind = QueryKind::kKHop;
      req.source = vertex(in.khop);
      req.k = pos % 20 == 3 ? 5 : 8;
    } else if (pos % 20 == 9) {
      req.kind = QueryKind::kMaxFlow;
      req.source = vertex(in.flow);
      do {
        req.target = vertex(in.flow);
      } while (*req.target == req.source);
    } else {
      req.kind = QueryKind::kSssp;
      req.source = vertex(in.sssp);
      req.record_parents = false;
    }
    in.round.push_back(req);
  }
  return in;
}

/// One running service and the graph handles it gave out.
struct Service {
  std::unique_ptr<sga::svc::CheckpointStore> store;
  std::unique_ptr<sga::svc::QueryService> svc;
  std::uint64_t sssp = 0, khop = 0, flow = 0;

  QueryRequest bind(QueryRequest req) const {
    req.graph = req.kind == QueryKind::kSssp   ? sssp
                : req.kind == QueryKind::kKHop ? khop
                                               : flow;
    return req;
  }
};

/// Start a service, register the graphs and pay every freeze once.
Service start(const Inputs& in, Tracer& tr) {
  Service s;
  const auto span = tr.span("svc.setup");
  s.store = std::make_unique<sga::svc::CheckpointStore>();
  sga::svc::ServiceOptions so;
  so.num_workers = kWorkers;
  so.checkpoint_interval = kCheckpointInterval;
  so.checkpoints = s.store.get();
  {
    const auto start = tr.span("svc.start");
    s.svc = std::make_unique<sga::svc::QueryService>(so);
  }
  {
    const auto add = tr.span("svc.add_graph");
    s.sssp = s.svc->add_graph(in.sssp);
    s.khop = s.svc->add_graph(in.khop);
    s.flow = s.svc->add_graph(in.flow);
  }
  // One request per fabric, each from vertex 0 to an end point that makes
  // its run short (a neighbour of 0; the last vertex for max-flow), so
  // the set-up time is the freezes and not a seed-drawn query's work.
  for (const int pos : {0, 3, 9}) {
    QueryRequest req = s.bind(in.round[static_cast<std::size_t>(pos)]);
    const sga::Graph& g = req.kind == QueryKind::kSssp   ? in.sssp
                          : req.kind == QueryKind::kKHop ? in.khop
                                                         : in.flow;
    req.source = 0;
    req.target = req.kind == QueryKind::kMaxFlow
                     ? static_cast<sga::VertexId>(g.num_vertices() - 1)
                     : g.edge(g.out_edges(0)[0]).to;
    req.ticket = 1;
    const auto warm = tr.span("svc.warmup");
    const QueryResult r = s.svc->query(req);
    if (!r.ok()) throw std::runtime_error("warm-up query failed: " + r.error);
  }
  return s;
}

/// The answer fields a request kind fills in.
struct Answer {
  std::vector<sga::Weight> dist;
  std::vector<std::uint32_t> hops;
  std::int64_t flow_value = 0;
  std::vector<std::int64_t> flow;
  bool operator==(const Answer&) const = default;
};

Answer answer_of(QueryResult&& r) {
  return Answer{std::move(r.dist), std::move(r.hops), r.flow_value,
                std::move(r.flow)};
}

struct Client {
  Tracer tr;
  std::vector<double> latency_s;
  std::vector<double> serve_s;
  std::vector<QueryKind> kind;
  std::vector<double> traced_s, untraced_s;
  std::vector<std::optional<Answer>> first;  ///< per round position
  std::vector<std::uint64_t> queries, mismatched;
  std::uint64_t not_ok = 0;
  bool aborted = false;  ///< the client thread stopped on an exception
  std::uint64_t checkpoints = 0, snap_bytes = 0, snapshots = 0,
                snapshot_ns = 0;
  double end_s = 0;
  std::string error;

  Client(bool trace, Clock::time_point epoch, std::size_t positions)
      : tr(trace, epoch),
        first(positions),
        queries(positions, 0),
        mismatched(positions, 0) {}
};

void client_main(const Service& s, const Inputs& in, const RunOptions& opt,
                 unsigned id, Clock::time_point t0, Client& c) {
  std::uint64_t seq = 0;
  do {
    for (std::size_t pos = 0; pos < in.round.size(); ++pos, ++seq) {
      QueryRequest req = s.bind(in.round[pos]);
      if (req.kind == QueryKind::kSssp) {
        req.ticket = (std::uint64_t{id + 1} << 40) | (seq + 1);
      }
      // Every other request is traced, and the parity flips each round, so
      // each position (and so each kind) is traced in every other round.
      const bool traced = opt.trace && (seq + seq / kRound) % 2 == 0;
      c.tr.set_enabled(traced);
      const auto qt = Clock::now();
      QueryResult r;
      {
        const auto span = c.tr.span("svc.query", seq + 1);
        r = s.svc->query(req);
      }
      const double dt = seconds_since(qt);
      c.latency_s.push_back(dt);
      c.kind.push_back(req.kind);
      if (opt.trace) (traced ? c.traced_s : c.untraced_s).push_back(dt);
      const auto& timers = r.metrics.timers();
      const auto req_t = timers.find("svc.request_ns");
      c.serve_s.push_back(
          req_t == timers.end()
              ? 0.0
              : static_cast<double>(req_t->second.total_ns) * 1e-9);
      c.checkpoints += r.metrics.counter("svc.checkpoints");
      c.snap_bytes += r.metrics.counter("snap.bytes");
      c.snapshots += r.metrics.counter("snap.snapshots");
      const auto snap_t = timers.find("snap.snapshot_ns");
      if (snap_t != timers.end()) c.snapshot_ns += snap_t->second.total_ns;
      if (!r.ok()) {
        ++c.not_ok;
        if (c.error.empty()) c.error = r.error;
        continue;
      }
      ++c.queries[pos];
      Answer a = answer_of(std::move(r));
      if (!c.first[pos]) {
        c.first[pos] = std::move(a);
      } else if (!(a == *c.first[pos])) {
        ++c.mismatched[pos];
      }
    }
  } while (seconds_since(t0) < opt.seconds);
  c.end_s = seconds_since(t0);
  c.tr.set_enabled(opt.trace);
}

std::int64_t to_check(sga::Weight d) {
  return d == sga::kInfiniteDistance ? kUnreached : d;
}

/// Independent check of one stored answer; true when it is right.
bool answer_ok(const Inputs& in, const QueryRequest& req, const Answer& a,
               const Adjacency& sssp, const Adjacency& khop,
               const Adjacency& flow) {
  if (req.kind == QueryKind::kSssp) {
    const std::vector<std::int64_t> d = dijkstra(sssp, req.source);
    if (a.dist.size() != d.size()) return false;
    for (std::size_t v = 0; v < d.size(); ++v) {
      if (to_check(a.dist[v]) != d[v]) return false;
    }
    return true;
  }
  if (req.kind == QueryKind::kKHop) {
    const KHopAnswer ref = khop_bellman_ford(khop, req.source, req.k);
    if (a.dist.size() != ref.dist.size() || a.hops.size() != ref.hops.size()) {
      return false;
    }
    for (std::size_t v = 0; v < ref.dist.size(); ++v) {
      if (to_check(a.dist[v]) != ref.dist[v] || a.hops[v] != ref.hops[v]) {
        return false;
      }
    }
    return true;
  }
  // Max-flow: the value must be the maximum, and the per-edge flow a
  // feasible flow of that value.
  if (a.flow_value != max_flow(flow, req.source, *req.target)) return false;
  const auto& edges = in.flow.edges();
  if (a.flow.size() != edges.size()) return false;
  std::vector<std::int64_t> net(in.flow.num_vertices(), 0);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (a.flow[e] < 0 || a.flow[e] > edges[e].length) return false;
    net[edges[e].from] -= a.flow[e];
    net[edges[e].to] += a.flow[e];
  }
  for (std::size_t v = 0; v < net.size(); ++v) {
    const std::int64_t want = v == req.source    ? -a.flow_value
                              : v == *req.target ? a.flow_value
                                                 : 0;
    if (net[v] != want) return false;
  }
  return true;
}

Adjacency adjacency_of(const sga::Graph& g) {
  return build_adjacency(g.num_vertices(), [&g](const EdgeSink& sink) {
    for (const sga::Edge& e : g.edges()) sink(e.from, e.to, e.length);
  });
}

}  // namespace

Result run_service_mix(const RunOptions& opt) {
  Result res;
  const Inputs in = make_inputs(opt);
  const auto epoch = Clock::now();
  Tracer tr(opt.trace, epoch);

  Service s;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    s.svc.reset();  // join the previous service's workers first
    s.store.reset();
    const auto t0 = Clock::now();
    s = start(in, tr);
    setup_s.push_back(seconds_since(t0));
  }
  const std::uint64_t misses_after_warmup = s.svc->stats().cache.misses;

  std::vector<Client> clients;
  clients.reserve(kClients);
  for (unsigned i = 0; i < kClients; ++i) {
    clients.emplace_back(opt.trace, epoch, in.round.size());
  }
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (unsigned i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        try {
          client_main(s, in, opt, i, t0, clients[i]);
        } catch (const std::exception& e) {
          clients[i].error = e.what();
          clients[i].aborted = true;
        }
      });
    }
  }
  const double rss = peak_rss_mib();
  const sga::svc::QueryService::Stats st = s.svc->stats();

  std::vector<double> lat, serve, wait, traced, untraced;
  std::vector<double> by_kind[3];
  double wall_s = 0;
  std::uint64_t checkpoints = 0, snap_bytes = 0, snapshots = 0, snap_ns = 0;
  for (Client& c : clients) {
    if (c.aborted) {
      throw std::runtime_error("client aborted: " + c.error);
    }
    for (std::size_t j = 0; j < c.latency_s.size(); ++j) {
      lat.push_back(c.latency_s[j]);
      serve.push_back(c.serve_s[j]);
      wait.push_back(c.latency_s[j] - c.serve_s[j]);
      by_kind[static_cast<int>(c.kind[j])].push_back(c.latency_s[j]);
    }
    traced.insert(traced.end(), c.traced_s.begin(), c.traced_s.end());
    untraced.insert(untraced.end(), c.untraced_s.begin(), c.untraced_s.end());
    wall_s = std::max(wall_s, c.end_s);
    checkpoints += c.checkpoints;
    snap_bytes += c.snap_bytes;
    snapshots += c.snapshots;
    snap_ns += c.snapshot_ns;
    tr.absorb(c.tr);
  }

  res.attempted = lat.size();
  res.metrics["setup_s"] = median(setup_s);
  res.metrics["query_s"] = median(lat);
  res.metrics["qps"] = static_cast<double>(lat.size()) / wall_s;
  res.metrics["peak_rss_mib"] = rss;
  if (opt.trace) {
    res.metrics["svc.sssp_ms"] = median(by_kind[0]) * 1e3;
    res.metrics["svc.khop_ms"] = median(by_kind[1]) * 1e3;
    res.metrics["svc.maxflow_ms"] = median(by_kind[2]) * 1e3;
    res.metrics["svc.p99_ms"] = quantile(lat, 0.99) * 1e3;
    res.metrics["svc.serve_ms"] = median(serve) * 1e3;
    res.metrics["svc.wait_ms"] = median(wait) * 1e3;
    res.metrics["svc.cache_hits"] = static_cast<double>(st.cache.hits);
    res.metrics["svc.cache_misses"] = static_cast<double>(st.cache.misses);
    res.metrics["svc.checkpoints"] = static_cast<double>(checkpoints);
    res.metrics["svc.ckpt_kib"] =
        snapshots ? static_cast<double>(snap_bytes) / snapshots / 1024 : 0;
    res.metrics["svc.ckpt_ms"] =
        snapshots ? static_cast<double>(snap_ns) / snapshots * 1e-6 : 0;
    res.metrics["trace.overhead_s"] = median(traced) - median(untraced);
  }

  // ---- checks (after peak_rss_mib) -------------------------------------
  if (st.cache.misses != misses_after_warmup) {
    res.checks_ok = false;
    res.problems.push_back(
        std::to_string(st.cache.misses - misses_after_warmup) +
        " cache misses after warm-up");
  }
  if (st.rejected != 0) {
    res.checks_ok = false;
    res.problems.push_back(std::to_string(st.rejected) +
                           " requests rejected at admission");
  }
  if (opt.corrupt && clients[0].first[0]) {
    ++clients[0].first[0]->dist[clients[0].first[0]->dist.size() - 1];
  }
  const Adjacency sssp = adjacency_of(in.sssp);
  const Adjacency khop = adjacency_of(in.khop);
  const Adjacency flow = adjacency_of(in.flow);
  for (std::size_t ci = 0; ci < clients.size(); ++ci) {
    const Client& c = clients[ci];
    if (c.not_ok != 0) {
      res.fail("client " + std::to_string(ci) + ": " + c.error, c.not_ok);
    }
    for (std::size_t pos = 0; pos < in.round.size(); ++pos) {
      if (c.mismatched[pos] != 0) {
        res.fail("answers at round position " + std::to_string(pos) +
                     " changed between requests",
                 c.mismatched[pos]);
      }
      if (c.first[pos] && !answer_ok(in, in.round[pos], *c.first[pos], sssp,
                                     khop, flow)) {
        res.fail("wrong answer at round position " + std::to_string(pos),
                 c.queries[pos] - c.mismatched[pos]);
      }
    }
  }
  write_trace(opt, tr);
  return res;
}

}  // namespace perfbench
