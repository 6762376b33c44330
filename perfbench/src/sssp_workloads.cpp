// The two SSSP workloads: a generator stream is frozen straight into the
// library's packed CSR (nga::compile_sssp_streamed), then all-destinations
// SSSP queries from fixed distinct sources are answered for the measured
// window with reset() reuse between queries.
//
//   rmat-sssp   R-MAT; serial snn::Simulator
//   relay-sssp  relay chain; serial snn::Simulator, and every query again
//               on an snn::ParallelSimulator (4 shards, up to 4 threads)
//
// Every serial answer is checked after the window against a Dijkstra over
// a replay of the same stream, relay answers also against the relay
// property, and parallel answers against the serial ones.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "graph/generators.h"
#include "nga/sssp_event.h"
#include "obs/metrics.h"
#include "snn/compiled_network.h"
#include "snn/parallel_sim.h"
#include "snn/partition.h"
#include "snn/simulator.h"
#include "snn/storage.h"

namespace perfbench {
namespace {

using sga::EdgeStream;
using sga::Time;

/// A generated input: n vertices, a replayable edge stream (the same seed
/// replays the identical sequence) and the fixed query sources.
struct Instance {
  std::size_t n = 0;
  std::function<void(const EdgeStream&)> edges;
  std::vector<std::uint32_t> sources;
  bool relay = false;
  /// Set-ups per run; setup_s is their median.
  int setups = 0;
};

// Sources are fixed ids rather than seed-drawn: on R-MAT the low ids are
// the hubs, so every source reaches the giant component and every query
// does comparable work; on the relay chain a source near 0 touches all n
// vertices. A source drawn at random would mix trivial and full queries
// and the median would jump between them.
Instance make_rmat(const RunOptions& opt) {
  Instance in;
  const std::size_t scale = opt.smoke ? 12 : 20;
  const std::size_t m = opt.smoke ? 40000 : 10000000;
  const std::uint64_t seed = derive_seed(opt.seed, 1);
  in.n = std::size_t{1} << scale;
  in.edges = [scale, m, seed](const EdgeStream& emit) {
    sga::stream_rmat(scale, m, 0.57, 0.19, 0.19, {1, 16}, seed, emit);
  };
  in.sources = {0, 1, 2, 3};
  in.setups = 3;
  return in;
}

Instance make_relay(const RunOptions& opt) {
  Instance in;
  const std::size_t n = opt.smoke ? 4096 : (std::size_t{1} << 20);
  const std::size_t max_skip = opt.smoke ? 100 : 1000;
  const std::uint64_t seed = derive_seed(opt.seed, 2);
  in.n = n;
  in.edges = [n, max_skip, seed](const EdgeStream& emit) {
    sga::stream_relay_chain(n, 8, max_skip, {1, 16}, seed, emit);
  };
  in.sources = {0, 1, 2, 3};
  in.relay = true;
  // Two set-ups, not three: each builds the cut-refined partition, which
  // is most of this workload's run time.
  in.setups = 2;
  return in;
}

struct Frozen {
  std::unique_ptr<sga::snn::CompiledNetwork> net;
  sga::snn::StreamBuildStats build;
  std::size_t replays = 0;
};

/// Freeze the instance; the emitter wrapper counts (and traces) every
/// replay the compiler asks for.
Frozen freeze(const Instance& in, Tracer& tr) {
  Frozen f;
  const auto emitter = [&](const EdgeStream& emit) {
    const auto s = tr.span("graph.replay");
    ++f.replays;
    in.edges(emit);
  };
  const auto s = tr.span("freeze");
  f.net = std::make_unique<sga::snn::CompiledNetwork>(
      sga::nga::compile_sssp_streamed(in.n, emitter,
                                      sga::snn::StoragePolicy::kAuto,
                                      &f.build));
  return f;
}

/// First answer per source, and which later answers disagreed with it.
struct Answers {
  std::vector<std::vector<Time>> first;
  std::vector<std::uint64_t> queries;
  std::vector<std::uint64_t> mismatched;
  /// Relay property input: (source index, spikes) of every query.
  std::vector<std::pair<std::size_t, std::uint64_t>> spikes;

  explicit Answers(std::size_t sources)
      : first(sources), queries(sources, 0), mismatched(sources, 0) {}

  void record(std::size_t i, const std::vector<Time>& fs,
              std::uint64_t spike_count) {
    ++queries[i];
    if (first[i].empty()) {
      first[i] = fs;
    } else if (fs != first[i]) {
      ++mismatched[i];
    }
    spikes.emplace_back(i, spike_count);
  }
};

/// What the window measured, for the result's metrics.
struct Window {
  std::vector<double> query_s;     ///< every timed serial query
  std::vector<double> par_s;       ///< every timed parallel query
  std::vector<double> traced_s;    ///< trace mode: serial, spans on
  std::vector<double> untraced_s;  ///< trace mode: serial, spans off
  sga::snn::SimStats last;
  std::uint64_t pool_misses = 0;
  std::vector<double> windows;  ///< lock-step windows, traced parallel queries
  double wall_s = 0;            ///< the window's length, whole rounds
};

/// One query on one engine: reset, inject, run, each traced.
template <class Engine>
sga::snn::SimStats answer(Engine& eng, std::uint32_t source,
                          const std::string& layer, std::uint64_t query,
                          Tracer& tr) {
  const auto s = tr.span((layer + ".query").c_str(), query);
  {
    const auto r = tr.span((layer + ".reset").c_str(), query);
    eng.reset();
  }
  eng.inject_spike(source, 0);
  const auto r = tr.span((layer + ".run").c_str(), query);
  return eng.run();
}

/// Answer whole rounds of the source list until the window has passed,
/// each query on the serial engine and, when given, on the parallel one.
/// In trace mode every other query runs with spans and the metrics
/// registry on, so traced and untraced times come from the same window.
Window measure(sga::snn::Simulator& sim, sga::snn::ParallelSimulator* psim,
               const Instance& in, const RunOptions& opt, Tracer& tr,
               Answers& ans, Answers& pans) {
  Window w;
  const auto t0 = Clock::now();
  std::uint64_t q = 0;
  do {
    for (std::size_t i = 0; i < in.sources.size(); ++i, ++q) {
      // The parity flips each round, so every source is traced in every
      // other round and traced and untraced queries have the same sources.
      const bool traced =
          opt.trace && (q + q / in.sources.size()) % 2 == 0;
      tr.set_enabled(traced);
      sga::obs::MetricsRegistry reg;
      const sga::obs::ScopedThreadMetrics install(traced ? &reg : nullptr);
      auto qt = Clock::now();
      const sga::snn::SimStats st =
          answer(sim, in.sources[i], "sim", q + 1, tr);
      const double dt = seconds_since(qt);
      w.query_s.push_back(dt);
      if (opt.trace) (traced ? w.traced_s : w.untraced_s).push_back(dt);
      w.pool_misses += st.pool_misses;
      w.last = st;
      ans.record(i, sim.first_spikes(), st.spikes);
      if (psim == nullptr) continue;

      qt = Clock::now();
      const sga::snn::SimStats pst =
          answer(*psim, in.sources[i], "psim", q + 1, tr);
      w.par_s.push_back(seconds_since(qt));
      if (traced) {
        // Every worker counts each window it runs; report windows.
        w.windows.push_back(static_cast<double>(reg.counter("psim.windows")) /
                            psim->num_threads());
      }
      pans.record(i, psim->first_spikes(), pst.spikes);
    }
  } while ((w.wall_s = seconds_since(t0)) < opt.seconds);
  tr.set_enabled(opt.trace);
  return w;
}

/// The independent checks, run after peak_rss_mib was read. The serial
/// answers are checked against Dijkstra (and, on the relay chain, the relay
/// property); the parallel answers against the serial ones.
void check_answers(const Instance& in, const RunOptions& opt, Answers& ans,
                   const Answers& pans, Result& res) {
  if (opt.corrupt) {
    // Damage one reached vertex of the first stored serial answer: both
    // the engine comparison and the Dijkstra check must catch it.
    for (Time& t : ans.first[0]) {
      if (t != sga::kNever && t > 0) {
        ++t;
        break;
      }
    }
  }
  for (const Answers* a : {static_cast<const Answers*>(&ans), &pans}) {
    for (std::size_t i = 0; i < in.sources.size(); ++i) {
      if (a->mismatched[i] != 0) {
        res.fail("answers for source " + std::to_string(in.sources[i]) +
                     " changed between queries",
                 a->mismatched[i]);
      }
    }
  }
  for (std::size_t i = 0; i < in.sources.size(); ++i) {
    if (pans.queries[i] != 0 && pans.first[i] != ans.first[i]) {
      res.fail("parallel answer differs from the serial engine for source " +
                   std::to_string(in.sources[i]),
               pans.queries[i]);
    }
  }
  const Adjacency g = build_adjacency(in.n, [&](const EdgeSink& sink) {
    in.edges([&](sga::VertexId u, sga::VertexId v, sga::Weight len) {
      sink(u, v, len);
    });
  });
  for (std::size_t i = 0; i < in.sources.size(); ++i) {
    const std::vector<std::int64_t> dist = dijkstra(g, in.sources[i]);
    const std::vector<Time>& fs = ans.first[i];
    bool ok = fs.size() == in.n;
    for (std::size_t v = 0; ok && v < in.n; ++v) {
      ok = fs[v] == sga::kNever ? dist[v] == kUnreached : fs[v] == dist[v];
    }
    if (!ok) {
      res.fail("first-spike times differ from Dijkstra for source " +
                   std::to_string(in.sources[i]),
               ans.queries[i]);
      continue;
    }
    if (!in.relay) continue;
    // Relay property: every vertex at or after the source fires, none
    // before it, and the spike count equals the number of fired vertices,
    // so each fires exactly once.
    const std::uint32_t src = in.sources[i];
    for (std::size_t v = 0; ok && v < in.n; ++v) {
      ok = (v >= src) == (fs[v] != sga::kNever);
    }
    std::uint64_t bad = 0;
    for (const Answers* a : {static_cast<const Answers*>(&ans), &pans}) {
      for (const auto& [j, spikes] : a->spikes) {
        if (j == i && (!ok || spikes != in.n - src)) ++bad;
      }
    }
    if (bad != 0) {
      res.fail("relay property broken for source " + std::to_string(src),
               bad);
    }
  }
}

/// One replay of the stream into a counting sink: the generator's own
/// cost, which the freeze pays once per replay.
std::pair<double, std::uint64_t> time_replay(const Instance& in, Tracer& tr) {
  std::uint64_t edges = 0;
  const auto t0 = Clock::now();
  {
    const auto s = tr.span("graph.replay");
    in.edges([&edges](sga::VertexId, sga::VertexId, sga::Weight) { ++edges; });
  }
  return {seconds_since(t0), edges};
}

/// Set up (freeze, [parallel engine,] serial engine) `in.setups` times,
/// keep the last, and answer queries for the window.
Result run_sssp(const Instance& in, const RunOptions& opt, bool parallel) {
  Result res;
  Tracer tr(opt.trace, Clock::now());
  sga::snn::ParallelConfig cfg;
  cfg.num_shards = 4;
  cfg.num_threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

  Frozen f;
  std::unique_ptr<sga::snn::ParallelSimulator> psim;
  std::unique_ptr<sga::snn::Simulator> sim;
  std::vector<double> setup_s, freeze_s;
  for (int k = 0; k < in.setups; ++k) {
    sim.reset();
    psim.reset();
    f = Frozen{};
    const auto t0 = Clock::now();
    f = freeze(in, tr);
    freeze_s.push_back(seconds_since(t0));
    if (parallel) {
      const auto s = tr.span("psim.ctor");
      psim = std::make_unique<sga::snn::ParallelSimulator>(*f.net, cfg);
    }
    {
      const auto s = tr.span("sim.ctor");
      sim = std::make_unique<sga::snn::Simulator>(*f.net);
    }
    setup_s.push_back(seconds_since(t0));
  }
  // One untimed query per engine, so the window starts with pools filled.
  sim->inject_spike(in.sources[0], 0);
  sim->run();
  if (psim) {
    psim->inject_spike(in.sources[0], 0);
    psim->run();
  }

  std::pair<double, std::uint64_t> replay{0, 0};
  double partition_s = 0;
  if (opt.trace) {
    replay = time_replay(in, tr);
    if (psim) {
      // The constructor partitions internally; time the partitioner on
      // its own so the shard split is the remainder.
      const auto t0 = Clock::now();
      const auto s = tr.span("partition");
      const sga::snn::Partition p =
          sga::snn::make_partition(*f.net, cfg.num_shards, cfg.partition);
      partition_s = seconds_since(t0);
    }
  }

  Answers ans(in.sources.size()), pans(in.sources.size());
  const Window w = measure(*sim, psim.get(), in, opt, tr, ans, pans);
  const double rss = peak_rss_mib();

  res.attempted = w.query_s.size() + w.par_s.size();
  res.metrics["setup_s"] = median(setup_s);
  res.metrics["query_s"] = median(w.query_s);
  // Answers per second of the window, on every engine that answered.
  res.metrics["qps"] = static_cast<double>(res.attempted) / w.wall_s;
  res.metrics["peak_rss_mib"] = rss;
  if (opt.trace) {
    auto& m = res.metrics;
    m["trace.overhead_s"] = median(w.traced_s) - median(w.untraced_s);
    const double fs = median(freeze_s);
    m["graph.replay_s"] = replay.first;
    m["graph.edges"] = static_cast<double>(replay.second);
    m["freeze.s"] = fs;
    m["freeze.replays"] = static_cast<double>(f.replays);
    m["freeze.self_s"] = fs - static_cast<double>(f.replays) * replay.first;
    m["freeze.peak_resident_mib"] =
        static_cast<double>(f.build.peak_resident_bytes) / (1 << 20);
    m["storage.csr_mib"] =
        static_cast<double>(f.net->csr_storage_bytes()) / (1 << 20);
    m["storage.bytes_per_syn"] = f.net->bytes_per_synapse();
    m["storage.encoding"] = sga::snn::encoding_code(f.net->storage_widths());

    const double run_s = median(tr.durations("sim.run"));
    m["sim.ctor_s"] = median(tr.durations("sim.ctor"));
    m["sim.reset_s"] = median(tr.durations("sim.reset"));
    m["sim.run_s"] = run_s;
    m["sim.deliveries"] = static_cast<double>(w.last.deliveries);
    m["sim.spikes"] = static_cast<double>(w.last.spikes);
    m["sim.T"] = static_cast<double>(w.last.end_time);
    m["sim.event_times"] = static_cast<double>(w.last.event_times);
    m["sim.decode_blocks"] = static_cast<double>(w.last.decode_blocks);
    m["sim.deliveries_per_s"] =
        static_cast<double>(w.last.deliveries) / run_s;
    m["sim.pool_misses"] = static_cast<double>(w.pool_misses);
    if (psim) {
      const double ctor_s = median(tr.durations("psim.ctor"));
      m["partition.s"] = partition_s;
      m["psim.ctor_s"] = ctor_s;
      m["psim.split_s"] = ctor_s - partition_s;
      m["psim.reset_s"] = median(tr.durations("psim.reset"));
      m["psim.run_s"] = median(tr.durations("psim.run"));
      m["psim.windows"] = median(w.windows);
      m["psim.steals"] = static_cast<double>(psim->steals());
      m["psim.skew"] = psim->max_skew();
      // Cross-shard synapses of the SSSP fabric are exactly the graph
      // edges whose endpoints sit on different shards (self-inhibition
      // never crosses), so a replay counts them without touching the CSR.
      const std::vector<std::uint32_t>& shard = psim->partition().shard_of;
      std::uint64_t cross = 0;
      sga::Weight min_delay = 0;
      in.edges([&](sga::VertexId u, sga::VertexId v, sga::Weight len) {
        if (shard[u] != shard[v]) {
          ++cross;
          if (min_delay == 0 || len < min_delay) min_delay = len;
        }
      });
      m["psim.cross_synapses"] = static_cast<double>(cross);
      m["psim.min_cross_delay"] = static_cast<double>(min_delay);
    }
  }
  sim.reset();
  psim.reset();
  f.net.reset();
  check_answers(in, opt, ans, pans, res);
  write_trace(opt, tr);
  return res;
}

}  // namespace

Result run_rmat_sssp(const RunOptions& opt) {
  return run_sssp(make_rmat(opt), opt, false);
}

Result run_relay_sssp(const RunOptions& opt) {
  return run_sssp(make_relay(opt), opt, true);
}

}  // namespace perfbench
