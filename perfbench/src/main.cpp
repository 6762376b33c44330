// perfbench: time-to-answer benchmark of the spiking graph-algorithm
// library. One run = one workload, one seed, one measured window; the last
// line of stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (untraced run) or every per-layer metric
// (--trace 1). See README.md for the workloads and the metric catalog.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Result;
using perfbench::RunOptions;

struct Metric {
  const char* name;
  const char* unit;
};

// Must list the same names and units as BENCHMARK.json (the smoke test
// compares them).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"query_s", "s"},
    {"qps", "1/s"},
    {"peak_rss_mib", "MiB"},
};

// Per-layer metrics, grouped by module. A workload that does not call a
// layer reports 0 for it (README.md lists which workload moves which).
constexpr Metric kPerLayer[] = {
    {"graph.replay_s", "s"},
    {"graph.edges", "count"},
    {"freeze.s", "s"},
    {"freeze.replays", "count"},
    {"freeze.self_s", "s"},
    {"freeze.peak_resident_mib", "MiB"},
    {"storage.csr_mib", "MiB"},
    {"storage.bytes_per_syn", "B"},
    {"storage.encoding", "code"},
    {"sim.ctor_s", "s"},
    {"sim.reset_s", "s"},
    {"sim.run_s", "s"},
    {"sim.deliveries", "count"},
    {"sim.spikes", "count"},
    {"sim.T", "steps"},
    {"sim.event_times", "count"},
    {"sim.decode_blocks", "count"},
    {"sim.deliveries_per_s", "1/s"},
    {"sim.pool_misses", "count"},
    {"partition.s", "s"},
    {"psim.ctor_s", "s"},
    {"psim.split_s", "s"},
    {"psim.reset_s", "s"},
    {"psim.run_s", "s"},
    {"psim.windows", "count"},
    {"psim.steals", "count"},
    {"psim.skew", "ratio"},
    {"psim.cross_synapses", "count"},
    {"psim.min_cross_delay", "steps"},
    {"svc.sssp_ms", "ms"},
    {"svc.khop_ms", "ms"},
    {"svc.maxflow_ms", "ms"},
    {"svc.p99_ms", "ms"},
    {"svc.serve_ms", "ms"},
    {"svc.wait_ms", "ms"},
    {"svc.cache_hits", "count"},
    {"svc.cache_misses", "count"},
    {"svc.checkpoints", "count"},
    {"svc.ckpt_kib", "KiB"},
    {"svc.ckpt_ms", "ms"},
    {"trace.overhead_s", "s"},
};

struct Workload {
  const char* name;
  Result (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"rmat-sssp", perfbench::run_rmat_sssp},
    {"relay-sssp", perfbench::run_relay_sssp},
    {"service-mix", perfbench::run_service_mix},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// The CPU's brand string, read with cpuid (no file outside the checkout
/// is read).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    if (first != std::string::npos) {
      return model.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

std::string env_json(const RunOptions& opt, const std::string& git_sha) {
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu_model())
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"git_sha\": \"" << json_escape(git_sha)
     << "\", \"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
     << ", \"seconds\": " << opt.seconds << ", \"trace\": " << opt.trace
     << ", \"smoke\": " << opt.smoke << "}";
  return os.str();
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--corrupt] [--trace-out PATH] "
               "[--git-sha SHA]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string git_sha = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--corrupt") {
      opt.corrupt = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else if (a == "--git-sha") {
      git_sha = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(opt.seconds > 0 && opt.seconds <= 120)) {
    return usage("--seconds must be in (0, 120]");
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) wl = &w;
  }
  if (wl == nullptr) return usage("unknown workload");

  opt.env = env_json(opt, git_sha);
  std::cout << "{\"env\": " << opt.env << "}" << std::endl;
  Result res;
  try {
    res = wl->run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  for (const std::string& p : res.problems) {
    std::cerr << "perfbench: check failed: " << p << "\n";
  }

  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": "
     << (res.failed == 0 && res.checks_ok && res.attempted > 0 ? "true"
                                                                : "false")
     << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
     << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Metric& m) {
    const auto it = res.metrics.find(m.name);
    const double v = it == res.metrics.end() ? 0.0 : it->second;
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(v) ? v : 0.0) << ", \"unit\": \"" << m.unit
       << "\"}";
    first = false;
  };
  if (opt.trace) {
    for (const Metric& m : kPerLayer) emit(m);
  } else {
    for (const Metric& m : kEndToEnd) {
      if (res.metrics.count(m.name) == 0) {
        std::cerr << "perfbench: " << opt.workload << " did not measure "
                  << m.name << "\n";
        return 1;
      }
      emit(m);
    }
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}
