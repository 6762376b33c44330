// Shared pieces of the time-to-answer benchmark: run options, the result
// every workload fills in, the span tracer, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced-size inputs for the benchmark's own tests.
  bool smoke = false;
  /// Test hook: damage one stored answer before the checks run, so the
  /// tests can show that a wrong answer is caught.
  bool corrupt = false;
  /// Where the traced run writes its spans (empty = do not write).
  std::string trace_out;
  /// The run's environment record (a JSON object), copied into the trace.
  std::string env;
};

/// What one run reports. `metrics` holds every value the workload measured;
/// main() prints the end-to-end or per-layer subset by the catalog.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a check that is not tied to one operation fails (a cache
  /// miss after warm-up, a rejected request, a malformed answer table).
  bool checks_ok = true;
  std::map<std::string, double> metrics;
  /// Human-readable notes of failed checks, printed to stderr.
  std::vector<std::string> problems;

  void fail(const std::string& why, std::uint64_t ops) {
    failed += ops;
    problems.push_back(why);
  }
};

/// One traced interval: a call into a layer's public function, made from
/// the benchmark's own code.
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;          ///< index into the same span list, -1 = root
  std::uint64_t query = 0;  ///< 0 = set-up / not tied to one query
  double seconds() const { return end_s - start_s; }
};

/// In-memory span recorder for one thread. Disabled tracers record nothing
/// (each scope costs one branch), which is how the untraced runs use it.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t query);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  Scope span(const char* name, std::uint64_t query = 0) {
    return Scope(this, name, query);
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;
  /// Append another thread's spans (parent links are re-based).
  void absorb(const Tracer& other);
  /// Per span name: count, total and self seconds, where self time is a
  /// span's duration minus the part its direct children cover.
  std::string summary_json() const;
  /// {<header>, "summary": {...}, "spans": [...]}; `header` holds the
  /// caller's leading fields.
  bool write_json(const std::string& path, const std::string& header) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Write a traced run's spans to opt.trace_out (no-op when untraced).
void write_trace(const RunOptions& opt, const Tracer& tr);

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Process high-water resident set, MiB.
double peak_rss_mib();

/// splitmix64: independent generator seeds derived from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

Result run_rmat_sssp(const RunOptions& opt);
Result run_relay_sssp(const RunOptions& opt);
Result run_service_mix(const RunOptions& opt);

}  // namespace perfbench
