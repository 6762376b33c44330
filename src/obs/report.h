// Machine-readable bench output: every bench binary mirrors its printed
// tables into a `BENCH_<name>.json` file so performance and cost numbers
// form a trajectory across commits instead of scrollback.
//
// Schema "sga-bench-v1" (docs/OBSERVABILITY.md has the worked example):
//   {
//     "schema":     "sga-bench-v1",
//     "bench":      "<name>",
//     "git_sha":    "<short sha or 'unknown'>",
//     "build_type": "<CMAKE_BUILD_TYPE>",
//     "context":    { ... free-form run configuration (workload, ...) },
//     "records":    [ {"name": "...", "T": .., "spikes": .., "wall_ns": ..,
//                      "events": .., ...}, ... ],
//     "tables":     [ {"id": "...", "title": "...", "columns": [...],
//                      "rows": [{col: cell, ...}, ...]}, ... ],
//     "metrics":    { MetricsRegistry::to_json() }        (optional)
//   }
// `records` carry the four canonical observables — Definition-3 execution
// time `T` (SNN steps), `spikes` (the energy proxy), `wall_ns` (monotonic
// wall time), `events` (synaptic deliveries) — plus any extra keys; absent
// observables are simply omitted. `tables` are the printed ASCII tables,
// cells as strings, for lossless diffing. bench_compare consumes the
// records; CI validates the schema keys.
//
// Output location: $SGA_BENCH_JSON_DIR if set, else the working directory.
// Set SGA_BENCH_JSON=0 to suppress writing entirely (benches stay pure
// text, e.g. under the repo-wide smoke loop on a read-only mount).
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"

namespace sga {
class Table;
}  // namespace sga

namespace sga::obs {

class BenchReport;

/// One bench run's record under construction. Returned by
/// BenchReport::record(); setters chain. The row is appended to the report
/// when the builder is destroyed (for the usual chained temporary, at the
/// end of the statement).
class BenchRecord {
 public:
  BenchRecord(BenchReport& report, const std::string& name);
  ~BenchRecord();
  BenchRecord(BenchRecord&&) = delete;
  BenchRecord(const BenchRecord&) = delete;

  /// Definition-3 execution time in SNN steps.
  BenchRecord& T(std::int64_t steps) { return set("T", Json(steps)); }
  /// Total spike count (the paper's energy proxy).
  BenchRecord& spikes(std::uint64_t n) { return set("spikes", Json(n)); }
  /// Monotonic wall time in nanoseconds.
  BenchRecord& wall_ns(std::uint64_t ns) { return set("wall_ns", Json(ns)); }
  /// Event count (synaptic deliveries processed).
  BenchRecord& events(std::uint64_t n) { return set("events", Json(n)); }
  /// Any additional key.
  BenchRecord& set(const std::string& key, Json value) {
    row_.set(key, std::move(value));
    return *this;
  }

 private:
  BenchReport& report_;
  Json row_;
};

class BenchReport {
 public:
  /// `name` is the bench id without the BENCH_ prefix or extension, e.g.
  /// "simulator" -> BENCH_simulator.json.
  explicit BenchReport(std::string name);

  /// Free-form run configuration recorded once per file (workload sizes,
  /// thread counts...).
  void context(const std::string& key, Json value);

  /// Build a named record; fill it through the returned builder (appended
  /// when the builder dies). Names should be stable across commits —
  /// bench_compare joins on them.
  BenchRecord record(const std::string& name) {
    return BenchRecord(*this, name);
  }

  /// Mirror a printed ASCII table (columns/rows as strings).
  void add_table(const std::string& id, const sga::Table& table);

  /// Attach a metrics dump (e.g. the registry a batch run filled).
  void metrics(const MetricsRegistry& registry);

  /// The document built so far.
  const Json& json() const { return doc_; }

  /// Write BENCH_<name>.json (pretty-printed) into $SGA_BENCH_JSON_DIR or
  /// the working directory; returns the path, or "" when writing is
  /// suppressed (SGA_BENCH_JSON=0) or fails (reported on stderr — a bench
  /// must never die because a results file could not be written).
  /// Called automatically by the destructor unless already written.
  std::string write();

  ~BenchReport();
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

 private:
  friend class BenchRecord;
  void commit_record(Json row) { records_.push(std::move(row)); }

  std::string name_;
  Json doc_;
  Json records_ = Json::array();
  Json tables_ = Json::array();
  Json context_ = Json::object();
  bool written_ = false;
};

/// Schema check used by bench_compare --validate and the CI smoke job:
/// returns an empty string when `doc` is a well-formed sga-bench-v1
/// document, else a description of the first problem.
std::string validate_bench_json(const Json& doc);

}  // namespace sga::obs
