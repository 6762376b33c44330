#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer* t, const char* name, std::uint64_t query)
    : t_(t) {
  if (!t_->enabled_) return;
  Span s;
  s.name = name;
  s.query = query;
  s.parent = t_->open_.empty() ? -1 : t_->open_.back();
  s.start_s = seconds_since(t_->epoch_);
  index_ = static_cast<int>(t_->spans_.size());
  t_->spans_.push_back(std::move(s));
  t_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  t_->spans_[static_cast<std::size_t>(index_)].end_s =
      seconds_since(t_->epoch_);
  t_->open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

void Tracer::absorb(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

std::string Tracer::summary_json() const {
  // Children of one span never overlap (spans nest on one thread), so the
  // covered part is the sum of the direct children's durations.
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_cover[static_cast<std::size_t>(s.parent)] += s.seconds();
    }
  }
  struct Agg {
    std::uint64_t count = 0;
    double total = 0, self = 0;
  };
  std::map<std::string, Agg> agg;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Agg& a = agg[spans_[i].name];
    ++a.count;
    a.total += spans_[i].seconds();
    a.self += spans_[i].seconds() - child_cover[i];
  }
  std::ostringstream os;
  os.precision(17);
  os << "{";
  bool first = true;
  for (const auto& [name, a] : agg) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"count\": " << a.count
       << ", \"total_s\": " << a.total << ", \"self_s\": " << a.self << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

bool Tracer::write_json(const std::string& path,
                        const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << "{" << header << ", \"summary\": " << summary_json()
      << ", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
        << ", \"parent\": " << s.parent << ", \"query\": " << s.query << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void write_trace(const RunOptions& opt, const Tracer& tr) {
  if (!opt.trace || opt.trace_out.empty()) return;
  if (!tr.write_json(opt.trace_out, "\"env\": " + opt.env)) {
    std::cerr << "perfbench: could not write " << opt.trace_out << "\n";
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
