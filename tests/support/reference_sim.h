// Nested-vector reference simulator: the pre-CSR execution model, kept in
// the test tree as the single serial oracle for every production engine.
//
//   1. Agreement oracle. It runs directly on the MUTABLE snn::Network —
//      chasing the per-neuron std::vector<Synapse> on every fired neuron,
//      std::map bucket queue, one push per synapse — with step semantics
//      identical to snn::Simulator: same per-step delivery aggregation,
//      forced-spike handling, closed-form leak, horizon rules, injection
//      bounds and first-spike cause tie-break. The differential suites
//      (test_fuzz_agreement, test_parallel_agreement, test_packed_storage,
//      test_golden_trace, ...) assert that the calendar-queue Simulator,
//      its segmented fan-out kernel on every storage encoding, and the
//      sharded ParallelSimulator all reproduce this interpreter's runs.
//   2. Ablation baseline. bench_simulator's BM_SimLayout* pair measures it
//      against the CSR simulator on the same workload, so the flat-layout
//      win is a number, not an assertion.
//
// It is intentionally NOT an entry point for algorithms: everything
// production-facing consumes a CompiledNetwork.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/types.h"
#include "snn/network.h"
#include "snn/simulator.h"

namespace sga::snn {

/// Minimal event-driven LIF interpreter over a Network's nested synapse
/// vectors. One-shot: construct, inject, run once.
class ReferenceSimulator {
 public:
  explicit ReferenceSimulator(const Network& net);

  /// Same contract as Simulator::inject_spike before a run: 0 ≤ t ≤ kNever.
  void inject_spike(NeuronId id, Time t);

  /// Same contract as Simulator::run (no pause support) for the fields it
  /// fills: the semantic stats plus the event-stream counters
  /// peak_queue_events and max_bucket_occupancy, which do not depend on
  /// the queue. The calendar-only and kernel-only counters stay 0.
  /// config.max_time is clamped to kNever, exactly as in the Simulator.
  SimStats run(const SimConfig& config = {});

  Time first_spike(NeuronId id) const;
  const std::vector<Time>& first_spikes() const { return first_spike_; }
  Time last_spike(NeuronId id) const;
  std::uint32_t spike_count(NeuronId id) const;
  /// Presynaptic cause of the first spike (requires record_causes): among
  /// the deliveries arriving at that step, the largest weight, ties to the
  /// smallest source id; kNoNeuron for injected spikes.
  NeuronId first_spike_cause(NeuronId id) const;
  /// Membrane potential as of the last time the neuron was updated.
  Voltage potential(NeuronId id) const;
  const std::vector<std::pair<Time, NeuronId>>& spike_log() const {
    return spike_log_;
  }

 private:
  struct Delivery {
    NeuronId target;
    NeuronId source;
    SynWeight weight;
  };
  struct Bucket {
    std::vector<Delivery> deliveries;
    std::vector<NeuronId> forced;
  };

  /// Queue a bucket entry, tracking the pending-event peak.
  Bucket& bucket_at(Time t);
  void fire(NeuronId id, Time t);
  Voltage decayed_potential(NeuronId id, Time t) const;

  const Network& net_;
  bool ran_ = false;
  std::map<Time, Bucket> queue_;
  std::uint64_t pending_ = 0;

  std::vector<Voltage> v_;
  std::vector<Time> last_update_;
  std::vector<Time> first_spike_;
  std::vector<Time> last_spike_;
  std::vector<std::uint32_t> spike_count_;
  std::vector<NeuronId> cause_;

  // Per-bucket aggregation scratch, mirroring the production simulator so
  // the bench comparison isolates synapse layout, not loop structure.
  std::vector<SynWeight> accum_;
  std::vector<NeuronId> accum_cause_;
  std::vector<SynWeight> accum_cause_weight_;
  std::vector<char> touched_;
  std::vector<NeuronId> targets_scratch_;

  std::vector<char> is_terminal_;
  std::vector<char> is_watched_;
  bool watch_all_ = false;
  bool record_log_ = false;
  bool record_causes_ = false;
  std::vector<std::pair<Time, NeuronId>> spike_log_;
  SimStats stats_;
  Time max_time_ = kNever;
  std::uint64_t terminals_remaining_ = 0;
  bool terminal_fired_ = false;
};

}  // namespace sga::snn
