#include "reference_sim.h"

#include <algorithm>

#include "core/error.h"

namespace sga::snn {

ReferenceSimulator::ReferenceSimulator(const Network& net) : net_(net) {
  const std::size_t n = net.num_neurons();
  v_.resize(n);
  last_update_.assign(n, 0);
  first_spike_.assign(n, kNever);
  last_spike_.assign(n, kNever);
  spike_count_.assign(n, 0);
  cause_.assign(n, kNoNeuron);
  accum_.assign(n, 0);
  accum_cause_.assign(n, kNoNeuron);
  accum_cause_weight_.assign(n, 0);
  touched_.assign(n, 0);
  is_terminal_.assign(n, 0);
  is_watched_.assign(n, 0);
  for (NeuronId i = 0; i < n; ++i) v_[i] = net.params(i).v_reset;
}

ReferenceSimulator::Bucket& ReferenceSimulator::bucket_at(Time t) {
  if (++pending_ > stats_.peak_queue_events) {
    stats_.peak_queue_events = pending_;
  }
  return queue_[t];
}

void ReferenceSimulator::inject_spike(NeuronId id, Time t) {
  SGA_REQUIRE(id < net_.num_neurons(), "inject_spike: bad neuron " << id);
  SGA_REQUIRE(t >= 0, "inject_spike: negative time " << t);
  SGA_REQUIRE(t <= kNever, "inject_spike: time " << t << " beyond kNever");
  SGA_REQUIRE(!ran_, "ReferenceSimulator is one-shot");
  bucket_at(t).forced.push_back(id);
}

Voltage ReferenceSimulator::decayed_potential(NeuronId id, Time t) const {
  const NeuronParams& p = net_.params(id);
  const Time dt = t - last_update_[id];
  SGA_CHECK(dt >= 0, "time went backwards for neuron " << id);
  return decay_potential(v_[id], p.v_reset, p.tau, dt);
}

void ReferenceSimulator::fire(NeuronId id, Time t) {
  const bool first_fire = first_spike_[id] == kNever;
  v_[id] = net_.params(id).v_reset;
  last_update_[id] = t;
  ++spike_count_[id];
  ++stats_.spikes;
  if (first_fire) first_spike_[id] = t;
  last_spike_[id] = t;
  if (record_log_ && (watch_all_ || is_watched_[id])) {
    spike_log_.emplace_back(t, id);
  }
  if (is_terminal_[id] && !terminal_fired_ && first_fire) {
    --terminals_remaining_;
    if (terminals_remaining_ == 0) {
      terminal_fired_ = true;
      stats_.hit_terminal = true;
      stats_.execution_time = t;
    }
  }
  // Nested-vector fan-out: one heap-allocated vector per neuron, one queue
  // lookup per synapse. Subtraction-form horizon test, as in the Simulator.
  for (const Synapse& s : net_.out_synapses(id)) {
    if (s.delay > max_time_ - t) {
      stats_.hit_time_limit = true;
      continue;
    }
    bucket_at(t + s.delay).deliveries.push_back(
        Delivery{s.target, id, s.weight});
  }
}

SimStats ReferenceSimulator::run(const SimConfig& config) {
  SGA_REQUIRE(!ran_, "ReferenceSimulator::run is one-shot");
  SGA_REQUIRE(config.pause_time == kNever,
              "ReferenceSimulator does not implement pausing");
  ran_ = true;
  record_log_ = config.record_spike_log;
  record_causes_ = config.record_causes;
  max_time_ = std::min(config.max_time, kNever);
  std::uint64_t distinct_terminals = 0;
  for (const NeuronId t : config.terminal_neurons) {
    SGA_REQUIRE(t < net_.num_neurons(), "bad terminal neuron " << t);
    if (!is_terminal_[t]) {
      is_terminal_[t] = 1;
      ++distinct_terminals;
    }
  }
  terminals_remaining_ =
      config.terminate_on_all ? distinct_terminals
                              : std::min<std::uint64_t>(1, distinct_terminals);
  watch_all_ = config.watched_neurons.empty();
  for (const NeuronId w : config.watched_neurons) {
    SGA_REQUIRE(w < net_.num_neurons(), "bad watched neuron " << w);
    is_watched_[w] = 1;
  }

  std::vector<NeuronId>& targets = targets_scratch_;
  while (!queue_.empty()) {
    const auto it = queue_.begin();
    const Time t = it->first;
    if (t > max_time_) {
      stats_.hit_time_limit = true;
      break;
    }
    // Map nodes are reference-stable, and every delay is ≥ 1, so draining
    // this bucket in place is safe.
    Bucket& bucket = it->second;
    const std::uint64_t size = bucket.deliveries.size() + bucket.forced.size();
    pending_ -= size;
    stats_.max_bucket_occupancy = std::max(stats_.max_bucket_occupancy, size);
    ++stats_.event_times;
    stats_.end_time = t;

    targets.clear();
    for (const Delivery& d : bucket.deliveries) {
      ++stats_.deliveries;
      if (!touched_[d.target]) {
        touched_[d.target] = 1;
        targets.push_back(d.target);
        accum_[d.target] = 0;
        accum_cause_[d.target] = kNoNeuron;
        accum_cause_weight_[d.target] = 0;
      }
      accum_[d.target] += d.weight;
      if (record_causes_) {
        // Largest weight, ties to the smallest source id; a first
        // candidate must carry positive weight.
        SynWeight& bw = accum_cause_weight_[d.target];
        NeuronId& bs = accum_cause_[d.target];
        if (d.weight > bw ||
            (bs != kNoNeuron && d.weight == bw && d.source < bs)) {
          bs = d.source;
          bw = d.weight;
        }
      }
    }

    for (const NeuronId id : bucket.forced) {
      if (last_spike_[id] == t) continue;
      fire(id, t);
      if (touched_[id]) {
        accum_[id] = 0;
        touched_[id] = 2;
      }
    }

    for (const NeuronId id : targets) {
      if (touched_[id] == 2) {
        touched_[id] = 0;
        continue;
      }
      touched_[id] = 0;
      const Voltage v_hat = decayed_potential(id, t) + accum_[id];
      if (v_hat >= net_.params(id).v_threshold) {
        if (record_causes_ && first_spike_[id] == kNever) {
          cause_[id] = accum_cause_[id];
        }
        fire(id, t);
      } else {
        v_[id] = v_hat;
        last_update_[id] = t;
      }
    }

    queue_.erase(it);
    if (terminal_fired_) break;
  }
  return stats_;
}

Time ReferenceSimulator::first_spike(NeuronId id) const {
  SGA_REQUIRE(id < first_spike_.size(), "first_spike: bad neuron " << id);
  return first_spike_[id];
}

Time ReferenceSimulator::last_spike(NeuronId id) const {
  SGA_REQUIRE(id < last_spike_.size(), "last_spike: bad neuron " << id);
  return last_spike_[id];
}

std::uint32_t ReferenceSimulator::spike_count(NeuronId id) const {
  SGA_REQUIRE(id < spike_count_.size(), "spike_count: bad neuron " << id);
  return spike_count_[id];
}

NeuronId ReferenceSimulator::first_spike_cause(NeuronId id) const {
  SGA_REQUIRE(id < cause_.size(), "first_spike_cause: bad neuron " << id);
  return cause_[id];
}

Voltage ReferenceSimulator::potential(NeuronId id) const {
  SGA_REQUIRE(id < v_.size(), "potential: bad neuron " << id);
  return v_[id];
}

}  // namespace sga::snn
