#include "snn/parallel_sim.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "core/error.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "snn/network.h"
#include "snn/snapshot.h"

namespace sga::snn {

namespace {

/// "no pending event" sentinel — strictly above every representable event
/// time (events are clamped to ≤ kNever = max/4 on the fire side).
constexpr Time kNoTime = std::numeric_limits<Time>::max();

/// Calendar ring sizing, identical to the serial simulator's policy.
std::size_t ring_size_for(Delay max_delay) {
  const auto want = static_cast<std::uint64_t>(max_delay) + 1;
  return static_cast<std::size_t>(
      std::bit_ceil(std::clamp<std::uint64_t>(want, 64, 1u << 16)));
}

}  // namespace

struct MailBox {
  /// One contiguous run of deliveries sharing an arrival time: indices
  /// [begin, end) into the SoA arrays below. Written by one fire() call
  /// (a (dst-shard, delay) segment run), drained with one bulk append.
  struct Slab {
    Time t;  ///< delivery time
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Slab> slabs;
  std::vector<NeuronId> targets;   ///< local index in the destination shard
  std::vector<SynWeight> weights;
  std::vector<NeuronId> sources;   ///< GLOBAL firing ids; iff record_causes

  bool empty() const { return slabs.empty(); }
  void clear() {  // keeps capacity — boxes are reused every window
    slabs.clear();
    targets.clear();
    weights.clear();
    sources.clear();
  }
};

// One shard: a self-contained mini-simulator over LOCAL neuron indices,
// with the serial engine's exact per-step semantics (delivery aggregation,
// forced-spike handling, closed-form leak, horizon rules) but bounded by
// the coordinator's window. All cross-shard traffic goes through the
// outbox pointers installed for the current window.
struct ParallelSimulator::Shard {
  const CompiledNetwork* net = nullptr;
  const ShardCsr* csr = nullptr;

  /// SoA delivery bucket, mirroring the serial Simulator::Bucket: targets
  /// (local indices) and weights in lock-step, sources (global ids) only
  /// when the run records causes.
  struct Bucket {
    std::vector<NeuronId> targets;
    std::vector<SynWeight> weights;
    std::vector<NeuronId> sources;
    std::vector<NeuronId> forced;  ///< local indices

    bool empty() const { return targets.empty() && forced.empty(); }
    std::size_t size() const { return targets.size() + forced.size(); }
    void clear() {
      targets.clear();
      weights.clear();
      sources.clear();
      forced.clear();
    }
  };

  // Calendar ring + sorted spill, mirroring the serial calendar queue
  // (same invariants: ring events in (cursor_, cursor_ + W), spill beyond).
  std::vector<Bucket> ring_;
  std::vector<std::uint64_t> ring_occupied_;
  Time ring_mask_ = 0;
  Time cursor_ = -1;
  std::uint64_t ring_events_ = 0;
  std::map<Time, Bucket> spill_;
  std::uint64_t pending_events_ = 0;
  std::vector<Bucket> pool_;  ///< drained bucket storage, LIFO

  // Per-neuron state, LOCAL indices.
  std::vector<Voltage> v_;
  std::vector<Time> last_update_;
  std::vector<Time> first_spike_;
  std::vector<Time> last_spike_;
  std::vector<std::uint32_t> spike_count_;
  std::vector<NeuronId> cause_;  ///< GLOBAL id of the first-spike cause

  // O(events) reset support (epoch-stamped dirty list, as in Simulator).
  std::vector<NeuronId> dirty_;
  std::vector<std::uint64_t> state_stamp_;
  std::uint64_t epoch_ = 1;

  // Per-step aggregation scratch.
  std::vector<SynWeight> accum_;
  std::vector<NeuronId> accum_cause_;
  std::vector<SynWeight> accum_cause_weight_;
  std::vector<char> touched_;
  std::vector<NeuronId> targets_scratch_;

  std::vector<char> is_terminal_;
  std::vector<char> is_watched_;
  std::vector<NeuronId> active_terminals_;
  std::vector<NeuronId> active_watched_;
  bool watch_all_ = false;
  bool record_causes_ = false;
  bool record_log_ = false;
  Time max_time_ = kNever;

  /// Spike log with GLOBAL ids, in local time order.
  std::vector<std::pair<Time, NeuronId>> spike_log_;

  // ---- per-window summary, read by the coordinator at the barrier ------
  std::vector<Time> touched_times_;    ///< distinct times processed
  Time out_min_time_ = kNoTime;        ///< earliest mailbox arrival written
  Time next_time_ = kNoTime;           ///< earliest pending local event
  Time terminal_time_ = kNoTime;       ///< earliest terminal FIRST fire
  std::uint64_t terminals_newly_fired_ = 0;
  bool hit_time_limit_ = false;        ///< fire-side horizon drops

  // ---- cumulative queue/engine counters --------------------------------
  std::uint64_t spikes_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t peak_queue_events_ = 0;
  std::uint64_t max_bucket_occupancy_ = 0;
  std::uint64_t overflow_spills_ = 0;
  std::uint64_t empty_bucket_scans_ = 0;
  std::uint64_t fanout_segments_ = 0;
  std::uint64_t bulk_appends_ = 0;
  std::uint64_t pool_hits_ = 0;
  std::uint64_t pool_misses_ = 0;

  obs::Probe* probe_ = nullptr;  ///< per-shard probe (owned by parent)
  MailBox* out_ = nullptr;       ///< S outboxes, current parity

  void init(const CompiledNetwork& network, const ShardCsr& shard_csr) {
    net = &network;
    csr = &shard_csr;
    const std::size_t n = csr->num_neurons();
    v_.resize(n);
    last_update_.assign(n, 0);
    first_spike_.assign(n, kNever);
    last_spike_.assign(n, kNever);
    spike_count_.assign(n, 0);
    cause_.assign(n, kNoNeuron);
    state_stamp_.assign(n, 0);
    accum_.assign(n, 0);
    accum_cause_.assign(n, kNoNeuron);
    accum_cause_weight_.assign(n, 0);
    touched_.assign(n, 0);
    is_terminal_.assign(n, 0);
    is_watched_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      v_[i] = net->v_reset(csr->global_ids[i]);
    }
    const std::size_t w = ring_size_for(net->max_delay());
    ring_.resize(w);
    ring_occupied_.assign(w / 64, 0);
    ring_mask_ = static_cast<Time>(w - 1);
  }

  void touch_state(NeuronId lid) {
    if (state_stamp_[lid] != epoch_) {
      state_stamp_[lid] = epoch_;
      dirty_.push_back(lid);
    }
  }

  /// Bucket-storage pool, as in the serial engine (ARCHITECTURE.md §1.6):
  /// drained buckets donate their vectors; activations take them back.
  void activate(Bucket& b) {
    if (!pool_.empty()) {
      ++pool_hits_;
      b = std::move(pool_.back());
      pool_.pop_back();
    } else {
      ++pool_misses_;
    }
  }
  void recycle(Bucket& b) {
    b.clear();
    pool_.push_back(std::move(b));
  }

  Bucket& bucket_for(Time t, std::uint64_t count) {
    pending_events_ += count;
    if (pending_events_ > peak_queue_events_) {
      peak_queue_events_ = pending_events_;
    }
    if (t - cursor_ < static_cast<Time>(ring_.size())) {
      const auto slot = static_cast<std::size_t>(t & ring_mask_);
      std::uint64_t& word = ring_occupied_[slot >> 6];
      const std::uint64_t bit = 1ULL << (slot & 63);
      if ((word & bit) == 0) {
        word |= bit;
        activate(ring_[slot]);
      }
      ring_events_ += count;
      return ring_[slot];
    }
    overflow_spills_ += count;
    const auto [it, inserted] = spill_.try_emplace(t);
    if (inserted) activate(it->second);
    return it->second;
  }

  void migrate_spill() {
    const auto w = static_cast<Time>(ring_.size());
    while (!spill_.empty()) {
      const auto it = spill_.begin();
      if (it->first - cursor_ >= w) break;
      const auto slot = static_cast<std::size_t>(it->first & ring_mask_);
      Bucket& dst = ring_[slot];
      ring_occupied_[slot >> 6] |= 1ULL << (slot & 63);
      ring_events_ += it->second.size();
      if (dst.empty()) {
        // Unoccupied slots hold no storage (drains donate it to the pool).
        dst = std::move(it->second);
      } else {
        Bucket& src = it->second;
        dst.targets.insert(dst.targets.end(), src.targets.begin(),
                           src.targets.end());
        dst.weights.insert(dst.weights.end(), src.weights.begin(),
                           src.weights.end());
        dst.sources.insert(dst.sources.end(), src.sources.begin(),
                           src.sources.end());
        dst.forced.insert(dst.forced.end(), src.forced.begin(),
                          src.forced.end());
        recycle(src);
      }
      spill_.erase(it);
    }
  }

  /// Earliest pending local event, bounded by the coordinator's window.
  ///
  /// Unlike the serial queue, a shard's queue can RECEIVE events after it
  /// drains — mailbox deliveries land at every barrier, always at times
  /// >= the window end `wend` (that is the δ-lookahead guarantee). So the
  /// serial cursor jump to `spill head - 1` is unsafe here: jumping past
  /// `wend` would strand later-drained mail BEHIND the cursor, where
  /// `bucket_for`'s ring test files it into a stale slot and the scan
  /// silently loses it. The rule: never move cursor_ to or beyond wend.
  /// When the ring is empty and the spill head lies at or past wend,
  /// report that time WITHOUT jumping — the window cannot use it anyway,
  /// and the next window re-asks with a larger wend.
  bool next_pending_time(Time* t, Time wend) {
    migrate_spill();
    if (ring_events_ == 0) {
      if (spill_.empty()) return false;
      const Time spill_head = spill_.begin()->first;
      if (spill_head >= wend) {
        *t = spill_head;
        return true;
      }
      cursor_ = spill_head - 1;
      migrate_spill();
    }
    const auto start = static_cast<std::size_t>((cursor_ + 1) & ring_mask_);
    const std::size_t word_mask = ring_occupied_.size() - 1;
    std::size_t w = start >> 6;
    std::uint64_t word = ring_occupied_[w] & (~0ULL << (start & 63));
    while (word == 0) {
      w = (w + 1) & word_mask;
      word = ring_occupied_[w];
    }
    const std::size_t slot =
        (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
    const std::size_t offset =
        (slot - start) & static_cast<std::size_t>(ring_mask_);
    empty_bucket_scans_ += offset;
    *t = cursor_ + 1 + static_cast<Time>(offset);
    return true;
  }

  Voltage decayed_potential(NeuronId lid, Time t) const {
    const NeuronId gid = csr->global_ids[lid];
    const Time dt = t - last_update_[lid];
    SGA_CHECK(dt >= 0, "parallel: time went backwards for neuron " << gid);
    return decay_potential(v_[lid], net->v_reset(gid), net->tau(gid), dt);
  }

  void fire(NeuronId lid, Time t) {
    const NeuronId gid = csr->global_ids[lid];
    const bool first_fire = first_spike_[lid] == kNever;
    touch_state(lid);
    v_[lid] = net->v_reset(gid);
    last_update_[lid] = t;
    ++spike_count_[lid];
    ++spikes_;
    if (first_fire) first_spike_[lid] = t;
    last_spike_[lid] = t;
    if (probe_ != nullptr) probe_->on_spike(t, gid);
    if (record_log_ && (watch_all_ || is_watched_[lid])) {
      spike_log_.emplace_back(t, gid);
    }
    if (is_terminal_[lid] && first_fire) {
      ++terminals_newly_fired_;
      if (t < terminal_time_) terminal_time_ = t;
    }
    // Intra-shard fan-out, segmented: the intra family inherits the
    // delay-sorted row order, so each delay run is one queue lookup plus a
    // bulk append. Same horizon rule as the serial engine (subtraction
    // form avoids t + d overflow; dropped work reports hit_time_limit);
    // ascending run delays let a horizon hit stop the whole row.
    const NeuronId* itgt = csr->intra_target.data();
    const SynWeight* iwgt = csr->intra_weight.data();
    const std::size_t ise = csr->intra_seg_offsets[lid + 1];
    for (std::size_t s = csr->intra_seg_offsets[lid]; s < ise; ++s) {
      ++fanout_segments_;
      const Delay d = csr->intra_seg_delay[s];
      if (d > max_time_ - t) {
        hit_time_limit_ = true;
        break;
      }
      const std::size_t b = csr->intra_seg_begin[s];
      const std::size_t e = csr->intra_seg_end[s];
      Bucket& bucket = bucket_for(t + d, e - b);
      bucket.targets.insert(bucket.targets.end(), itgt + b, itgt + e);
      bucket.weights.insert(bucket.weights.end(), iwgt + b, iwgt + e);
      if (record_causes_) {
        bucket.sources.insert(bucket.sources.end(), e - b, gid);
      }
      ++bulk_appends_;
    }
    // Cross-shard fan-out, segmented: one run per (dst-shard, delay) pair.
    // Runs are (shard, delay)-ordered, NOT globally delay-ascending, so a
    // horizon hit skips the run but keeps scanning. Each run is one SoA
    // slab appended to the destination's outbox — only this shard's worker
    // writes those boxes during the window; the barrier hands them over.
    const NeuronId* clocal = csr->cross_local.data();
    const SynWeight* cwgt = csr->cross_weight.data();
    const std::size_t cse = csr->cross_seg_offsets[lid + 1];
    for (std::size_t s = csr->cross_seg_offsets[lid]; s < cse; ++s) {
      ++fanout_segments_;
      const Delay d = csr->cross_seg_delay[s];
      if (d > max_time_ - t) {
        hit_time_limit_ = true;
        continue;
      }
      const Time at = t + d;
      const std::size_t b = csr->cross_seg_begin[s];
      const std::size_t e = csr->cross_seg_end[s];
      MailBox& box = out_[csr->cross_seg_shard[s]];
      const std::size_t base = box.targets.size();
      box.targets.insert(box.targets.end(), clocal + b, clocal + e);
      box.weights.insert(box.weights.end(), cwgt + b, cwgt + e);
      if (record_causes_) {
        box.sources.insert(box.sources.end(), e - b, gid);
      }
      box.slabs.push_back(MailBox::Slab{at, base, base + (e - b)});
      ++bulk_appends_;
      if (at < out_min_time_) out_min_time_ = at;
    }
  }

  /// Fold the mail delivered at the previous barrier into the local queue.
  /// Inboxes are drained in source-shard order, which fixes the bucket
  /// order deterministically (the serial bucket order differs, but bucket
  /// order is only observable through FP summation order — exact for the
  /// integer weights of every paper construction — and cause tie-breaks,
  /// which use the order-free (weight, source id) rule).
  void drain_inboxes(MailBox* in_boxes, std::size_t stride,
                     std::size_t num_shards) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      MailBox& box = in_boxes[s * stride];
      for (const MailBox::Slab& slab : box.slabs) {
        Bucket& bucket = bucket_for(slab.t, slab.end - slab.begin);
        bucket.targets.insert(bucket.targets.end(),
                              box.targets.begin() + slab.begin,
                              box.targets.begin() + slab.end);
        bucket.weights.insert(bucket.weights.end(),
                              box.weights.begin() + slab.begin,
                              box.weights.begin() + slab.end);
        if (record_causes_) {
          bucket.sources.insert(bucket.sources.end(),
                                box.sources.begin() + slab.begin,
                                box.sources.begin() + slab.end);
        }
      }
      box.clear();
    }
  }

  /// Process every pending event with time < wend (exclusive), in time
  /// order — the serial run() loop restricted to one window.
  void advance_window(Time wend) {
    touched_times_.clear();
    out_min_time_ = kNoTime;
    terminal_time_ = kNoTime;
    terminals_newly_fired_ = 0;

    std::vector<NeuronId>& targets = targets_scratch_;
    while (true) {
      Time t = 0;
      if (!next_pending_time(&t, wend)) break;
      if (t >= wend) break;
      cursor_ = t;
      Bucket* bucket = &ring_[static_cast<std::size_t>(t & ring_mask_)];
      ring_events_ -= bucket->size();
      pending_events_ -= bucket->size();
      if (bucket->size() > max_bucket_occupancy_) {
        max_bucket_occupancy_ = bucket->size();
      }
      touched_times_.push_back(t);

      if (probe_ != nullptr && probe_->counts_deliveries()) {
        for (const NeuronId target : bucket->targets) {
          probe_->on_delivery(csr->global_ids[target]);
        }
      }

      targets.clear();
      const std::size_t nd = bucket->targets.size();
      deliveries_ += nd;
      for (std::size_t i = 0; i < nd; ++i) {
        const NeuronId target = bucket->targets[i];
        const SynWeight weight = bucket->weights[i];
        if (!touched_[target]) {
          touched_[target] = 1;
          targets.push_back(target);
          accum_[target] = 0;
          accum_cause_[target] = kNoNeuron;
          accum_cause_weight_[target] = 0;
        }
        accum_[target] += weight;
        if (record_causes_) {
          // Deterministic cause selection (matches the serial engine):
          // largest weight, ties to the smallest source id — independent
          // of delivery order, hence of the parallel schedule. sources is
          // populated exactly when record_causes_ is set.
          const NeuronId source = bucket->sources[i];
          SynWeight& bw = accum_cause_weight_[target];
          NeuronId& bs = accum_cause_[target];
          if (weight > bw ||
              (bs != kNoNeuron && weight == bw && source < bs)) {
            bs = source;
            bw = weight;
          }
        }
      }

      for (const NeuronId lid : bucket->forced) {
        if (last_spike_[lid] == t) continue;
        fire(lid, t);
        if (touched_[lid]) {
          accum_[lid] = 0;
          touched_[lid] = 2;
        }
      }

      for (const NeuronId lid : targets) {
        if (touched_[lid] == 2) {
          touched_[lid] = 0;
          continue;
        }
        touched_[lid] = 0;
        const Voltage v_hat = decayed_potential(lid, t) + accum_[lid];
        const NeuronId gid = csr->global_ids[lid];
        if (v_hat >= net->v_threshold(gid)) {
          if (record_causes_ && first_spike_[lid] == kNever) {
            cause_[lid] = accum_cause_[lid];
          }
          fire(lid, t);
        } else {
          touch_state(lid);
          v_[lid] = v_hat;
          last_update_[lid] = t;
        }
      }

      if (probe_ != nullptr && probe_->samples_potentials()) {
        for (const NeuronId lid : targets) {
          probe_->on_potential(t, csr->global_ids[lid], v_[lid]);
        }
      }

      recycle(*bucket);  // storage (capacity intact) goes to the pool
      const auto slot = static_cast<std::size_t>(t & ring_mask_);
      ring_occupied_[slot >> 6] &= ~(1ULL << (slot & 63));
    }

    Time t = 0;
    next_time_ = next_pending_time(&t, wend) ? t : kNoTime;
  }

  void reset() {
    for (const NeuronId lid : dirty_) {
      v_[lid] = net->v_reset(csr->global_ids[lid]);
      last_update_[lid] = 0;
      first_spike_[lid] = kNever;
      last_spike_[lid] = kNever;
      spike_count_[lid] = 0;
      cause_[lid] = kNoNeuron;
    }
    dirty_.clear();
    ++epoch_;
    for (const NeuronId t : active_terminals_) is_terminal_[t] = 0;
    active_terminals_.clear();
    for (const NeuronId w : active_watched_) is_watched_[w] = 0;
    active_watched_.clear();
    watch_all_ = false;
    if (ring_events_ > 0) {
      for (std::size_t w = 0; w < ring_occupied_.size(); ++w) {
        std::uint64_t word = ring_occupied_[w];
        while (word != 0) {
          const auto slot =
              (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
          word &= word - 1;
          recycle(ring_[slot]);
        }
        ring_occupied_[w] = 0;
      }
      ring_events_ = 0;
    }
    for (auto& [t, bucket] : spill_) recycle(bucket);
    spill_.clear();
    pending_events_ = 0;
    cursor_ = -1;
    spike_log_.clear();
    touched_times_.clear();
    out_min_time_ = kNoTime;
    next_time_ = kNoTime;
    terminal_time_ = kNoTime;
    terminals_newly_fired_ = 0;
    hit_time_limit_ = false;
    spikes_ = 0;
    deliveries_ = 0;
    peak_queue_events_ = 0;
    max_bucket_occupancy_ = 0;
    overflow_spills_ = 0;
    empty_bucket_scans_ = 0;
    fanout_segments_ = 0;
    bulk_appends_ = 0;
    pool_hits_ = 0;
    pool_misses_ = 0;
    record_causes_ = false;
    record_log_ = false;
    max_time_ = kNever;
    probe_ = nullptr;
  }
};

ParallelSimulator::ParallelSimulator(const CompiledNetwork& net,
                                     ParallelConfig config)
    : net_(&net) {
  configure(config);
}

ParallelSimulator::ParallelSimulator(const Network& net, ParallelConfig config)
    : net_(nullptr), owned_(std::make_unique<CompiledNetwork>(net)) {
  net_ = owned_.get();
  configure(config);
}

ParallelSimulator::~ParallelSimulator() = default;

void ParallelSimulator::configure(ParallelConfig config) {
  SGA_REQUIRE(config.max_window >= 1,
              "ParallelSimulator: max_window must be >= 1");
  SGA_REQUIRE(config.steal_skew >= 1.0,
              "ParallelSimulator: steal_skew must be >= 1");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned requested = config.num_threads != 0 ? config.num_threads : hw;
  const std::size_t shards = config.num_shards != 0
                                 ? config.num_shards
                                 : static_cast<std::size_t>(requested);
  threads_ = static_cast<unsigned>(std::min<std::size_t>(requested, shards));
  max_window_ = config.max_window;
  stealing_ = config.work_stealing;
  steal_skew_ = config.steal_skew;
  split_ = net_->shard_split(make_partition(*net_, shards, config.partition));
  lookahead_ = split_.min_cross_delay == 0
                   ? max_window_
                   : std::min<Time>(split_.min_cross_delay, max_window_);
  // Keep wstart_ + window_len_ overflow-free for any config: event times
  // never exceed kNever (= max/4), so this clamp cannot change results.
  lookahead_ = std::min(lookahead_, kNever);
  init();
}

void ParallelSimulator::init() {
  const std::size_t s = split_.partition.num_shards;
  shards_.clear();
  for (std::size_t i = 0; i < s; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->init(*net_, split_.shards[i]);
  }
  mail_[0].assign(s * s, {});
  mail_[1].assign(s * s, {});
}

void ParallelSimulator::inject_spike(NeuronId id, Time t) {
  SGA_REQUIRE(id < net_->num_neurons(),
              "inject_spike: bad neuron " << id);
  SGA_REQUIRE(t >= 0, "inject_spike: negative time " << t);
  SGA_REQUIRE(t <= kNever, "inject_spike: time " << t << " beyond kNever");
  SGA_REQUIRE(!ran_ || paused_,
              "inject_spike after run() (call reset() first, or pause the "
              "run to inject mid-flight)");
  SGA_REQUIRE(!paused_ || t >= pause_floor_,
              "inject_spike at t=" << t << " into a paused run whose resume "
                                   << "floor is " << pause_floor_);
  Shard& sh = *shards_[split_.partition.shard_of[id]];
  sh.bucket_for(t, 1).forced.push_back(split_.partition.local_index[id]);
}

void ParallelSimulator::attach_probe(obs::Probe& probe) {
  probe.bind(net_->num_neurons());
  probe_ = &probe;
}

void ParallelSimulator::plan_next_window() try {
  const std::size_t s = shards_.size();

  if (!first_plan_) {
    // Fold the finished window: distinct global event times and the last
    // processed step. Shards report sorted per-window time lists; their
    // merged distinct count is what the serial loop counts one bucket at
    // a time.
    merge_scratch_.clear();
    for (const auto& sh : shards_) {
      merge_scratch_.insert(merge_scratch_.end(), sh->touched_times_.begin(),
                            sh->touched_times_.end());
    }
    if (!merge_scratch_.empty()) {
      std::sort(merge_scratch_.begin(), merge_scratch_.end());
      stats_.event_times += static_cast<std::uint64_t>(
          std::unique(merge_scratch_.begin(), merge_scratch_.end()) -
          merge_scratch_.begin());
      stats_.end_time = merge_scratch_.back();
    }
    // Terminal resolution at the barrier. Window length is 1 whenever
    // terminals are configured, so every terminal fire folded here
    // happened at the single just-executed step wstart_ — the barrier
    // decision is therefore exactly the serial loop's end-of-bucket
    // decision.
    if (terminals_remaining_ > 0 && !terminal_fired_) {
      std::uint64_t newly = 0;
      for (const auto& sh : shards_) newly += sh->terminals_newly_fired_;
      if (newly >= terminals_remaining_) {
        terminal_fired_ = true;
        stats_.hit_terminal = true;
        stats_.execution_time = wstart_;
        terminals_remaining_ = 0;
      } else {
        terminals_remaining_ -= newly;
      }
    }
  }
  first_plan_ = false;

  if (error_) {
    done_ = true;
    return;
  }
  if (terminal_fired_) {
    done_ = true;
    return;
  }

  // Global earliest pending event: shard queues and the mail written in
  // the window just finished (it is not in any queue until drained).
  Time next = kNoTime;
  for (const auto& sh : shards_) {
    next = std::min(next, sh->next_time_);
    next = std::min(next, sh->out_min_time_);
  }
  if (next == kNoTime) {
    done_ = true;  // quiescence
    return;
  }
  if (next > max_time_) {
    stats_.hit_time_limit = true;  // pending work beyond the horizon
    done_ = true;
    return;
  }
  if (next > pause_time_) {
    // Cooperative pause at the barrier. The window just finished wrote its
    // cross-shard mail into mail_[parity_] (undrained — destinations fold
    // at the START of the next window, which will not run): fold it into
    // the destination shards' queues now, single-threaded, so the COMPLETE
    // pending-event set lives in shard queues — that is the state
    // snapshot() enumerates and run() resumes from. Nothing is dropped.
    const std::size_t nshards = shards_.size();
    for (std::size_t i = 0; i < nshards; ++i) {
      shards_[i]->drain_inboxes(mail_[parity_].data() + i, nshards, nshards);
      shards_[i]->out_min_time_ = kNoTime;
    }
    paused_ = true;
    stats_.paused = true;
    pause_floor_ = next;
    done_ = true;
    return;
  }
  wstart_ = next;
  wend_ = std::min(wstart_ + window_len_, max_time_ + 1);
  parity_ ^= 1;
  const int p = parity_;
  for (std::size_t i = 0; i < s; ++i) {
    shards_[i]->out_ = mail_[p].data() + i * s;
  }
  assign_shards();
} catch (...) {
  if (!error_) error_ = std::current_exception();
  done_ = true;
}

void ParallelSimulator::assign_shards() {
  const std::size_t s = shards_.size();
  const unsigned workers = workers_;
  assign_.resize(s);
  for (std::size_t i = 0; i < s; ++i) {
    assign_[i] = static_cast<std::uint32_t>(i % workers);
  }
  // Deterministic per-window work stealing: estimate each shard's coming
  // work as its private queue depth (cheap, and a pure function of the
  // simulation state — mail not yet folded is invisible,
  // identically so on every run). If the static round-robin deal leaves
  // one worker with more than steal_skew × the best achievable (LPT)
  // maximum, adopt the LPT deal; a shard executing away from its static
  // owner counts as one steal. Shard state is self-contained, so WHICH
  // worker runs a shard can never change results — only the metric needs
  // determinism, and it gets it by construction.
  if (!stealing_ || workers < 2 || s <= workers) return;
  est_scratch_.assign(workers, 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < s; ++i) {
    const std::uint64_t e = shards_[i]->pending_events_;
    est_scratch_[i % workers] += e;
    total += e;
  }
  const std::uint64_t max_static =
      *std::max_element(est_scratch_.begin(), est_scratch_.end());
  if (max_static == 0) return;
  order_scratch_.resize(s);
  for (std::size_t i = 0; i < s; ++i) {
    order_scratch_[i] = static_cast<std::uint32_t>(i);
  }
  std::stable_sort(order_scratch_.begin(), order_scratch_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return shards_[a]->pending_events_ >
                            shards_[b]->pending_events_;
                   });
  est_scratch_.assign(workers, 0);
  deal_scratch_.assign(s, 0);
  for (const std::uint32_t shard : order_scratch_) {
    unsigned best = 0;
    for (unsigned w = 1; w < workers; ++w) {
      if (est_scratch_[w] < est_scratch_[best]) best = w;
    }
    deal_scratch_[shard] = best;
    est_scratch_[best] += shards_[shard]->pending_events_;
  }
  const std::uint64_t max_lpt =
      *std::max_element(est_scratch_.begin(), est_scratch_.end());
  const double skew = static_cast<double>(max_static) /
                      std::max(1.0, static_cast<double>(total) / workers);
  skew_max_ = std::max(skew_max_, skew);
  if (static_cast<double>(max_static) <=
      steal_skew_ * static_cast<double>(max_lpt)) {
    return;
  }
  for (std::size_t i = 0; i < s; ++i) {
    if (deal_scratch_[i] != assign_[i]) ++steals_;
    assign_[i] = deal_scratch_[i];
  }
}

void ParallelSimulator::advance_owned_shards(unsigned worker) {
  const std::size_t s = shards_.size();
  for (std::size_t i = 0; i < s; ++i) {
    if (assign_[i] != worker) continue;
    // Inboxes for shard i under read parity: mail_[1 - parity_][src*s + i].
    shards_[i]->drain_inboxes(mail_[1 - parity_].data() + i, s, s);
    shards_[i]->advance_window(wend_);
  }
}

SimStats ParallelSimulator::run(const SimConfig& config) {
  SGA_REQUIRE(!ran_ || paused_,
              "ParallelSimulator::run is one-shot (call reset() to reuse, "
              "or pause via SimConfig::pause_time to resume later)");
  obs::MetricsRegistry* caller_metrics = obs::thread_metrics();
  obs::ScopedTimer run_timer(caller_metrics, "psim.run_ns");
  const bool resuming = ran_;
  // Metrics report per-call deltas, so a pause/resume cycle does not
  // double-count the pre-pause portion of the cumulative stats.
  const std::uint64_t spikes0 = stats_.spikes;
  const std::uint64_t deliveries0 = stats_.deliveries;
  const std::uint64_t event_times0 = stats_.event_times;
  ran_ = true;
  if (resuming) {
    // Same resume contract as the serial engine: the recording flags and
    // horizon shaped the pre-pause event stream and cannot change.
    SGA_REQUIRE(shards_.empty() ||
                    (config.record_causes == shards_[0]->record_causes_ &&
                     config.record_spike_log == shards_[0]->record_log_),
                "resume: record_causes/record_spike_log must match the "
                "paused run");
    SGA_REQUIRE(std::min(config.max_time, kNever) == max_time_,
                "resume: max_time must match the paused run ("
                    << max_time_ << ")");
  } else {
    // Clamped so max_time_ + 1 cannot overflow; events never pass kNever
    // (injections are checked, and the fire-side horizon test drops the
    // rest), so the clamp is unobservable.
    max_time_ = std::min(config.max_time, kNever);
  }
  pause_time_ = config.pause_time;
  paused_ = false;
  stats_.paused = false;

  const Partition& part = split_.partition;
  std::uint64_t distinct_terminals = 0;
  for (const NeuronId t : config.terminal_neurons) {
    SGA_REQUIRE(t < net_->num_neurons(), "bad terminal neuron " << t);
    Shard& sh = *shards_[part.shard_of[t]];
    const NeuronId lid = part.local_index[t];
    if (!sh.is_terminal_[lid]) {
      sh.is_terminal_[lid] = 1;
      sh.active_terminals_.push_back(lid);
      ++distinct_terminals;
    }
  }
  if (!resuming) {
    terminals_remaining_ = config.terminate_on_all
                               ? distinct_terminals
                               : std::min<std::uint64_t>(1, distinct_terminals);
    terminal_fired_ = false;
  } else if (distinct_terminals > 0) {
    // Terminals registered before the pause were counted then (the loop
    // above is idempotent); only genuinely new ids adjust the count.
    terminals_remaining_ +=
        config.terminate_on_all
            ? distinct_terminals
            : ((terminals_remaining_ == 0 && !terminal_fired_) ? 1 : 0);
  }
  const bool watch_all = resuming && !shards_.empty()
                             ? shards_[0]->watch_all_
                             : config.watched_neurons.empty();
  for (const NeuronId w : config.watched_neurons) {
    SGA_REQUIRE(w < net_->num_neurons(), "bad watched neuron " << w);
    Shard& sh = *shards_[part.shard_of[w]];
    const NeuronId lid = part.local_index[w];
    if (!sh.is_watched_[lid]) {
      sh.is_watched_[lid] = 1;
      sh.active_watched_.push_back(lid);
    }
  }

  // Per-shard probes: same options as the attached probe, bound to the
  // full network (hooks use global ids). Merged into the user's probe in
  // finalize_run() — only at COMPLETION, so a resume keeps accumulating
  // into the same shard probes rather than recreating (and losing) them.
  if (!resuming) shard_probes_.clear();
  if (probe_ != nullptr && shard_probes_.empty()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shard_probes_.push_back(std::make_unique<obs::Probe>(probe_->options()));
      shard_probes_.back()->bind(net_->num_neurons());
    }
  }

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    sh.record_causes_ = config.record_causes;
    sh.record_log_ = config.record_spike_log;
    sh.watch_all_ = watch_all;
    sh.max_time_ = max_time_;
    sh.probe_ = probe_ != nullptr ? shard_probes_[i].get() : nullptr;
    sh.next_time_ = kNoTime;
    Time t = 0;
    // wend = 0: the pre-run peek must never move the cursor — the first
    // window has not been planned, so every jump would be speculative.
    if (sh.next_pending_time(&t, 0)) sh.next_time_ = t;
    sh.out_min_time_ = kNoTime;
  }

  // Terminal detection must stop the run at the end of the terminal's own
  // time step, exactly like the serial loop — so terminal mode degrades
  // the lookahead window to a single step (see header comment).
  window_len_ = terminals_remaining_ > 0 ? 1 : lookahead_;
  done_ = false;
  first_plan_ = true;
  parity_ = 0;
  error_ = nullptr;

  const unsigned workers = std::max(
      1u, std::min<unsigned>(threads_,
                             static_cast<unsigned>(shards_.size())));
  workers_ = workers;
  const std::uint64_t steals0 = steals_;
  if (workers == 1) {
    while (true) {
      plan_next_window();
      if (done_) break;
      try {
        advance_owned_shards(0);
        if (caller_metrics != nullptr) caller_metrics->add("psim.windows");
      } catch (...) {
        if (!error_) error_ = std::current_exception();
        break;
      }
    }
  } else {
    std::vector<obs::MetricsRegistry> worker_metrics(
        caller_metrics != nullptr ? workers : 0);
    std::atomic<bool> error_flag{false};
    std::mutex error_mutex;
    std::barrier bar(static_cast<std::ptrdiff_t>(workers),
                     [this]() noexcept { plan_next_window(); });
    auto work = [&](unsigned tid) {
      const obs::ScopedThreadMetrics install(
          caller_metrics != nullptr ? &worker_metrics[tid] : nullptr);
      obs::ScopedTimer t(obs::thread_metrics(), "psim.worker_ns");
      while (true) {
        bar.arrive_and_wait();  // completion == plan_next_window
        if (done_) break;
        if (error_flag.load(std::memory_order_relaxed)) continue;
        try {
          advance_owned_shards(tid);
          if (obs::MetricsRegistry* m = obs::thread_metrics()) {
            m->add("psim.windows");
          }
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!error_) error_ = std::current_exception();
          }
          error_flag.store(true, std::memory_order_relaxed);
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) pool.emplace_back(work, i);
    for (std::thread& th : pool) th.join();
    if (caller_metrics != nullptr) {
      for (const obs::MetricsRegistry& m : worker_metrics) {
        caller_metrics->merge(m);
      }
    }
  }
  if (error_) std::rethrow_exception(error_);

  finalize_run(/*absorb_probes=*/!paused_);
  if (caller_metrics != nullptr) {
    caller_metrics->add("psim.runs");
    caller_metrics->add("sim.spikes", stats_.spikes - spikes0);
    caller_metrics->add("sim.deliveries", stats_.deliveries - deliveries0);
    caller_metrics->add("sim.event_times", stats_.event_times - event_times0);
    caller_metrics->add("psim.steals", steals_ - steals0);
    caller_metrics->gauge("psim.skew", skew_max_);
    caller_metrics->gauge("psim.shards", static_cast<double>(shards_.size()));
    caller_metrics->gauge("psim.threads", static_cast<double>(workers));
  }
  return stats_;
}

void ParallelSimulator::finalize_run(bool absorb_probes) {
  // Engine totals: semantic counters sum exactly; queue counters combine
  // as documented in the header (they are per-queue properties). Counters
  // are ASSIGNED (base_ + per-shard sums), never accumulated into stats_,
  // so finalizing at a pause and again at completion is safe: shard
  // counters persist across the pause, and base_ carries what a restore
  // brought in (shard counters restart from zero there).
  stats_.spikes = base_.spikes;
  stats_.deliveries = base_.deliveries;
  stats_.peak_queue_events = base_.peak_queue_events;
  stats_.max_bucket_occupancy = base_.max_bucket_occupancy;
  stats_.overflow_spills = base_.overflow_spills;
  stats_.empty_bucket_scans = base_.empty_bucket_scans;
  stats_.fanout_segments = base_.fanout_segments;
  stats_.bulk_appends = base_.bulk_appends;
  stats_.pool_hits = base_.pool_hits;
  stats_.pool_misses = base_.pool_misses;
  for (const auto& sh : shards_) {
    stats_.spikes += sh->spikes_;
    stats_.deliveries += sh->deliveries_;
    stats_.hit_time_limit = stats_.hit_time_limit || sh->hit_time_limit_;
    stats_.peak_queue_events += sh->peak_queue_events_;
    stats_.max_bucket_occupancy =
        std::max(stats_.max_bucket_occupancy, sh->max_bucket_occupancy_);
    stats_.overflow_spills += sh->overflow_spills_;
    stats_.empty_bucket_scans += sh->empty_bucket_scans_;
    stats_.fanout_segments += sh->fanout_segments_;
    stats_.bulk_appends += sh->bulk_appends_;
    stats_.pool_hits += sh->pool_hits_;
    stats_.pool_misses += sh->pool_misses_;
  }
  if (!shards_.empty()) {
    stats_.ring_buckets =
        static_cast<std::uint32_t>(shards_[0]->ring_.size());
  }
  // The shard CSRs are full-width transients (DESIGN.md), so csr_bytes
  // stays unreported here — but the encoding of the SOURCE artifact is
  // still what the trajectory keys on.
  stats_.storage_encoding = encoding_code(net_->storage_widths());

  // Canonical (time, id) spike log: shard logs are time-ordered already;
  // one global sort yields the canonical order (a neuron fires at most
  // once per step, so (time, id) is a total order on log entries). A
  // restore scattered the image's log back into the shard logs, so the
  // rebuild covers pre-restore history too.
  log_.clear();
  for (const auto& sh : shards_) {
    log_.insert(log_.end(), sh->spike_log_.begin(), sh->spike_log_.end());
  }
  std::sort(log_.begin(), log_.end());

  if (absorb_probes && probe_ != nullptr) {
    std::vector<const obs::Probe*> parts;
    parts.reserve(shard_probes_.size());
    for (const auto& p : shard_probes_) parts.push_back(p.get());
    probe_->absorb_shards(parts);
  }
}

void ParallelSimulator::reset() {
  for (const auto& sh : shards_) sh->reset();
  for (int p = 0; p < 2; ++p) {
    for (auto& box : mail_[p]) box.clear();
  }
  steals_ = 0;
  skew_max_ = 0.0;
  shard_probes_.clear();
  log_.clear();
  stats_ = SimStats{};
  base_ = SimStats{};
  terminals_remaining_ = 0;
  terminal_fired_ = false;
  done_ = false;
  first_plan_ = true;
  parity_ = 0;
  max_time_ = kNever;
  error_ = nullptr;
  ran_ = false;
  paused_ = false;
  pause_time_ = kNever;
  pause_floor_ = 0;
}

std::vector<std::uint8_t> ParallelSimulator::snapshot() const {
  obs::ScopedTimer timer(obs::thread_metrics(), "snap.snapshot_ns");
  SnapshotImage img;
  build_image(&img);
  std::vector<std::uint8_t> bytes = serialize_snapshot(img);
  if (obs::MetricsRegistry* m = obs::thread_metrics()) {
    m->add("snap.snapshots");
    m->add("snap.bytes", bytes.size());
  }
  return bytes;
}

void ParallelSimulator::build_image(SnapshotImage* img) const {
  img->num_neurons = net_->num_neurons();
  img->num_synapses = net_->num_synapses();
  img->max_delay = net_->max_delay();
  img->widths = net_->storage_widths();
  img->mid_run = ran_;
  // Recording flags live in the shards (uniform across them by
  // construction); a never-run simulator has the defaults, exactly like a
  // fresh serial engine.
  const Shard* s0 = shards_.empty() ? nullptr : shards_[0].get();
  img->record_causes = s0 != nullptr && s0->record_causes_;
  img->record_log = s0 != nullptr && s0->record_log_;
  img->watch_all = s0 != nullptr && s0->watch_all_;
  img->terminal_fired = terminal_fired_;
  img->max_time = max_time_;
  img->resume_floor =
      paused_ ? pause_floor_ : (ran_ ? stats_.end_time + 1 : 0);
  img->terminals_remaining = terminals_remaining_;
  for (const auto& sh : shards_) {
    for (const NeuronId lid : sh->active_terminals_) {
      img->terminals.push_back(sh->csr->global_ids[lid]);
    }
    for (const NeuronId lid : sh->active_watched_) {
      img->watched.push_back(sh->csr->global_ids[lid]);
    }
  }
  std::sort(img->terminals.begin(), img->terminals.end());
  std::sort(img->watched.begin(), img->watched.end());

  // Per-neuron state: each shard's dirty list, mapped to global ids and
  // merged into the id-sorted order the format requires.
  for (const auto& sh : shards_) {
    for (const NeuronId lid : sh->dirty_) {
      SnapshotNeuron e;
      e.id = sh->csr->global_ids[lid];
      e.v = sh->v_[lid];
      e.last_update = sh->last_update_[lid];
      e.first_spike = sh->first_spike_[lid];
      e.last_spike = sh->last_spike_[lid];
      e.spike_count = sh->spike_count_[lid];
      e.cause = sh->cause_[lid];
      img->neurons.push_back(e);
    }
  }
  std::sort(img->neurons.begin(), img->neurons.end(),
            [](const SnapshotNeuron& a, const SnapshotNeuron& b) {
              return a.id < b.id;
            });

  // Pending events: merge every shard's ring + spill into one global
  // time-ascending sequence. At a pause the mailboxes are already folded
  // into the shard queues (plan_next_window's pause path), so this IS the
  // complete pending set. In-bucket order is shard-index order, which is
  // deterministic for a given partition; delivery order inside a bucket is
  // semantically order-free (docs/PERSISTENCE.md).
  std::map<Time, SnapshotBucket> pending;
  const bool causes = img->record_causes;
  for (const auto& sh : shards_) {
    const auto add_bucket = [&](Time t, const Shard::Bucket& bucket) {
      SnapshotBucket& b = pending[t];
      b.time = t;
      for (const NeuronId lid : bucket.forced) {
        b.forced.push_back(sh->csr->global_ids[lid]);
      }
      for (std::size_t i = 0; i < bucket.targets.size(); ++i) {
        SnapshotDelivery d;
        d.target = sh->csr->global_ids[bucket.targets[i]];
        d.weight = bucket.weights[i];
        if (causes) d.source = bucket.sources[i];  // already global
        b.deliveries.push_back(d);
      }
    };
    for (std::size_t w = 0; w < sh->ring_occupied_.size(); ++w) {
      std::uint64_t word = sh->ring_occupied_[w];
      while (word != 0) {
        const std::size_t slot =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        const std::size_t start =
            static_cast<std::size_t>((sh->cursor_ + 1) & sh->ring_mask_);
        const std::size_t offset =
            (slot - start) & static_cast<std::size_t>(sh->ring_mask_);
        add_bucket(sh->cursor_ + 1 + static_cast<Time>(offset),
                   sh->ring_[slot]);
      }
    }
    for (const auto& [t, bucket] : sh->spill_) add_bucket(t, bucket);
  }
  img->queue.reserve(pending.size());
  for (auto& [t, bucket] : pending) img->queue.push_back(std::move(bucket));

  img->log = log_;
  img->stats = stats_;
}

void ParallelSimulator::restore(const std::uint8_t* data, std::size_t size) {
  obs::ScopedTimer timer(obs::thread_metrics(), "snap.restore_ns");
  // ALL-OR-NOTHING, as in Simulator::restore: parse + validate throw
  // before the first mutation.
  const SnapshotImage img = parse_snapshot(data, size);
  validate_snapshot_for(img, *net_);
  apply_image(img);
  if (obs::MetricsRegistry* m = obs::thread_metrics()) {
    m->add("snap.restores");
  }
}

void ParallelSimulator::apply_image(const SnapshotImage& img) {
  reset();
  const Partition& part = split_.partition;
  for (const auto& sh : shards_) {
    sh->record_causes_ = img.record_causes;
    sh->record_log_ = img.record_log;
    sh->watch_all_ = img.watch_all;
  }
  max_time_ = img.max_time;
  for (const NeuronId t : img.terminals) {
    Shard& sh = *shards_[part.shard_of[t]];
    const NeuronId lid = part.local_index[t];
    sh.is_terminal_[lid] = 1;
    sh.active_terminals_.push_back(lid);
  }
  for (const NeuronId w : img.watched) {
    Shard& sh = *shards_[part.shard_of[w]];
    const NeuronId lid = part.local_index[w];
    sh.is_watched_[lid] = 1;
    sh.active_watched_.push_back(lid);
  }
  terminals_remaining_ = img.terminals_remaining;
  terminal_fired_ = img.terminal_fired;

  // Scatter pending events to their owning shards through the normal
  // queue path (ring vs spill follows each shard's own geometry).
  for (const SnapshotBucket& b : img.queue) {
    for (const NeuronId f : b.forced) {
      Shard& sh = *shards_[part.shard_of[f]];
      sh.bucket_for(b.time, 1).forced.push_back(part.local_index[f]);
    }
    for (const SnapshotDelivery& d : b.deliveries) {
      Shard& sh = *shards_[part.shard_of[d.target]];
      Shard::Bucket& bk = sh.bucket_for(b.time, 1);
      bk.targets.push_back(part.local_index[d.target]);
      bk.weights.push_back(d.weight);
      if (img.record_causes) bk.sources.push_back(d.source);
    }
  }
  // The re-enqueue above ran through bucket_for/activate, which bump
  // per-shard artifact counters; zero them so the post-restore deltas the
  // shards accumulate start clean (base_ carries the image's cumulative
  // totals — see finalize_run).
  for (const auto& sh : shards_) {
    sh->peak_queue_events_ = 0;
    sh->overflow_spills_ = 0;
    sh->pool_hits_ = 0;
    sh->pool_misses_ = 0;
  }

  for (const SnapshotNeuron& e : img.neurons) {
    Shard& sh = *shards_[part.shard_of[e.id]];
    const NeuronId lid = part.local_index[e.id];
    sh.touch_state(lid);
    sh.v_[lid] = e.v;
    sh.last_update_[lid] = e.last_update;
    sh.first_spike_[lid] = e.first_spike;
    sh.last_spike_[lid] = e.last_spike;
    sh.spike_count_[lid] = e.spike_count;
    sh.cause_[lid] = e.cause;  // global id, stored as-is
  }

  // The merged log lives here; shard logs stay empty (finalize_run
  // concatenates shard logs onto an empty log_, so seed the restored
  // history into ONE shard to keep the rebuild correct).
  log_ = img.log;
  if (!shards_.empty()) shards_[0]->spike_log_ = img.log;

  base_ = img.stats;
  stats_ = img.stats;
  // Engine-specific fields reflect the LIVE engine, not the source's.
  stats_.ring_buckets =
      shards_.empty() ? 0
                      : static_cast<std::uint32_t>(shards_[0]->ring_.size());
  stats_.csr_bytes = 0;  // the parallel engine does not report CSR bytes
  stats_.storage_encoding = encoding_code(net_->storage_widths());
  base_.ring_buckets = stats_.ring_buckets;
  base_.csr_bytes = 0;
  base_.storage_encoding = stats_.storage_encoding;
  ran_ = img.mid_run;
  paused_ = img.mid_run && img.stats.paused;
  pause_floor_ = img.resume_floor;
  pause_time_ = kNever;
}

Time ParallelSimulator::first_spike(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(), "first_spike: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->first_spike_[p.local_index[id]];
}

std::vector<Time> ParallelSimulator::first_spikes() const {
  std::vector<Time> out(net_->num_neurons(), kNever);
  for (NeuronId id = 0; id < out.size(); ++id) out[id] = first_spike(id);
  return out;
}

Time ParallelSimulator::last_spike(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(), "last_spike: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->last_spike_[p.local_index[id]];
}

std::uint32_t ParallelSimulator::spike_count(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(), "spike_count: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->spike_count_[p.local_index[id]];
}

NeuronId ParallelSimulator::first_spike_cause(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(),
              "first_spike_cause: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->cause_[p.local_index[id]];
}

Voltage ParallelSimulator::potential(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(), "potential: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->v_[p.local_index[id]];
}

}  // namespace sga::snn
