// Property tests for the deterministic degree-balanced partitioner and the
// shard-aware CSR split (snn/partition.h) the parallel simulator runs on.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/random.h"
#include "snn/compiled_network.h"
#include "snn/network.h"
#include "snn/partition.h"

namespace sga {
namespace {

snn::Network random_net(std::uint64_t seed) {
  Rng rng(0xBEEF + seed * 0x9E3779B97F4A7C15ULL);
  snn::Network net;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 50));
  for (std::size_t i = 0; i < n; ++i) {
    net.add_neuron(snn::NeuronParams{0, 1, 0.0});
  }
  const auto syn = static_cast<std::size_t>(rng.uniform_int(0, 6 * n));
  for (std::size_t s = 0; s < syn; ++s) {
    net.add_synapse(static_cast<NeuronId>(
                        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)),
                    static_cast<NeuronId>(
                        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)),
                    1, rng.uniform_int(1, 20));
  }
  return net;
}

class PartitionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PartitionFuzz, EveryNeuronAssignedExactlyOnceWithConsistentIndices) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x5EED + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));

  const snn::Partition p = make_partition(net, s);
  ASSERT_EQ(p.num_shards, s);
  ASSERT_EQ(p.shard_of.size(), net.num_neurons());
  ASSERT_EQ(p.local_index.size(), net.num_neurons());
  ASSERT_EQ(p.shard_neurons.size(), s);
  ASSERT_EQ(p.shard_load.size(), s);

  // Exactly-once: shard membership lists tile [0, n), and the inverse
  // (shard_of, local_index) maps agree with them.
  std::set<NeuronId> seen;
  for (std::size_t sh = 0; sh < s; ++sh) {
    ASSERT_TRUE(std::is_sorted(p.shard_neurons[sh].begin(),
                               p.shard_neurons[sh].end()));
    for (std::size_t k = 0; k < p.shard_neurons[sh].size(); ++k) {
      const NeuronId id = p.shard_neurons[sh][k];
      ASSERT_TRUE(seen.insert(id).second) << "neuron " << id << " twice";
      ASSERT_EQ(p.shard_of[id], sh);
      ASSERT_EQ(p.local_index[id], k);
    }
  }
  ASSERT_EQ(seen.size(), net.num_neurons());

  // Load bookkeeping matches the documented weight model.
  for (std::size_t sh = 0; sh < s; ++sh) {
    std::uint64_t load = 0;
    for (const NeuronId id : p.shard_neurons[sh]) {
      load += 1 + net.out_degree(id);
    }
    EXPECT_EQ(p.shard_load[sh], load) << "shard " << sh;
  }
}

TEST_P(PartitionFuzz, LoadStaysWithinTheDocumentedBalanceBound) {
  // LPT guarantee stated in partition.h: when a neuron lands on the
  // lightest shard, that shard held ≤ total/S, so every final load is
  // ≤ total/S + w_max.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x10AD + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));
  const snn::Partition p = make_partition(net, s);

  std::uint64_t total = 0;
  std::uint64_t w_max = 0;
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    const std::uint64_t w = 1 + net.out_degree(id);
    total += w;
    w_max = std::max(w_max, w);
  }
  for (std::size_t sh = 0; sh < s; ++sh) {
    EXPECT_LE(p.shard_load[sh], total / s + w_max)
        << "seed " << seed << " shard " << sh << "/" << s;
  }
}

TEST_P(PartitionFuzz, DeterministicForANetworkAndShardCount) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0xDE7E + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));

  const snn::Partition a = make_partition(net, s);
  const snn::Partition b = make_partition(net, s);
  EXPECT_EQ(a.shard_of, b.shard_of);
  EXPECT_EQ(a.local_index, b.local_index);
  EXPECT_EQ(a.shard_neurons, b.shard_neurons);
  EXPECT_EQ(a.shard_load, b.shard_load);
}

TEST_P(PartitionFuzz, ShardSplitPreservesEverySynapseExactlyOnce) {
  // Round-trip: reconstruct (source, target, weight, delay) tuples from
  // the intra + cross families and compare against the CSR — same
  // multiset, and per-source insertion order preserved within families.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x59117 + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));
  const snn::ShardSplit split = net.shard_split(make_partition(net, s));

  using Syn = std::tuple<NeuronId, NeuronId, SynWeight, Delay>;
  std::vector<Syn> expect;
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    for (std::size_t k = net.out_begin(id); k < net.out_end(id); ++k) {
      expect.emplace_back(id, net.syn_target(k), net.syn_weight(k),
                          net.syn_delay(k));
    }
  }
  std::vector<Syn> got;
  std::size_t cross_count = 0;
  Delay min_cross = 0;
  for (std::size_t sh = 0; sh < split.shards.size(); ++sh) {
    const snn::ShardCsr& c = split.shards[sh];
    for (std::size_t k = 0; k < c.num_neurons(); ++k) {
      const NeuronId src = c.global_ids[k];
      for (std::size_t j = c.intra_offsets[k]; j < c.intra_offsets[k + 1];
           ++j) {
        const NeuronId tgt =
            split.partition.shard_neurons[sh][c.intra_target[j]];
        got.emplace_back(src, tgt, c.intra_weight[j], c.intra_delay[j]);
      }
      for (std::size_t j = c.cross_offsets[k]; j < c.cross_offsets[k + 1];
           ++j) {
        ASSERT_NE(c.cross_shard[j], sh) << "cross synapse stayed home";
        const NeuronId tgt =
            split.partition.shard_neurons[c.cross_shard[j]][c.cross_local[j]];
        got.emplace_back(src, tgt, c.cross_weight[j], c.cross_delay[j]);
        ++cross_count;
        min_cross = min_cross == 0 ? c.cross_delay[j]
                                   : std::min(min_cross, c.cross_delay[j]);
      }
    }
  }
  std::sort(expect.begin(), expect.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect) << "seed " << seed << " S " << s;
  EXPECT_EQ(split.num_cross_synapses, cross_count);
  EXPECT_EQ(split.min_cross_delay, min_cross);
}

TEST_P(PartitionFuzz, SegmentCsrsTileBothFamiliesWithSortedRuns) {
  // The segmented layout (ARCHITECTURE.md §1.6): every member neuron's
  // intra family must be tiled by delay runs with strictly increasing
  // delays, and its cross family by (shard, delay) runs in strictly
  // increasing lexicographic order — non-empty, contiguous, gap-free, and
  // every covered synapse carrying its segment's key. That exact structure
  // is what lets the shard fire() do one queue lookup (or one mailbox slab)
  // per run.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x59117 + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));
  const snn::ShardSplit split = net.shard_split(make_partition(net, s));

  for (std::size_t sh = 0; sh < split.shards.size(); ++sh) {
    const snn::ShardCsr& c = split.shards[sh];
    ASSERT_EQ(c.intra_seg_offsets.size(), c.num_neurons() + 1);
    ASSERT_EQ(c.cross_seg_offsets.size(), c.num_neurons() + 1);
    for (std::size_t k = 0; k < c.num_neurons(); ++k) {
      std::size_t expect_next = c.intra_offsets[k];
      for (std::size_t g = c.intra_seg_offsets[k];
           g < c.intra_seg_offsets[k + 1]; ++g) {
        EXPECT_EQ(c.intra_seg_begin[g], expect_next) << "gap or overlap";
        EXPECT_LT(c.intra_seg_begin[g], c.intra_seg_end[g]) << "empty run";
        if (g > c.intra_seg_offsets[k]) {
          EXPECT_LT(c.intra_seg_delay[g - 1], c.intra_seg_delay[g])
              << "intra delays not strictly increasing";
        }
        for (std::size_t j = c.intra_seg_begin[g]; j < c.intra_seg_end[g];
             ++j) {
          EXPECT_EQ(c.intra_delay[j], c.intra_seg_delay[g]);
        }
        expect_next = c.intra_seg_end[g];
      }
      EXPECT_EQ(expect_next, c.intra_offsets[k + 1])
          << "intra segments do not cover the row";

      expect_next = c.cross_offsets[k];
      for (std::size_t g = c.cross_seg_offsets[k];
           g < c.cross_seg_offsets[k + 1]; ++g) {
        EXPECT_EQ(c.cross_seg_begin[g], expect_next) << "gap or overlap";
        EXPECT_LT(c.cross_seg_begin[g], c.cross_seg_end[g]) << "empty run";
        if (g > c.cross_seg_offsets[k]) {
          const bool increasing =
              c.cross_seg_shard[g - 1] < c.cross_seg_shard[g] ||
              (c.cross_seg_shard[g - 1] == c.cross_seg_shard[g] &&
               c.cross_seg_delay[g - 1] < c.cross_seg_delay[g]);
          EXPECT_TRUE(increasing)
              << "cross (shard, delay) keys not strictly increasing";
        }
        for (std::size_t j = c.cross_seg_begin[g]; j < c.cross_seg_end[g];
             ++j) {
          EXPECT_EQ(c.cross_shard[j], c.cross_seg_shard[g]);
          EXPECT_EQ(c.cross_delay[j], c.cross_seg_delay[g]);
        }
        expect_next = c.cross_seg_end[g];
      }
      EXPECT_EQ(expect_next, c.cross_offsets[k + 1])
          << "cross segments do not cover the row";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionFuzz, ::testing::Range(0, 20));

// --- kCutRefined property suite (ISSUE 9) ------------------------------
//
// The refinement contract from partition.h: lexicographic objective that
// never decreases min cross delay (0 = "no cross" orders above every real
// delay), only accepts strictly-improving cut moves, respects the LPT
// balance cap, and is a pure function of (network, S).

// Orders min-cross-delay values with the 0 = +∞ ("no cross") convention.
std::uint64_t min_cross_rank(Delay d) {
  return d == 0 ? std::numeric_limits<std::uint64_t>::max()
                : static_cast<std::uint64_t>(d);
}

class CutRefinedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CutRefinedFuzz, NeverWorseThanTheLptSeedOnEitherObjective) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0xC07 + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));

  const snn::Partition lpt =
      make_partition(net, s, snn::PartitionKind::kLpt);
  const snn::Partition ref =
      make_partition(net, s, snn::PartitionKind::kCutRefined);
  ASSERT_EQ(lpt.kind, snn::PartitionKind::kLpt);
  ASSERT_EQ(ref.kind, snn::PartitionKind::kCutRefined);
  EXPECT_TRUE(lpt.pass_cut_weight.empty());

  EXPECT_LE(partition_cut_weight(net, ref),
            partition_cut_weight(net, lpt) + 1e-9)
      << "seed " << seed << " S " << s;
  EXPECT_GE(min_cross_rank(partition_min_cross_delay(net, ref)),
            min_cross_rank(partition_min_cross_delay(net, lpt)))
      << "refinement shrank the lookahead window, seed " << seed;
}

TEST_P(CutRefinedFuzz, TelemetryIsMonotoneAndMatchesTheHelpers) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x7E1E + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(2, 12));

  const snn::Partition lpt =
      make_partition(net, s, snn::PartitionKind::kLpt);
  const snn::Partition ref =
      make_partition(net, s, snn::PartitionKind::kCutRefined);
  ASSERT_FALSE(ref.pass_cut_weight.empty());
  ASSERT_EQ(ref.pass_cut_weight.size(), ref.pass_min_cross_delay.size());

  // Entry 0 describes the LPT seed; the last entry the final partition.
  EXPECT_NEAR(ref.pass_cut_weight.front(), partition_cut_weight(net, lpt),
              1e-9);
  EXPECT_EQ(ref.pass_min_cross_delay.front(),
            partition_min_cross_delay(net, lpt));
  EXPECT_NEAR(ref.pass_cut_weight.back(), partition_cut_weight(net, ref),
              1e-9);
  EXPECT_EQ(ref.pass_min_cross_delay.back(),
            partition_min_cross_delay(net, ref));

  for (std::size_t i = 1; i < ref.pass_cut_weight.size(); ++i) {
    EXPECT_LE(ref.pass_cut_weight[i], ref.pass_cut_weight[i - 1])
        << "cut weight rose in pass " << i << ", seed " << seed;
    EXPECT_GE(min_cross_rank(ref.pass_min_cross_delay[i]),
              min_cross_rank(ref.pass_min_cross_delay[i - 1]))
        << "min cross delay fell in pass " << i << ", seed " << seed;
  }
}

TEST_P(CutRefinedFuzz, KeepsEveryStructuralInvariantOfThePartition) {
  // Refinement moves neurons around, so re-check exactly-once, load
  // bookkeeping, the balance cap, and determinism on the refined result.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x17BA + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));

  const snn::Partition p =
      make_partition(net, s, snn::PartitionKind::kCutRefined);
  std::set<NeuronId> seen;
  for (std::size_t sh = 0; sh < s; ++sh) {
    ASSERT_TRUE(std::is_sorted(p.shard_neurons[sh].begin(),
                               p.shard_neurons[sh].end()));
    std::uint64_t load = 0;
    for (std::size_t k = 0; k < p.shard_neurons[sh].size(); ++k) {
      const NeuronId id = p.shard_neurons[sh][k];
      ASSERT_TRUE(seen.insert(id).second) << "neuron " << id << " twice";
      ASSERT_EQ(p.shard_of[id], sh);
      ASSERT_EQ(p.local_index[id], k);
      load += 1 + net.out_degree(id);
    }
    EXPECT_EQ(p.shard_load[sh], load) << "shard " << sh;
  }
  ASSERT_EQ(seen.size(), net.num_neurons());

  std::uint64_t total = 0;
  std::uint64_t w_max = 0;
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    const std::uint64_t w = 1 + net.out_degree(id);
    total += w;
    w_max = std::max(w_max, w);
  }
  for (std::size_t sh = 0; sh < s; ++sh) {
    EXPECT_LE(p.shard_load[sh], total / s + w_max)
        << "refined move broke the balance cap, seed " << seed;
  }

  const snn::Partition q =
      make_partition(net, s, snn::PartitionKind::kCutRefined);
  EXPECT_EQ(p.shard_of, q.shard_of);
  EXPECT_EQ(p.shard_neurons, q.shard_neurons);
  EXPECT_EQ(p.pass_cut_weight, q.pass_cut_weight);
  EXPECT_EQ(p.pass_min_cross_delay, q.pass_min_cross_delay);
}

TEST_P(CutRefinedFuzz, ShardSplitRoundTripsTheRefinedPartition) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const snn::CompiledNetwork net = random_net(seed).compile();
  Rng rng(0x5B117 + seed);
  const auto s = static_cast<std::size_t>(rng.uniform_int(1, 12));
  const snn::ShardSplit split =
      net.shard_split(make_partition(net, s, snn::PartitionKind::kCutRefined));

  using Syn = std::tuple<NeuronId, NeuronId, SynWeight, Delay>;
  std::vector<Syn> expect;
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    for (std::size_t k = net.out_begin(id); k < net.out_end(id); ++k) {
      expect.emplace_back(id, net.syn_target(k), net.syn_weight(k),
                          net.syn_delay(k));
    }
  }
  std::vector<Syn> got;
  for (std::size_t sh = 0; sh < split.shards.size(); ++sh) {
    const snn::ShardCsr& c = split.shards[sh];
    for (std::size_t k = 0; k < c.num_neurons(); ++k) {
      const NeuronId src = c.global_ids[k];
      for (std::size_t j = c.intra_offsets[k]; j < c.intra_offsets[k + 1];
           ++j) {
        got.emplace_back(src,
                         split.partition.shard_neurons[sh][c.intra_target[j]],
                         c.intra_weight[j], c.intra_delay[j]);
      }
      for (std::size_t j = c.cross_offsets[k]; j < c.cross_offsets[k + 1];
           ++j) {
        got.emplace_back(
            src,
            split.partition.shard_neurons[c.cross_shard[j]][c.cross_local[j]],
            c.cross_weight[j], c.cross_delay[j]);
      }
    }
  }
  std::sort(expect.begin(), expect.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect) << "seed " << seed << " S " << s;
  EXPECT_EQ(split.min_cross_delay,
            partition_min_cross_delay(net, split.partition));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutRefinedFuzz, ::testing::Range(0, 20));

TEST(CutRefined, LocalChainBeatsLptOnCutAndKeepsIsolatedNeurons) {
  // A chain 0→1→…→9 (delay 1) plus two isolated neurons: LPT scatters by
  // degree and cuts the chain many times; refinement must strictly reduce
  // the cut, and the isolated neurons must stay assigned exactly once.
  snn::Network net;
  for (int i = 0; i < 12; ++i) net.add_neuron(snn::NeuronParams{0, 1, 0.0});
  for (NeuronId i = 0; i + 1 < 10; ++i) net.add_synapse(i, i + 1, 1, 1);
  const snn::CompiledNetwork compiled = net.compile();

  const snn::Partition lpt =
      make_partition(compiled, 2, snn::PartitionKind::kLpt);
  const snn::Partition ref =
      make_partition(compiled, 2, snn::PartitionKind::kCutRefined);
  EXPECT_LT(partition_cut_weight(compiled, ref),
            partition_cut_weight(compiled, lpt))
      << "refinement found no improvement on a cut-heavy chain";

  std::set<NeuronId> seen;
  for (const auto& members : ref.shard_neurons) {
    for (const NeuronId id : members) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), compiled.num_neurons());
}

TEST(CutRefined, SingleShardAndEmptyNetworkAreNoOps) {
  const snn::CompiledNetwork one = random_net(3).compile();
  const snn::Partition p1 =
      make_partition(one, 1, snn::PartitionKind::kCutRefined);
  for (NeuronId id = 0; id < one.num_neurons(); ++id) {
    EXPECT_EQ(p1.shard_of[id], 0u);
    EXPECT_EQ(p1.local_index[id], id);
  }

  snn::Network empty;
  const snn::CompiledNetwork compiled = empty.compile();
  const snn::Partition p0 =
      make_partition(compiled, 4, snn::PartitionKind::kCutRefined);
  EXPECT_TRUE(p0.shard_of.empty());
  EXPECT_EQ(p0.num_shards, 4u);
}

TEST(Partition, SingleShardIsTheIdentityLayout) {
  const snn::CompiledNetwork net = random_net(3).compile();
  const snn::Partition p = make_partition(net, 1);
  ASSERT_EQ(p.shard_neurons.size(), 1u);
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    EXPECT_EQ(p.shard_of[id], 0u);
    EXPECT_EQ(p.local_index[id], id);
    EXPECT_EQ(p.shard_neurons[0][id], id);
  }
  // With one shard nothing crosses: the split is the whole CSR, local.
  const snn::ShardSplit split = net.shard_split(p);
  EXPECT_EQ(split.num_cross_synapses, 0u);
  EXPECT_EQ(split.min_cross_delay, 0u);
  EXPECT_EQ(split.shards[0].intra_target.size(), net.num_synapses());
}

TEST(Partition, EmptyNetwork) {
  snn::Network net;
  const snn::CompiledNetwork compiled = net.compile();
  const snn::Partition p = make_partition(compiled, 4);
  EXPECT_EQ(p.num_shards, 4u);
  EXPECT_TRUE(p.shard_of.empty());
  for (const auto& members : p.shard_neurons) EXPECT_TRUE(members.empty());
  const snn::ShardSplit split = compiled.shard_split(p);
  EXPECT_EQ(split.shards.size(), 4u);
  EXPECT_EQ(split.num_cross_synapses, 0u);
}

TEST(Partition, SingleNeuronWithSelfLoop) {
  snn::Network net;
  net.add_neuron(snn::NeuronParams{0, 1, 0.0});
  net.add_synapse(0, 0, 1, 5);
  const snn::CompiledNetwork compiled = net.compile();
  const snn::Partition p = make_partition(compiled, 3);
  EXPECT_EQ(p.shard_of[0], 0u);  // lightest-shard tie breaks low
  const snn::ShardSplit split = compiled.shard_split(p);
  // The self-loop is intra-shard wherever the neuron lands.
  EXPECT_EQ(split.num_cross_synapses, 0u);
  EXPECT_EQ(split.shards[0].intra_target.size(), 1u);
  EXPECT_EQ(split.shards[0].intra_target[0], 0u);
}

// ---- Encoding independence ------------------------------------------------
// The partitioner and the split read the frozen store through
// CompiledNetwork::RowReader; the storage encoding must not move a single
// output array.

void expect_partitions_eq(const snn::Partition& a, const snn::Partition& b,
                          const std::string& what) {
  EXPECT_EQ(a.shard_of, b.shard_of) << what;
  EXPECT_EQ(a.local_index, b.local_index) << what;
  EXPECT_EQ(a.shard_neurons, b.shard_neurons) << what;
  EXPECT_EQ(a.shard_load, b.shard_load) << what;
  EXPECT_EQ(a.pass_min_cross_delay, b.pass_min_cross_delay) << what;
  EXPECT_EQ(a.pass_cut_weight, b.pass_cut_weight) << what;
}

void expect_splits_eq(const snn::ShardSplit& a, const snn::ShardSplit& b,
                      const std::string& what) {
  expect_partitions_eq(a.partition, b.partition, what);
  EXPECT_EQ(a.min_cross_delay, b.min_cross_delay) << what;
  EXPECT_EQ(a.num_cross_synapses, b.num_cross_synapses) << what;
  ASSERT_EQ(a.shards.size(), b.shards.size()) << what;
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    const snn::ShardCsr& x = a.shards[s];
    const snn::ShardCsr& y = b.shards[s];
    const std::string at = what + " shard " + std::to_string(s);
    EXPECT_EQ(x.global_ids, y.global_ids) << at;
    EXPECT_EQ(x.intra_offsets, y.intra_offsets) << at;
    EXPECT_EQ(x.intra_target, y.intra_target) << at;
    EXPECT_EQ(x.intra_weight, y.intra_weight) << at;
    EXPECT_EQ(x.intra_delay, y.intra_delay) << at;
    EXPECT_EQ(x.cross_offsets, y.cross_offsets) << at;
    EXPECT_EQ(x.cross_shard, y.cross_shard) << at;
    EXPECT_EQ(x.cross_local, y.cross_local) << at;
    EXPECT_EQ(x.cross_weight, y.cross_weight) << at;
    EXPECT_EQ(x.cross_delay, y.cross_delay) << at;
    EXPECT_EQ(x.intra_seg_offsets, y.intra_seg_offsets) << at;
    EXPECT_EQ(x.intra_seg_delay, y.intra_seg_delay) << at;
    EXPECT_EQ(x.intra_seg_begin, y.intra_seg_begin) << at;
    EXPECT_EQ(x.intra_seg_end, y.intra_seg_end) << at;
    EXPECT_EQ(x.cross_seg_offsets, y.cross_seg_offsets) << at;
    EXPECT_EQ(x.cross_seg_shard, y.cross_seg_shard) << at;
    EXPECT_EQ(x.cross_seg_delay, y.cross_seg_delay) << at;
    EXPECT_EQ(x.cross_seg_begin, y.cross_seg_begin) << at;
    EXPECT_EQ(x.cross_seg_end, y.cross_seg_end) << at;
  }
}

/// Local-ish random network large enough for many packed blocks, with some
/// weights that are not f32-exact (a double weight column when narrow).
snn::Network encoding_net() {
  Rng rng(0xC0DE);
  snn::Network net;
  const std::int64_t n = 300;
  for (std::int64_t i = 0; i < n; ++i) {
    net.add_neuron(snn::NeuronParams{0, 1, 0.0});
  }
  for (std::int64_t e = 0; e < 10 * n; ++e) {
    const std::int64_t from = rng.uniform_int(0, n - 1);
    const std::int64_t to = rng.bernoulli(0.7)
                                ? (from + rng.uniform_int(0, 12)) % n
                                : rng.uniform_int(0, n - 1);
    SynWeight w = static_cast<SynWeight>(rng.uniform_int(1, 4));
    if (rng.bernoulli(0.1)) w += 0.1;
    net.add_synapse(static_cast<NeuronId>(from), static_cast<NeuronId>(to), w,
                    rng.uniform_int(1, 20));
  }
  return net;
}

TEST(PartitionEncoding, OutputsAreIdenticalAcrossWideNarrowAndPacked) {
  const snn::Network builder = encoding_net();
  const snn::CompiledNetwork wide(builder, snn::StoragePolicy::kWide);
  const snn::CompiledNetwork narrow(builder, snn::StoragePolicy::kNarrow);
  const snn::CompiledNetwork packed(builder, snn::StoragePolicy::kPacked);
  ASSERT_FALSE(wide.storage_widths().narrow);
  ASSERT_TRUE(narrow.storage_widths().narrow);
  ASSERT_FALSE(narrow.storage_widths().packed);
  ASSERT_TRUE(packed.storage_widths().packed);

  for (const std::size_t S : {2u, 3u, 4u}) {
    for (const snn::PartitionKind kind :
         {snn::PartitionKind::kLpt, snn::PartitionKind::kCutRefined}) {
      const snn::Partition pw = make_partition(wide, S, kind);
      for (const snn::CompiledNetwork* net : {&narrow, &packed}) {
        const std::string what =
            std::string(encoding_name(net->storage_widths())) + " S=" +
            std::to_string(S) +
            (kind == snn::PartitionKind::kLpt ? " lpt" : " refined");
        const snn::Partition p = make_partition(*net, S, kind);
        expect_partitions_eq(pw, p, what);
        EXPECT_EQ(partition_cut_weight(wide, pw),
                  partition_cut_weight(*net, p))
            << what;
        EXPECT_EQ(partition_min_cross_delay(wide, pw),
                  partition_min_cross_delay(*net, p))
            << what;
        expect_splits_eq(wide.shard_split(pw), net->shard_split(p), what);
      }
    }
  }
}

TEST(PartitionEncoding, PackedSweepsDecodeEachBlockAtMostOncePerSweep) {
  // Machine-independent guard for the reader path: a fall-back to the
  // per-synapse accessors would decode each block up to 64 times per sweep
  // (or bypass the reader's count altogether) and fail here.
  const snn::CompiledNetwork flat(encoding_net(), snn::StoragePolicy::kNarrow);
  const snn::CompiledNetwork packed(encoding_net(),
                                    snn::StoragePolicy::kPacked);
  const std::size_t nb =
      (packed.num_synapses() + snn::kPackedBlockSize - 1) /
      snn::kPackedBlockSize;
  ASSERT_GE(nb, 2u);

  for (const std::size_t S : {2u, 4u}) {
    const snn::Partition p =
        make_partition(packed, S, snn::PartitionKind::kCutRefined);
    // Two setup sweeps (seed histogram, transpose) plus one per pass; each
    // reads every row in ascending order, and every block holds synapses,
    // so each sweep decodes every block exactly once.
    const std::size_t sweeps = 2 + (p.pass_cut_weight.size() - 1);
    EXPECT_EQ(p.blocks_decoded, nb * sweeps) << "S=" << S;

    // The split: a count and a fill pass per shard, each an ascending sweep
    // over that shard's members. Shards interleave over the blocks, so the
    // exact count follows from the member lists: one decode each time a
    // pass moves onto a block other than the one last decoded.
    std::size_t expect_split = 0;
    std::size_t cached = std::numeric_limits<std::size_t>::max();
    for (const std::vector<NeuronId>& members : p.shard_neurons) {
      for (int pass = 0; pass < 2; ++pass) {
        for (const NeuronId id : members) {
          for (std::size_t k = packed.out_begin(id); k < packed.out_end(id);
               ++k) {
            const std::size_t block = k / snn::kPackedBlockSize;
            if (block != cached) ++expect_split;
            cached = block;
          }
        }
      }
    }
    const snn::ShardSplit split = packed.shard_split(p);
    EXPECT_EQ(split.blocks_decoded, expect_split) << "S=" << S;
    EXPECT_LE(split.blocks_decoded, 2 * S * nb) << "S=" << S;

    EXPECT_EQ(make_partition(packed, S, snn::PartitionKind::kLpt)
                  .blocks_decoded,
              0u);
    const snn::Partition pf =
        make_partition(flat, S, snn::PartitionKind::kCutRefined);
    EXPECT_EQ(pf.blocks_decoded, 0u);
    EXPECT_EQ(flat.shard_split(pf).blocks_decoded, 0u);
  }
}

TEST(Partition, RejectsMismatchedPartition) {
  const snn::CompiledNetwork a = random_net(1).compile();
  const snn::CompiledNetwork b = random_net(2).compile();
  if (a.num_neurons() == b.num_neurons()) GTEST_SKIP();
  EXPECT_THROW(b.shard_split(make_partition(a, 2)), std::runtime_error);
}

}  // namespace
}  // namespace sga
