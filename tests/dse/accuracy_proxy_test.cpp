// The accuracy proxy's contract: its values are pinned bit for bit (the
// golden hexfloats below were recorded from the per-call implementation
// the batch one replaced), and a batch answers every query exactly as a
// batch of one does — whatever else is in the batch, in any order, with
// duplicates, and whatever order its layers are scored in.
#include "dse/accuracy_proxy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "dse/config_space.hpp"
#include "dse/evaluator.hpp"

namespace apsq::dse {
namespace {

constexpr u64 kSeed = 0xD5EULL;

struct Golden {
  const char* workload;
  PsumConfig psum;
  index_t pci;
  u64 seed;
  double value;
};

TEST(AccuracyProxy, MatchesGoldenValues) {
  const Golden golden[] = {
      {"bert", {6, true, 2}, 8, kSeed, 0x1.84ce94584d5e3p-4},
      {"bert", {4, false, 1}, 8, kSeed, 0x1.2450cb61003ebp-1},
      {"bert", {32, false, 1}, 8, kSeed, 0.0},
      {"bert", {8, true, 2}, 32, kSeed + 1, 0x1.1dfd80d6876fcp-9},
      {"llama2", {6, true, 3}, 32, kSeed, 0x1.40d7b0bb743bp-4},
      {"llama2", {8, false, 1}, 32, kSeed, 0x1.80cc1646957fp-8},
      {"llama2", {32, false, 1}, 32, kSeed, 0.0},
      {"segformer", {8, true, 3}, 8, kSeed, 0x1.2ff06389cf233p-9},
      {"segformer", {6, false, 1}, 32, kSeed, 0x1.151d28219fb3p-7},
      {"segformer", {4, true, 4}, 32, kSeed, 0x1.07288b65b91cep-3},
      {"efficientvit", {6, true, 2}, 8, kSeed, 0x1.8b6e24f81bbcep-7},
      {"efficientvit", {4, true, 1}, 8, kSeed, 0x1.a3cd3d70084e2p-3},
      {"efficientvit", {4, false, 1}, 32, kSeed, 0x1.ab9d90ed5aabcp-5},
      {"efficientvit", {8, true, 2}, 32, kSeed, 0x1.6052da649193p-10},
  };
  for (const Golden& g : golden)
    EXPECT_EQ(psum_error_proxy(Evaluator::workload(g.workload), g.psum, g.pci,
                               g.seed),
              g.value)
        << g.workload << " pb=" << g.psum.psum_bits << " apsq=" << g.psum.apsq
        << " gs=" << g.psum.group_size << " pci=" << g.pci;
}

/// Every distinct (psum, pci) query of one workload in the fine space.
std::vector<ProxyQuery> fine_queries() {
  const ConfigSpace space = ConfigSpace::fine_default();
  std::set<index_t> pcis;
  for (const PeGeometry& g : space.geometries) pcis.insert(g.pci);
  std::vector<ProxyQuery> qs;
  for (const PsumConfig& p : space.psum_configs)
    for (index_t pci : pcis) qs.push_back({p, pci});
  return qs;
}

TEST(AccuracyProxy, BatchEqualsSingleKeyCallsOnTheFineSpace) {
  const std::vector<ProxyQuery> qs = fine_queries();
  const std::vector<std::string> workloads = ConfigSpace::fine_default().workloads;
  ASSERT_EQ(workloads.size() * qs.size(), 416u);
  for (const std::string& name : workloads) {
    const Workload& w = Evaluator::workload(name);
    std::vector<double> single;
    for (const ProxyQuery& q : qs)
      single.push_back(psum_error_proxy(w, q.psum, q.pci, kSeed));

    // The whole workload as one batch, in enumeration order.
    const std::vector<double> batch = psum_error_proxies(w, qs, kSeed);
    ASSERT_EQ(batch.size(), qs.size());
    for (size_t i = 0; i < qs.size(); ++i)
      EXPECT_EQ(batch[i], single[i]) << name << " query " << i;

    // Reversed, every query twice, interleaved: query i sits at slots
    // 2(n-1-i) and 2(n-1-i)+1.
    std::vector<ProxyQuery> twice;
    for (size_t i = qs.size(); i-- > 0;) {
      twice.push_back(qs[i]);
      twice.push_back(qs[i]);
    }
    const std::vector<double> dup = psum_error_proxies(w, twice, kSeed);
    for (size_t i = 0; i < qs.size(); ++i) {
      const size_t slot = 2 * (qs.size() - 1 - i);
      EXPECT_EQ(dup[slot], single[i]) << name << " query " << i;
      EXPECT_EQ(dup[slot + 1], single[i]) << name << " query " << i;
    }

    // A sub-batch holding only the shallow (large-pci) queries draws a
    // shorter stream; its answers must not change either.
    std::vector<ProxyQuery> shallow;
    std::vector<double> shallow_single;
    for (size_t i = 0; i < qs.size(); ++i)
      if (qs[i].pci == 32) {
        shallow.push_back(qs[i]);
        shallow_single.push_back(single[i]);
      }
    EXPECT_EQ(psum_error_proxies(w, shallow, kSeed), shallow_single) << name;
  }
}

TEST(AccuracyProxy, LayerScoringOrderDoesNotChangeResults) {
  const Workload& w = Evaluator::workload("bert");
  const std::vector<ProxyQuery> qs = fine_queries();
  ProxyBatch reversed(w, qs, kSeed);
  ASSERT_GT(reversed.layer_count(), 1u);
  for (size_t l = reversed.layer_count(); l-- > 0;) reversed.score_layer(l);
  EXPECT_EQ(reversed.results(), psum_error_proxies(w, qs, kSeed));
}

TEST(AccuracyProxy, FullPrecisionOnlyBatchNeedsNoLayers) {
  const Workload& w = Evaluator::workload("llama2");
  ProxyBatch batch(w, {{PsumConfig::baseline_int32(), 8}}, kSeed);
  EXPECT_EQ(batch.layer_count(), 0u);
  EXPECT_EQ(batch.results(), std::vector<double>{0.0});
}

TEST(AccuracyProxy, RejectsInvalidQueries) {
  const Workload& w = Evaluator::workload("bert");
  EXPECT_THROW(psum_error_proxies(w, {{PsumConfig::apsq_int8(1), 0}}, kSeed),
               std::logic_error);
  EXPECT_THROW(psum_error_proxies(w, {{PsumConfig{8, true, 0}, 8}}, kSeed),
               std::logic_error);
}

}  // namespace
}  // namespace apsq::dse
