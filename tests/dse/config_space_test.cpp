#include "dse/config_space.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

namespace apsq::dse {
namespace {

TEST(ConfigSpace, SizeIsAxisProduct) {
  const ConfigSpace s = ConfigSpace::smoke();
  EXPECT_EQ(s.size(), static_cast<index_t>(s.workloads.size() *
                                           s.dataflows.size() *
                                           s.psum_configs.size() *
                                           s.geometries.size() *
                                           s.buffers.size()));
}

TEST(ConfigSpace, EnumerationIsExhaustiveAndDuplicateFree) {
  const ConfigSpace s = ConfigSpace::smoke();
  std::set<std::string> keys;
  for (index_t i = 0; i < s.size(); ++i) {
    const DesignPoint p = s.at(i);
    p.validate();
    keys.insert(canonical_key(p));
  }
  EXPECT_EQ(static_cast<index_t>(keys.size()), s.size());
}

TEST(ConfigSpace, AtIsDeterministic) {
  const ConfigSpace s = ConfigSpace::paper_default();
  for (index_t i : {index_t{0}, s.size() / 2, s.size() - 1})
    EXPECT_EQ(canonical_key(s.at(i)), canonical_key(s.at(i)));
}

TEST(ConfigSpace, PaperDefaultCoversTheAcceptanceSweep) {
  const ConfigSpace s = ConfigSpace::paper_default();
  EXPECT_GE(s.size(), 500);  // ≥500-point sweep
  EXPECT_EQ(s.workloads.size(), 4u);
  std::set<std::string> wl;
  std::set<Dataflow> df;
  std::set<int> bits;
  bool has_psq = false, has_apsq = false, has_baseline = false;
  for (index_t i = 0; i < s.size(); ++i) {
    const DesignPoint p = s.at(i);
    wl.insert(p.workload);
    df.insert(p.dataflow);
    bits.insert(p.psum.psum_bits);
    if (p.psum.apsq) has_apsq = true;
    if (!p.psum.apsq && p.psum.psum_bits < 32) has_psq = true;
    if (!p.psum.apsq && p.psum.psum_bits == 32) has_baseline = true;
  }
  EXPECT_EQ(wl.size(), 4u);
  EXPECT_EQ(df.size(), 3u);
  EXPECT_TRUE(bits.count(4) && bits.count(8) && bits.count(16));
  EXPECT_TRUE(has_apsq && has_psq && has_baseline);
}

TEST(ConfigSpace, DefaultPsumAxisHasGroupSizesOneToFour) {
  std::set<index_t> gs;
  for (const PsumConfig& pc : ConfigSpace::default_psum_axis())
    if (pc.apsq) gs.insert(pc.group_size);
  EXPECT_EQ(gs, (std::set<index_t>{1, 2, 3, 4}));
}

TEST(ConfigSpace, OutOfRangeIndexThrows) {
  const ConfigSpace s = ConfigSpace::smoke();
  EXPECT_THROW(s.at(-1), std::logic_error);
  EXPECT_THROW(s.at(s.size()), std::logic_error);
}

TEST(ConfigSpace, EmptyAxisFailsValidation) {
  ConfigSpace s = ConfigSpace::smoke();
  s.dataflows.clear();
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(ConfigSpace, FineDefaultIsMillionPointScale) {
  const ConfigSpace s = ConfigSpace::fine_default();
  s.validate();
  EXPECT_GE(s.size(), index_t{1000000});
  // The fine axes override what the coarse axes set: decode a point and
  // check the fine fields took effect.
  const DesignPoint p = s.at(s.size() - 1);
  p.validate();
  EXPECT_EQ(p.acc.ifmap_buf_bytes, s.ifmap_bytes_axis.back());
  EXPECT_EQ(p.acc.ofmap_buf_bytes, s.ofmap_bytes_axis.back());
  EXPECT_EQ(p.acc.weight_buf_bytes, s.weight_bytes_axis.back());
  EXPECT_EQ(p.acc.act_bits, s.act_bits_axis.back());
  EXPECT_EQ(p.acc.weight_bits, s.weight_bits_axis.back());
}

TEST(ConfigSpace, FineDecodeIsPinned) {
  // Indices, enumeration order and every decoded field of the fine space
  // are part of stored snapshots and search trajectories: pin them.
  const ConfigSpace s = ConfigSpace::fine_default();
  ASSERT_EQ(s.size(), index_t{61641216});
  EXPECT_EQ(canonical_key(s.at(0)),
            "wl=bert|df=IS|pb=4|apsq=1|gs=1|po=1|pci=4|pco=4|bi=65536|"
            "bo=65536|bw=32768|ab=4|wb=4");
  EXPECT_EQ(canonical_key(s.at(1)),
            "wl=bert|df=IS|pb=4|apsq=1|gs=1|po=1|pci=4|pco=4|bi=65536|"
            "bo=65536|bw=32768|ab=4|wb=8");
  EXPECT_EQ(canonical_key(s.at(1234567)),
            "wl=bert|df=IS|pb=6|apsq=1|gs=3|po=2|pci=8|pco=32|bi=524288|"
            "bo=98304|bw=98304|ab=4|wb=8");
  EXPECT_EQ(canonical_key(s.at(31000000)),
            "wl=segformer|df=IS|pb=4|apsq=1|gs=1|po=32|pci=8|pco=32|"
            "bi=98304|bo=98304|bw=49152|ab=8|wb=4");
  EXPECT_EQ(canonical_key(s.at(49999999)),
            "wl=efficientvit|df=IS|pb=16|apsq=1|gs=4|po=1|pci=8|pco=32|"
            "bi=196608|bo=65536|bw=49152|ab=4|wb=8");
  EXPECT_EQ(canonical_key(s.at(s.size() - 1)),
            "wl=efficientvit|df=OS|pb=32|apsq=0|gs=1|po=32|pci=32|pco=32|"
            "bi=524288|bo=524288|bw=262144|ab=8|wb=8");
  // axes() lists the fields in decode order, slowest first.
  std::vector<index_t> counts;
  for (const AxisDesc& a : s.axes()) counts.push_back(a.count);
  EXPECT_EQ(counts,
            (std::vector<index_t>{4, 3, 26, 96, 1, 7, 7, 7, 3, 2}));
}

TEST(ConfigSpace, IndexArithmeticSurvivesBeyond32Bits) {
  // A space bigger than 2^32 points: mixed-radix decode must run in
  // 64-bit throughout — with any 32-bit truncation, indices that agree
  // modulo 2^32 would decode to the same point.
  ConfigSpace s = ConfigSpace::fine_default();
  for (int rep = 0; s.size() <= (index_t{1} << 32); ++rep)
    s.ifmap_bytes_axis.push_back(s.ifmap_bytes_axis.back() + 1024 * (rep + 1));
  ASSERT_GT(s.size(), index_t{1} << 32);
  const index_t lo = 12345;
  const index_t hi = lo + (index_t{1} << 32);
  EXPECT_NE(canonical_key(s.at(lo)), canonical_key(s.at(hi)));
  EXPECT_EQ(canonical_key(s.at(hi)), canonical_key(s.at(hi)));
}

TEST(ConfigSpace, SizeOverflowErrorsRatherThanWraps) {
  // Grow the axes until the point count exceeds 2^63: size() must refuse
  // with a logic error, never silently wrap to a small or negative count.
  ConfigSpace s = ConfigSpace::fine_default();
  const auto extend = [](std::vector<i64>& axis, size_t to) {
    while (axis.size() < to) axis.push_back(axis.back() + 1024);
  };
  extend(s.ifmap_bytes_axis, 10000);
  extend(s.ofmap_bytes_axis, 10000);
  extend(s.weight_bytes_axis, 10000);
  while (s.act_bits_axis.size() < 300)
    s.act_bits_axis.push_back(s.act_bits_axis.back() + 1);
  EXPECT_THROW(s.size(), std::logic_error);
}

}  // namespace
}  // namespace apsq::dse
