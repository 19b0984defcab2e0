// The PSUM tile geometry (psum_tiles.hpp) decides which sim-vs-closed-form
// cases must match exactly and which are held to the whole-tile rounding
// bound. These tests pin it on hand-worked shapes, and pin which
// (workload, PE geometry, PSUM width) combinations of the DSE spaces have
// ragged sub-byte tiles — where the closed forms the DSE scores with
// charge fewer PSUM bytes than the simulator's whole-tile rounding.
#include "sim/psum_tiles.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "dse/config_space.hpp"
#include "dse/evaluator.hpp"

namespace apsq {
namespace {

using Combination = std::tuple<std::string, index_t, index_t, index_t, int>;

/// The (workload, po, pci, pco, PSUM bits) combinations of `space` with at
/// least one layer whose PSUM tiles do not all hold whole bytes, and the
/// number of distinct combinations in the space.
std::set<Combination> ragged_combinations(const dse::ConfigSpace& space,
                                          size_t* total) {
  std::set<int> widths;
  for (const PsumConfig& pc : space.psum_configs) widths.insert(pc.psum_bits);
  std::set<Combination> all, ragged;
  for (const std::string& name : space.workloads)
    for (const dse::PeGeometry& g : space.geometries)
      for (const int bits : widths) {
        const Combination c{name, g.po, g.pci, g.pco, bits};
        all.insert(c);
        for (const LayerShape& l : dse::Evaluator::workload(name).layers)
          if (!psum_tiles_byte_aligned(l.rows, l.co, g.po, g.pco, bits))
            ragged.insert(c);
      }
  *total = all.size();
  return ragged;
}

TEST(PsumTiles, ByteAlignedIffEveryTileHoldsWholeBytes) {
  // 16×48 on 4×4 tiles: every tile has 16 elements, whole bytes at any
  // width.
  for (const int bits : {4, 6, 8, 12, 16, 32})
    EXPECT_TRUE(psum_tiles_byte_aligned(16, 48, 4, 4, bits)) << bits;
  // 13×9 on 4×4 tiles leaves a 1×1 corner tile: ragged below a byte
  // multiple, aligned at 8, 16 and 32 bits.
  for (const int bits : {4, 6, 12})
    EXPECT_FALSE(psum_tiles_byte_aligned(13, 9, 4, 4, bits)) << bits;
  for (const int bits : {8, 16, 32})
    EXPECT_TRUE(psum_tiles_byte_aligned(13, 9, 4, 4, bits)) << bits;
  // A 1×32 row tile with a 28- or 30-wide edge: 28·6 bits is 21 bytes,
  // 30·6 bits is 22.5.
  EXPECT_TRUE(psum_tiles_byte_aligned(5, 60, 1, 32, 6));
  EXPECT_FALSE(psum_tiles_byte_aligned(5, 62, 1, 32, 6));
  EXPECT_TRUE(psum_tiles_byte_aligned(5, 62, 1, 32, 4));
}

TEST(PsumTiles, TileCountCoversTheRaggedEdges) {
  EXPECT_EQ(psum_tile_count(16, 48, 4, 4), 48);
  EXPECT_EQ(psum_tile_count(13, 9, 4, 4), 12);
  EXPECT_EQ(psum_tile_count(5, 62, 1, 32), 10);
  EXPECT_EQ(psum_tile_count(1, 1, 16, 8), 1);
}

TEST(PsumTiles, PaperSpaceRaggedCombinationsAreKnown) {
  // Only these combinations' analytic PSUM traffic differs from the
  // simulator's; folding the rounding into the closed forms would move
  // exactly their scores.
  size_t total = 0;
  const std::set<Combination> ragged =
      ragged_combinations(dse::ConfigSpace::paper_default(), &total);
  EXPECT_EQ(total, 48u);
  const std::set<Combination> expected = {
      Combination{"efficientvit", 1, 32, 32, 6},
      Combination{"segformer", 1, 32, 32, 6}};
  EXPECT_EQ(ragged, expected);
}

TEST(PsumTiles, FineSpaceRaggedCombinationCount) {
  size_t total = 0;
  const std::set<Combination> ragged =
      ragged_combinations(dse::ConfigSpace::fine_default(), &total);
  EXPECT_EQ(total, 2304u);
  EXPECT_EQ(ragged.size(), 32u);
  // Every ragged combination is a sub-byte-multiple width.
  for (const Combination& c : ragged) EXPECT_NE(std::get<4>(c) % 8, 0);
}

}  // namespace
}  // namespace apsq
