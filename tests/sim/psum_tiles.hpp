// PSUM tile geometry shared by the two sim-vs-closed-form suites.
//
// The simulator moves PSUMs as whole po×pco output tiles (clamped at the
// m×n edges) and charges each transfer ⌈elems·bits/8⌉ bytes; the closed
// forms (Eqs. 3–6) charge elems·bits/8 fractional bytes. The two agree
// exactly when every tile holds a whole number of bytes, and otherwise the
// simulator exceeds the closed form by less than one byte per tile
// transfer.
#pragma once

#include "common/math_util.hpp"

namespace apsq {

/// True iff every PSUM tile of an m×n output holds a whole number of bytes
/// at `bits` per element.
inline bool psum_tiles_byte_aligned(index_t m, index_t n, index_t po,
                                    index_t pco, int bits) {
  for (const index_t rows : {po, m % po})
    for (const index_t cols : {pco, n % pco})
      if (rows * cols * bits % 8 != 0) return false;
  return true;
}

/// Number of PSUM tiles of an m×n output.
inline index_t psum_tile_count(index_t m, index_t n, index_t po, index_t pco) {
  return ceil_div(m, po) * ceil_div(n, pco);
}

}  // namespace apsq
