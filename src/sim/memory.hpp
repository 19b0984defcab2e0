// Byte-accounting memory models for the accelerator simulator.
//
// The simulator carries real tensor data through the datapath (the MAC
// array and RAE arithmetic are bit-exact); the SRAM/DRAM objects model
// *capacity and traffic*: every transfer is charged to a counter, split by
// operand kind so the counts can be compared 1:1 against the analytical
// Eqs. (3)–(6) (tests/sim/counts_vs_analytical_test.cpp).
#pragma once

#include <array>
#include <string>

#include "common/check.hpp"
#include "common/types.hpp"
#include "energy/access_counts.hpp"

namespace apsq {

const char* to_string(Operand op);

/// Read/write byte counters per operand kind.
struct TrafficCounters {
  std::array<i64, 4> read_bytes{};
  std::array<i64, 4> write_bytes{};

  i64 reads(Operand op) const { return read_bytes[static_cast<size_t>(op)]; }
  i64 writes(Operand op) const { return write_bytes[static_cast<size_t>(op)]; }
  i64 total(Operand op) const { return reads(op) + writes(op); }
  i64 total_bytes() const;

  void add_read(Operand op, i64 bytes) {
    APSQ_DCHECK(bytes >= 0);
    read_bytes[static_cast<size_t>(op)] += bytes;
  }
  void add_write(Operand op, i64 bytes) {
    APSQ_DCHECK(bytes >= 0);
    write_bytes[static_cast<size_t>(op)] += bytes;
  }

  /// Accumulate `other` × repeat into this counter (integer arithmetic —
  /// order-independent, so aggregates stay schedule-independent).
  void add_scaled(const TrafficCounters& other, i64 repeat) {
    APSQ_DCHECK(repeat >= 0);
    for (size_t k = 0; k < 4; ++k) {
      read_bytes[k] += other.read_bytes[k] * repeat;
      write_bytes[k] += other.write_bytes[k] * repeat;
    }
  }
};

/// On-chip SRAM buffer: capacity-checked byte accounting.
class Sram {
 public:
  Sram(std::string name, i64 capacity_bytes);

  const std::string& name() const { return name_; }
  i64 capacity_bytes() const { return capacity_; }

  void read(Operand op, i64 bytes) { traffic_.add_read(op, bytes); }
  void write(Operand op, i64 bytes) { traffic_.add_write(op, bytes); }

  /// Would a working set of `bytes` be resident? (The fit test of
  /// DESIGN.md §3.1: ≤ capacity.)
  bool fits(double bytes) const {
    return bytes <= static_cast<double>(capacity_);
  }

  const TrafficCounters& traffic() const { return traffic_; }
  void reset() { traffic_ = TrafficCounters{}; }

 private:
  std::string name_;
  i64 capacity_;
  TrafficCounters traffic_;
};

/// Off-chip DRAM: unbounded capacity, traffic accounting only.
class Dram {
 public:
  void read(Operand op, i64 bytes) { traffic_.add_read(op, bytes); }
  void write(Operand op, i64 bytes) { traffic_.add_write(op, bytes); }
  const TrafficCounters& traffic() const { return traffic_; }
  void reset() { traffic_ = TrafficCounters{}; }

 private:
  TrafficCounters traffic_;
};

}  // namespace apsq
