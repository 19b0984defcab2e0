#include "dse/config_space.hpp"

#include "common/check.hpp"

namespace apsq::dse {

std::vector<AxisDesc> ConfigSpace::axes() const {
  std::vector<AxisDesc> ax;
  ax.push_back({"workload", static_cast<index_t>(workloads.size()),
                [this](DesignPoint& p, index_t v) {
                  p.workload = workloads[static_cast<size_t>(v)];
                }});
  ax.push_back({"dataflow", static_cast<index_t>(dataflows.size()),
                [this](DesignPoint& p, index_t v) {
                  p.dataflow = dataflows[static_cast<size_t>(v)];
                }});
  ax.push_back({"psum", static_cast<index_t>(psum_configs.size()),
                [this](DesignPoint& p, index_t v) {
                  p.psum = psum_configs[static_cast<size_t>(v)];
                }});
  ax.push_back({"geometry", static_cast<index_t>(geometries.size()),
                [this](DesignPoint& p, index_t v) {
                  const PeGeometry& g = geometries[static_cast<size_t>(v)];
                  p.acc.po = g.po;
                  p.acc.pci = g.pci;
                  p.acc.pco = g.pco;
                }});
  ax.push_back({"buffers", static_cast<index_t>(buffers.size()),
                [this](DesignPoint& p, index_t v) {
                  const BufferSizing& b = buffers[static_cast<size_t>(v)];
                  p.acc.ifmap_buf_bytes = b.ifmap_bytes;
                  p.acc.ofmap_buf_bytes = b.ofmap_bytes;
                  p.acc.weight_buf_bytes = b.weight_bytes;
                }});
  // Fine axes append after the coarse ones (faster-varying) and override
  // the single field the coarse decode already wrote, so a legacy space
  // (all fine axes empty) enumerates byte-identically to the historic
  // five-axis divmod chain.
  if (!ifmap_bytes_axis.empty())
    ax.push_back({"ifmap_bytes", static_cast<index_t>(ifmap_bytes_axis.size()),
                  [this](DesignPoint& p, index_t v) {
                    p.acc.ifmap_buf_bytes = ifmap_bytes_axis[static_cast<size_t>(v)];
                  }});
  if (!ofmap_bytes_axis.empty())
    ax.push_back({"ofmap_bytes", static_cast<index_t>(ofmap_bytes_axis.size()),
                  [this](DesignPoint& p, index_t v) {
                    p.acc.ofmap_buf_bytes = ofmap_bytes_axis[static_cast<size_t>(v)];
                  }});
  if (!weight_bytes_axis.empty())
    ax.push_back({"weight_bytes",
                  static_cast<index_t>(weight_bytes_axis.size()),
                  [this](DesignPoint& p, index_t v) {
                    p.acc.weight_buf_bytes =
                        weight_bytes_axis[static_cast<size_t>(v)];
                  }});
  if (!act_bits_axis.empty())
    ax.push_back({"act_bits", static_cast<index_t>(act_bits_axis.size()),
                  [this](DesignPoint& p, index_t v) {
                    p.acc.act_bits = act_bits_axis[static_cast<size_t>(v)];
                  }});
  if (!weight_bits_axis.empty())
    ax.push_back({"weight_bits", static_cast<index_t>(weight_bits_axis.size()),
                  [this](DesignPoint& p, index_t v) {
                    p.acc.weight_bits = weight_bits_axis[static_cast<size_t>(v)];
                  }});
  return ax;
}

namespace {

/// Product of the axis lengths, overflow-checked.
index_t point_count(const std::vector<AxisDesc>& ax) {
  index_t n = 1;
  for (const AxisDesc& axis : ax) {
    index_t next = 0;
    APSQ_CHECK_MSG(!__builtin_mul_overflow(n, axis.count, &next),
                   "config-space size overflows 64-bit index arithmetic");
    n = next;
  }
  return n;
}

}  // namespace

index_t ConfigSpace::size() const { return point_count(axes()); }

DesignPoint ConfigSpace::at(index_t i) const {
  const std::vector<AxisDesc> ax = axes();
  APSQ_CHECK_MSG(i >= 0 && i < point_count(ax),
                 "design-point index out of range");
  // Mixed-radix digits, last axis fastest. All 64-bit: a digit of a
  // >2³²-point space must never pass through a narrower intermediate.
  std::vector<index_t> digit(ax.size(), 0);
  for (size_t a = ax.size(); a-- > 0;) {
    digit[a] = i % ax[a].count;
    i /= ax[a].count;
  }
  DesignPoint p;
  p.acc.act_bits = act_bits;
  p.acc.weight_bits = weight_bits;
  for (size_t a = 0; a < ax.size(); ++a) ax[a].apply(p, digit[a]);
  return p;
}

void ConfigSpace::validate() const {
  APSQ_CHECK_MSG(!workloads.empty() && !dataflows.empty() &&
                     !psum_configs.empty() && !geometries.empty() &&
                     !buffers.empty(),
                 "every ConfigSpace axis needs at least one value");
  for (const auto& pc : psum_configs) pc.validate();
  for (const auto& g : geometries) APSQ_CHECK(g.po > 0 && g.pci > 0 && g.pco > 0);
  for (const auto& b : buffers)
    APSQ_CHECK(b.ifmap_bytes > 0 && b.ofmap_bytes > 0 && b.weight_bytes > 0);
  APSQ_CHECK(act_bits > 0 && weight_bits > 0);
  for (i64 v : ifmap_bytes_axis) APSQ_CHECK(v > 0);
  for (i64 v : ofmap_bytes_axis) APSQ_CHECK(v > 0);
  for (i64 v : weight_bytes_axis) APSQ_CHECK(v > 0);
  for (int v : act_bits_axis) APSQ_CHECK(v > 0);
  for (int v : weight_bits_axis) APSQ_CHECK(v > 0);
}

std::vector<PsumConfig> ConfigSpace::default_psum_axis() {
  std::vector<PsumConfig> axis;
  for (int bits : {4, 6, 8, 12, 16})
    for (index_t gs = 1; gs <= 4; ++gs)
      axis.push_back(PsumConfig::apsq_bits(bits, gs));
  // Prior-work PSQ: low-bit storage, independent per-tile quantization.
  // (16-bit PSQ doubles as the INT16 baseline of Fig. 1.)
  for (int bits : {4, 6, 8, 12, 16}) axis.push_back(PsumConfig{bits, false, 1});
  axis.push_back(PsumConfig::baseline_int32());
  return axis;
}

ConfigSpace ConfigSpace::paper_default() {
  ConfigSpace s;
  s.workloads = {"bert", "llama2", "segformer", "efficientvit"};
  s.dataflows = {Dataflow::kIS, Dataflow::kWS, Dataflow::kOS};
  s.psum_configs = default_psum_axis();
  // §IV-A DNN parallelism and the §IV-D LLM-decoding parallelism.
  s.geometries = {PeGeometry{16, 8, 8}, PeGeometry{1, 32, 32}};
  // Paper buffers and a half-sized variant (probes the spill cliffs).
  s.buffers = {BufferSizing{256 * 1024, 256 * 1024, 128 * 1024},
               BufferSizing{128 * 1024, 128 * 1024, 64 * 1024}};
  return s;
}

ConfigSpace ConfigSpace::smoke() {
  ConfigSpace s;
  s.workloads = {"bert"};
  s.dataflows = {Dataflow::kWS, Dataflow::kIS};
  s.psum_configs = {PsumConfig::baseline_int32(), PsumConfig::apsq_int8(1),
                    PsumConfig::apsq_int8(4), PsumConfig{8, false, 1}};
  s.geometries = {PeGeometry{16, 8, 8}};
  s.buffers = {BufferSizing{}};
  return s;
}

ConfigSpace ConfigSpace::fine_default() {
  ConfigSpace s;
  s.workloads = {"bert", "llama2", "segformer", "efficientvit"};
  s.dataflows = {Dataflow::kIS, Dataflow::kWS, Dataflow::kOS};
  s.psum_configs = default_psum_axis();
  // Parallelism grid spanning the paper's DNN (16,8,8) and LLM (1,32,32)
  // corners: 6 × 4 × 4 = 96 geometries.
  for (index_t po : {1, 2, 4, 8, 16, 32})
    for (index_t pci : {4, 8, 16, 32})
      for (index_t pco : {4, 8, 16, 32})
        s.geometries.push_back(PeGeometry{po, pci, pco});
  // The coarse buffer axis degenerates to one placeholder entry; the fine
  // per-component axes below override each field independently.
  s.buffers = {BufferSizing{}};
  for (i64 kb : {64, 96, 128, 192, 256, 384, 512})
    s.ifmap_bytes_axis.push_back(kb * 1024);
  s.ofmap_bytes_axis = s.ifmap_bytes_axis;
  for (i64 kb : {32, 48, 64, 96, 128, 192, 256})
    s.weight_bytes_axis.push_back(kb * 1024);
  s.act_bits_axis = {4, 6, 8};
  s.weight_bits_axis = {4, 8};
  return s;
}

}  // namespace apsq::dse
