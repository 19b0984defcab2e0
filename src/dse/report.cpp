#include "dse/report.hpp"

#include <algorithm>

#include "common/stats_writer.hpp"
#include "dse/evaluator.hpp"
#include "sim/stats.hpp"

namespace apsq::dse {

std::string format_double(double v) { return apsq::format_double(v); }

namespace {

std::vector<std::string> result_row(const EvalResult& r) {
  const DesignPoint& p = r.point;
  std::vector<std::string> row = {p.workload,
                                  to_string(p.dataflow),
                                  std::to_string(p.psum.psum_bits),
                                  std::to_string(p.psum.apsq ? 1 : 0),
                                  std::to_string(p.psum.group_size),
                                  std::to_string(p.acc.po),
                                  std::to_string(p.acc.pci),
                                  std::to_string(p.acc.pco),
                                  std::to_string(p.acc.ifmap_buf_bytes),
                                  std::to_string(p.acc.ofmap_buf_bytes),
                                  std::to_string(p.acc.weight_buf_bytes),
                                  std::to_string(p.acc.act_bits),
                                  std::to_string(p.acc.weight_bits)};
  for (int i = 0; i < kObjectiveCount; ++i)
    row.push_back(format_double(r.obj.get(static_cast<Objective>(i))));
  return row;
}

/// Human-readable column header / rendering for one objective. Extend
/// alongside the Objective enum so the front table stays generic.
const char* objective_header(Objective o) {
  switch (o) {
    case Objective::kEnergy: return "Energy (uJ)";
    case Objective::kArea: return "Area (mm2)";
    case Objective::kError: return "Error";
    case Objective::kLatency: return "Latency (ms)";
    case Objective::kPeUtilization: return "PE util";
    case Objective::kDramBwHeadroom: return "BW headroom";
    case Objective::kThroughputPerArea: return "GMAC/s/mm2";
  }
  return "";
}

std::string objective_display(Objective o, double v) {
  switch (o) {
    case Objective::kEnergy: return Table::num(v / 1e6, 1);
    case Objective::kArea: return Table::num(v / 1e6, 3);
    case Objective::kError: return Table::num(v, 6);
    case Objective::kLatency: return Table::num(v * 1e3, 3);
    case Objective::kPeUtilization: return Table::num(v, 3);
    case Objective::kDramBwHeadroom: return Table::num(v, 3);
    case Objective::kThroughputPerArea: return Table::num(v, 2);
  }
  return "";
}

}  // namespace

CsvWriter results_csv(const std::vector<EvalResult>& results,
                      const std::string& scored_by) {
  std::vector<std::string> header = {
      "workload", "dataflow",        "psum_bits",       "apsq",
      "group_size", "po",            "pci",             "pco",
      "ifmap_buf_bytes", "ofmap_buf_bytes", "weight_buf_bytes",
      "act_bits", "weight_bits"};
  for (int i = 0; i < kObjectiveCount; ++i)
    header.push_back(objective_column(static_cast<Objective>(i)));
  if (!scored_by.empty()) header.push_back("scored_by");
  CsvWriter csv(header);
  for (const EvalResult& r : results) {
    std::vector<std::string> row = result_row(r);
    if (!scored_by.empty()) row.push_back(scored_by);
    csv.add_row(row);
  }
  return csv;
}

Table front_table(const std::vector<EvalResult>& front) {
  std::vector<std::string> header = {"Workload", "Dataflow", "PSUM", "gs",
                                     "PE (Po,Pci,Pco)", "Bufs (KB)",
                                     "Bits (A/W)"};
  for (int i = 0; i < kObjectiveCount; ++i)
    header.push_back(objective_header(static_cast<Objective>(i)));
  Table t(header);
  for (const EvalResult& r : front) {
    const DesignPoint& p = r.point;
    const std::string psum_label =
        (p.psum.apsq ? "APSQ INT" : (p.psum.psum_bits >= 32 ? "INT" : "PSQ INT")) +
        std::to_string(p.psum.psum_bits);
    std::vector<std::string> row = {
        p.workload, to_string(p.dataflow), psum_label,
        std::to_string(p.psum.group_size),
        std::to_string(p.acc.po) + "," + std::to_string(p.acc.pci) + "," +
            std::to_string(p.acc.pco),
        std::to_string(p.acc.ifmap_buf_bytes / 1024) + "/" +
            std::to_string(p.acc.ofmap_buf_bytes / 1024) + "/" +
            std::to_string(p.acc.weight_buf_bytes / 1024),
        std::to_string(p.acc.act_bits) + "/" +
            std::to_string(p.acc.weight_bits)};
    for (int i = 0; i < kObjectiveCount; ++i) {
      const Objective o = static_cast<Objective>(i);
      row.push_back(objective_display(o, r.obj.get(o)));
    }
    t.add_row(row);
  }
  return t;
}

StatsWriter layer_stats_writer(Evaluator& eval,
                               const std::vector<EvalResult>& front, size_t k) {
  StatsWriter sw({"workload", "dataflow", "psum_bits", "apsq", "group_size",
                  "po", "pci", "pco", "ifmap_buf_bytes", "ofmap_buf_bytes",
                  "weight_buf_bytes", "act_bits", "weight_bits", "scored_by",
                  "layer", "layer_class",
                  "rows", "ci", "co", "repeat", "tile_cycles", "mac_ops",
                  "pe_utilization", "compute_s", "dram_s", "latency_s",
                  "compute_stall_s", "dram_idle_s", "sram_bytes", "dram_bytes",
                  "dram_ifmap_bytes", "dram_weight_bytes", "dram_psum_bytes",
                  "dram_ofmap_bytes", "dram_bw_occupancy", "dram_bound"});
  const size_t n = k == 0 ? front.size() : std::min(front.size(), k);
  for (size_t i = 0; i < n; ++i) {
    const EvalResult& r = front[i];
    const WorkloadTelemetry t = eval.telemetry_for(r.point);
    const DesignPoint& p = r.point;
    for (const LayerStats& ls : t.rows) {
      sw.begin_row();
      sw.add(p.workload);
      sw.add(to_string(p.dataflow));
      sw.add(p.psum.psum_bits);
      sw.add(p.psum.apsq ? 1 : 0);
      sw.add(p.psum.group_size);
      sw.add(p.acc.po);
      sw.add(p.acc.pci);
      sw.add(p.acc.pco);
      sw.add(p.acc.ifmap_buf_bytes);
      sw.add(p.acc.ofmap_buf_bytes);
      sw.add(p.acc.weight_buf_bytes);
      sw.add(p.acc.act_bits);
      sw.add(p.acc.weight_bits);
      sw.add(to_string(EvalBackend::kAnalytic));
      sw.add(ls.shape.name);
      sw.add(ls.layer_class);
      sw.add(ls.shape.rows);
      sw.add(ls.shape.ci);
      sw.add(ls.shape.co);
      sw.add(ls.shape.repeat);
      sw.add(ls.perf.tile_cycles);
      sw.add(ls.perf.mac_ops);
      sw.add(ls.perf.utilization);
      sw.add(ls.perf.compute_time_s);
      sw.add(ls.perf.dram_time_s);
      sw.add(ls.perf.latency_s);
      sw.add(ls.compute_stall_s);
      sw.add(ls.dram_idle_s);
      sw.add(ls.sram_bytes);
      sw.add(ls.perf.dram_bytes);
      sw.add(ls.dram_operand_bytes[0]);
      sw.add(ls.dram_operand_bytes[1]);
      sw.add(ls.dram_operand_bytes[2]);
      sw.add(ls.dram_operand_bytes[3]);
      sw.add(ls.dram_bw_occupancy);
      sw.add(ls.perf.dram_bound);
    }
  }
  return sw;
}

}  // namespace apsq::dse
