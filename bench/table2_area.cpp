// Table II — Hardware synthesis resource consumption (28 nm, 250 MHz).
//
// Paper: baseline accelerator 1,873,408 µm²; RAE 86,410 µm²; accelerator
// w/ RAE 1,933,674 µm² (+3.21 %). Our numbers come from the component-
// level area model of src/rae/area_model.hpp (DESIGN.md §3.2 documents the
// substitution for the Synopsys DC flow).
#include <iomanip>
#include <iostream>

#include "common/table.hpp"
#include "rae/area_model.hpp"

using namespace apsq;

int main() {
  std::cout << "=== Table II: synthesis area (28 nm) ===\n\n";

  const AcceleratorConfig arch = AcceleratorConfig::dnn_default();
  const AreaReport base = baseline_accelerator_area(arch);
  const AreaReport rae = rae_area(arch);
  const AreaReport with_rae = accelerator_with_rae_area(arch);

  Table t({"Design", "Area (um^2)", "Paper (um^2)"});
  t.add_row({"Baseline DNN Accelerator", Table::num(base.total_um2(), 0),
             "1873408"});
  t.add_row({"RAE", Table::num(rae.total_um2(), 0), "86410"});
  t.add_row({"DNN Accelerator w/ RAE", Table::num(with_rae.total_um2(), 0),
             "1933674"});
  t.print(std::cout);

  const double overhead =
      100.0 * (with_rae.total_um2() - base.total_um2()) / base.total_um2();
  std::cout << "\nRAE area overhead: " << std::fixed << std::setprecision(2)
            << overhead << "% (paper: 3.21%)\n\n";

  std::cout << "--- Component breakdown: baseline ---\n";
  Table tb({"Component", "Count", "Unit (um^2)", "Total (um^2)"});
  for (const auto& item : base.items)
    tb.add_row({std::string(item.component), std::to_string(item.count),
                Table::num(item.unit_um2, 2), Table::num(item.total_um2(), 0)});
  tb.print(std::cout);

  std::cout << "\n--- Component breakdown: RAE ---\n";
  Table tr({"Component", "Count", "Unit (um^2)", "Total (um^2)"});
  for (const auto& item : rae.items)
    tr.add_row({std::string(item.component), std::to_string(item.count),
                Table::num(item.unit_um2, 2), Table::num(item.total_um2(), 0)});
  tr.print(std::cout);
  return 0;
}
