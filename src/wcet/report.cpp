#include "wcet/report.hpp"

#include <algorithm>
#include <cstdio>

#include "support/strings.hpp"

namespace vc::wcet {

std::string format_report(const mach::Image& image, const std::string& fn_name,
                          const WcetResult& result) {
  std::string out;
  out += "WCET report for '" + fn_name + "'\n";
  const auto [lo, hi] = image.fn_range(fn_name);
  out += "  code:  " + hex32(lo) + " .. " + hex32(hi) + "  (" +
         std::to_string(hi - lo) + " bytes)\n";
  out += "  bound: " + std::to_string(result.wcet_cycles) + " cycles\n";

  // Per-engine detail when more than the default structural engine ran.
  if (result.ipet) {
    if (result.structural_cycles) {
      out += "  engines: structural " +
             std::to_string(*result.structural_cycles) + ", ipet " +
             std::to_string(result.ipet->wcet_cycles);
      if (*result.structural_cycles > 0) {
        const double delta =
            100.0 *
            (static_cast<double>(*result.structural_cycles) -
             static_cast<double>(result.ipet->wcet_cycles)) /
            static_cast<double>(*result.structural_cycles);
        char buf[48];
        std::snprintf(buf, sizeof buf, " (%.2f%% tighter)", delta);
        out += buf;
      }
      out += "\n";
    }
    out += "  ipet: " + std::to_string(result.ipet->lp_vars) + " flow var(s), " +
           std::to_string(result.ipet->lp_constraints) + " constraint(s), " +
           std::to_string(result.ipet->capped_edges) +
           " infeasible edge(s), " +
           std::to_string(result.ipet->simplex_pivots) + " pivot(s), " +
           "certificate " +
           (result.ipet->certificate_verified ? "verified" : "UNVERIFIED") +
           "\n";
  }

  if (!result.loops.empty()) {
    out += "  loops:\n";
    for (const auto& loop : result.loops) {
      out += "    header " + hex32(loop.header_addr) + "  bound " +
             std::to_string(loop.bound);
      if (loop.derived && loop.from_annotation)
        out += "  (derived, annotation agrees)";
      else if (loop.derived)
        out += "  (derived from binary)";
      else
        out += "  (from annotation)";
      out += "\n";
    }
  }

  if (!result.block_costs.empty()) {
    out += "  blocks (worst-case cost per execution):\n";
    auto sorted = result.block_costs;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [addr, cost] : sorted) {
      out += "    " + hex32(addr) + "  " + pad_left(std::to_string(cost), 6) +
             " cycles\n";
    }
  }

  for (const auto& w : result.warnings) out += "  warning: " + w + "\n";
  return out;
}

}  // namespace vc::wcet
