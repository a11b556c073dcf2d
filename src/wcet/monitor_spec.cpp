#include "wcet/monitor_spec.hpp"

#include <tuple>

#include "mach/isa.hpp"
#include "wcet/cfg.hpp"

namespace vc::wcet {

namespace {

/// The control facts: one legal-target set per branch instruction of `cfg`.
machine::MonitorSpec control_spec(const mach::Image& image,
                                  const std::string& fn_name, const Cfg& cfg) {
  machine::MonitorSpec spec;
  spec.function = fn_name;
  std::tie(spec.lo, spec.hi) = image.fn_range(fn_name);

  // Legal transfers per branch instruction. A blr leaves the harness frame
  // (the simulator jumps to the stop address); every other branch must land
  // on one of its block's CFG successors. Branches the reconstruction
  // somehow left mid-block get no entry — the monitor then flags them at
  // runtime, which is exactly the kind of reconstruction bug it exists for.
  for (const MachineBlock& block : cfg.blocks) {
    for (std::size_t i = 0; i < block.instrs.size(); ++i) {
      if (!mach::is_branch(block.instrs[i].op)) continue;
      const std::uint32_t pc =
          block.start + static_cast<std::uint32_t>(i) * 4;
      if (block.instrs[i].op == mach::MOp::Blr)
        spec.branch_targets[pc] = {mach::Image::kStopAddr};
      else if (i + 1 == block.instrs.size())
        spec.branch_targets[pc] = block.succ_addrs;
    }
  }
  return spec;
}

}  // namespace

machine::MonitorSpec build_monitor_spec(const mach::Image& image,
                                        const FunctionAnalysis& analysis,
                                        machine::MonitorMode mode) {
  if (mode == machine::MonitorMode::Off)
    return build_monitor_spec(image, analysis.fn_name, mode);
  const Cfg& cfg = analysis.cfg;
  machine::MonitorSpec spec = control_spec(image, analysis.fn_name, cfg);
  if (mode != machine::MonitorMode::Full) return spec;

  // Value claims: the raw annotation table, independently re-parsed by the
  // spec itself (MonitorSpec::add_annotation shares nothing with the
  // analyzer's chain parser).
  for (const mach::AnnotEntry& entry : image.annotations)
    if (entry.addr >= spec.lo && entry.addr < spec.hi)
      spec.add_annotation(entry);

  // Loop-bound rows: what the path analyses consume (annotation bounds
  // refined by automatic derivation), one row per natural loop, with the
  // loop body as address ranges so the monitor can classify back edges.
  for (std::size_t l = 0; l < analysis.loops.size(); ++l) {
    machine::MonitorLoopRow row;
    row.header_pc = analysis.loops[l].header_addr;
    row.bound = analysis.loops[l].bound;
    for (const int b : cfg.loops[l].blocks) {
      const MachineBlock& block = cfg.blocks[static_cast<std::size_t>(b)];
      row.body.emplace_back(block.start, block.end());
    }
    spec.loops.push_back(std::move(row));
  }
  return spec;
}

machine::MonitorSpec build_monitor_spec(const mach::Image& image,
                                        const std::string& fn_name,
                                        machine::MonitorMode mode,
                                        const WcetOptions& options) {
  if (mode == machine::MonitorMode::Cfg)
    return control_spec(image, fn_name, build_cfg(image, fn_name));
  if (mode == machine::MonitorMode::Off) {
    machine::MonitorSpec spec;
    spec.function = fn_name;
    return spec;
  }
  const FunctionAnalysis analysis = analyze_function(image, fn_name, options);
  (void)structural_wcet(analysis, analysis.costs);
  return build_monitor_spec(image, analysis, mode);
}

}  // namespace vc::wcet
