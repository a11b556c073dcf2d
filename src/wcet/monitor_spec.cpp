#include "wcet/monitor_spec.hpp"

#include <tuple>

#include "mach/isa.hpp"
#include "wcet/cfg.hpp"

namespace vc::wcet {

machine::MonitorSpec build_monitor_spec(const mach::Image& image,
                                        const std::string& fn_name,
                                        machine::MonitorMode mode,
                                        const WcetOptions& options) {
  machine::MonitorSpec spec;
  spec.function = fn_name;
  if (mode == machine::MonitorMode::Off) return spec;
  std::tie(spec.lo, spec.hi) = image.fn_range(fn_name);

  const Cfg cfg = build_cfg(image, fn_name);

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
  WcetOptions wopts = options;
  wopts.engine = WcetEngine::Structural;
  const WcetResult result = analyze_wcet(image, fn_name, wopts);
  for (std::size_t l = 0; l < result.loops.size(); ++l) {
    machine::MonitorLoopRow row;
    row.header_pc = result.loops[l].header_addr;
    row.bound = result.loops[l].bound;
    for (const int b : cfg.loops[l].blocks) {
      const MachineBlock& block = cfg.blocks[static_cast<std::size_t>(b)];
      row.body.emplace_back(block.start, block.end());
    }
    spec.loops.push_back(std::move(row));
  }
  return spec;
}

}  // namespace vc::wcet
