// The reference campaign used by the backend no-regression tests: a fixed
// 40-node generated suite plus the pitch-axis law, compiled under all four
// configurations with full translation validation, executed 50 cycles under
// the full monitor, and WCET-analyzed by both engines (with the nocache
// ablation). The semantic core of every record — code bytes, execution
// stats, both bounds, monitor counters — is serialized one JSON document
// per line, and the result is compared byte-for-byte against a committed
// fixture per target and mid-end: tests/data/reference_40.jsonl (ppc scalar,
// captured before the machine layer went target-parametric), plus
// reference_40_rv32.jsonl, reference_40_ppc_ssa.jsonl and
// reference_40_rv32_ssa.jsonl (captured before the two target lowerings were
// folded into the shared emitter). Any codegen, timing-model, scheduling,
// peephole, or analysis change that shifts a single byte of a record shows
// up here.
#pragma once

#include <string>

#include "../bench/bench_common.hpp"

namespace vc::bench {

inline std::string reference_campaign_records(const std::string& target,
                                              bool ssa) {
  std::vector<NodeBundle> suite = make_suite(40);
  suite.push_back(pitch_law());

  driver::FleetOptions options;
  options.jobs = 1;
  options.exec_cycles = 50;
  options.wcet = true;
  options.wcet_nocache = true;
  options.wcet_engine = wcet::WcetEngine::Both;
  options.monitor = machine::MonitorMode::Full;
  options.target = target;
  options.ssa = ssa;
  attach_validation(&options, driver::ValidateLevel::Full);

  const driver::FleetReport report =
      driver::run_fleet(to_fleet_units(suite), options);
  std::string out;
  for (const driver::FleetRecord& r : report.records) {
    out += driver::record_core_json(r).dump();
    out += "\n";
  }
  return out;
}

}  // namespace vc::bench
