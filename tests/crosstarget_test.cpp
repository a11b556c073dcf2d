// Backend no-regression and cross-target determinism, at campaign
// granularity:
//
//   * every target, with the SSA mid-end off and on, must reproduce its
//     committed reference campaign byte for byte (tests/data/
//     reference_40*.jsonl) — any codegen, timing, scheduling, peephole, or
//     analysis drift shows up as a diff here;
//   * per target, a parallel campaign (jobs=8) must be bit-identical to the
//     sequential one (jobs=1): worker scheduling may not leak into records;
//   * the two targets genuinely differ (the rv32 campaign is NOT the ppc
//     one re-labeled), while every record of both stays fully validated,
//     monitored and certified;
//   * on both targets, the Full monitor spec's loop rows are the rows of the
//     bound the job reports (header and bound), over the 40-node suite.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "reference_campaign.hpp"
#include "wcet/monitor_spec.hpp"

namespace vc::bench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct ReferenceCase {
  const char* target;
  bool ssa;
  const char* fixture;
};

class ReferenceCampaign : public ::testing::TestWithParam<ReferenceCase> {};

TEST_P(ReferenceCampaign, IsByteIdentical) {
  const ReferenceCase& c = GetParam();
  const std::string want =
      read_file(std::string(VCFLIGHT_TEST_DATA_DIR) + "/" + c.fixture);
  ASSERT_FALSE(want.empty());
  const std::string got = reference_campaign_records(c.target, c.ssa);
  // Compare record-by-record first so a mismatch names the node instead of
  // dumping two multi-megabyte strings.
  std::istringstream want_lines(want);
  std::istringstream got_lines(got);
  std::string want_line;
  std::string got_line;
  std::size_t line = 0;
  while (std::getline(want_lines, want_line)) {
    ++line;
    ASSERT_TRUE(std::getline(got_lines, got_line))
        << "campaign lost records at line " << line;
    ASSERT_EQ(got_line, want_line) << "record " << line << " drifted";
  }
  EXPECT_FALSE(std::getline(got_lines, got_line))
      << "campaign gained records";
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    TargetsAndMidEnds, ReferenceCampaign,
    ::testing::Values(ReferenceCase{"ppc", false, "reference_40.jsonl"},
                      ReferenceCase{"rv32", false, "reference_40_rv32.jsonl"},
                      ReferenceCase{"ppc", true, "reference_40_ppc_ssa.jsonl"},
                      ReferenceCase{"rv32", true,
                                    "reference_40_rv32_ssa.jsonl"}),
    [](const ::testing::TestParamInfo<ReferenceCase>& info) {
      return std::string(info.param.target) +
             (info.param.ssa ? "_ssa" : "_scalar");
    });

class CrossTargetDeterminism
    : public ::testing::TestWithParam<const char*> {};

TEST_P(CrossTargetDeterminism, ParallelCampaignMatchesSequential) {
  const std::string target = GetParam();
  std::vector<NodeBundle> suite = make_suite(12);
  suite.push_back(pitch_law());

  const auto run = [&](int jobs) {
    driver::FleetOptions options;
    options.target = target;
    options.jobs = jobs;
    options.exec_cycles = 25;
    options.wcet = true;
    options.wcet_engine = wcet::WcetEngine::Both;
    options.monitor = machine::MonitorMode::Full;
    attach_validation(&options, driver::ValidateLevel::Full);
    const driver::FleetReport report =
        driver::run_fleet(to_fleet_units(suite), options);
    EXPECT_EQ(report.target, target);
    EXPECT_EQ(report.monitor_violations, 0u);
    std::string out;
    for (const driver::FleetRecord& r : report.records) {
      EXPECT_TRUE(r.ok) << r.name << " on " << target;
      out += driver::record_core_json(r).dump();
      out += "\n";
    }
    return out;
  };

  const std::string sequential = run(1);
  const std::string parallel = run(8);
  EXPECT_EQ(parallel, sequential)
      << "worker count leaked into campaign records on " << target;
}

INSTANTIATE_TEST_SUITE_P(Targets, CrossTargetDeterminism,
                         ::testing::Values("ppc", "rv32"));

class MonitorLoopRows : public ::testing::TestWithParam<const char*> {};

TEST_P(MonitorLoopRows, EqualTheReportedBoundsLoops) {
  // The monitor checks the loop-bound rows the reported bound consumed. The
  // spec built from the job's analysis (the fleet and `vcc --wcet --run`)
  // and the standalone spec (`vcc --run` alone) must both carry exactly
  // the loops of the reported WcetResult, row for row.
  const std::vector<NodeBundle> suite = make_suite(40);
  driver::CompileOptions copts;
  copts.target = GetParam();
  std::size_t rows = 0;
  for (const NodeBundle& b : suite) {
    for (const driver::Config config : driver::kAllConfigs) {
      SCOPED_TRACE(b.node.name() + "/" + driver::to_string(config));
      const driver::Compiled compiled =
          driver::compile_program(b.program, config, copts);
      const wcet::FunctionAnalysis analysis =
          wcet::analyze_function(compiled.image, b.step_fn);
      const wcet::WcetResult reported =
          wcet::analyze_wcet(analysis, wcet::WcetEngine::Both);
      const machine::MonitorSpec shared = wcet::build_monitor_spec(
          compiled.image, analysis, machine::MonitorMode::Full);
      const machine::MonitorSpec standalone = wcet::build_monitor_spec(
          compiled.image, b.step_fn, machine::MonitorMode::Full);
      for (const machine::MonitorSpec* spec : {&shared, &standalone}) {
        ASSERT_EQ(spec->loops.size(), reported.loops.size());
        for (std::size_t l = 0; l < spec->loops.size(); ++l) {
          EXPECT_EQ(spec->loops[l].header_pc, reported.loops[l].header_addr);
          EXPECT_EQ(spec->loops[l].bound, reported.loops[l].bound);
        }
      }
      rows += reported.loops.size();
    }
  }
  // The suite really exercises loop rows on this target.
  EXPECT_GT(rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Targets, MonitorLoopRows,
                         ::testing::Values("ppc", "rv32"));

TEST(CrossTarget, TargetsProduceDistinctCode) {
  // Guards against the rv32 "backend" silently falling through to the PPC
  // lowering: the same 12-node campaign must produce different code bytes.
  std::vector<NodeBundle> suite = make_suite(12);
  const auto records = [&](const char* target) {
    driver::FleetOptions options;
    options.target = target;
    options.jobs = 1;
    options.exec_cycles = 0;
    std::string out;
    for (const driver::FleetRecord& r :
         driver::run_fleet(to_fleet_units(suite), options).records)
      out += driver::record_core_json(r).dump();
    return out;
  };
  EXPECT_NE(records("ppc"), records("rv32"));
}

}  // namespace
}  // namespace vc::bench
