// The one flag parser (support/flags.hpp) over each binary's real table:
// vcc, vccd, the shared fleet-bench set and bench_service's extension.
// Every rule is checked here without starting a process — in particular
// the out-of-range and huge counts, which must never reach a daemon or a
// thread pool.
#include <gtest/gtest.h>

#include "bench_common.hpp"
#include "tools/vcc_cli.hpp"
#include "tools/vccd_cli.hpp"

namespace vc {
namespace {

using Args = std::vector<std::string>;

template <class O>
std::string error_of(const flags::Table<O>& table, const Args& args) {
  return flags::parse_flags(table, args).error;
}

/// Expects `args` to be rejected with a diagnostic that names `flag`.
template <class O>
void expect_rejected(const flags::Table<O>& table, const Args& args,
                     const std::string& flag) {
  const std::string error = error_of(table, args);
  ASSERT_FALSE(error.empty()) << "accepted: " << ::testing::PrintToString(args);
  EXPECT_NE(error.find(flag), std::string::npos) << error;
}

// ------------------------------------------------------------ the rules

TEST(FlagsTest, UnknownFlagIsNamed) {
  expect_rejected(tools::vcc_flag_table(), {"--bogus=1", "f.mc"}, "--bogus");
  expect_rejected(tools::vccd_flag_table(), {"--bogus"}, "--bogus");
  expect_rejected(bench::bench_flag_table(), {"--clients=2"}, "--clients");
}

TEST(FlagsTest, ValueShapeMustMatchTheKind) {
  // A bare boolean takes no value; a valued flag needs one unless its
  // entry defines what the bare spelling means (--validate = rtl).
  expect_rejected(tools::vcc_flag_table(), {"--emit-asm=1"}, "--emit-asm");
  expect_rejected(tools::vcc_flag_table(), {"--jobs"}, "--jobs");
  EXPECT_EQ(flags::parse_flags(bench::bench_flag_table(), {"--validate"})
                .values.validate,
            driver::ValidateLevel::Rtl);
  expect_rejected(bench::bench_flag_table(), {"--validate=bogus"},
                  "--validate");
}

TEST(FlagsTest, RepeatableEntriesAreExemptFromConflicts) {
  const auto parsed = flags::parse_flags(
      bench::bench_flag_table(), {"--disable-pass=cse", "--disable-pass=dce"});
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.values.disable_passes, (Args{"cse", "dce"}));
  expect_rejected(bench::bench_flag_table(), {"--disable-pass=nosuch"},
                  "--disable-pass");
}

TEST(FlagsTest, AtMostOnePositional) {
  const auto one = flags::parse_flags(tools::vcc_flag_table(), {"a.mc"});
  EXPECT_EQ(one.values.path, "a.mc");
  const std::string two = error_of(tools::vcc_flag_table(), {"a.mc", "b.mc"});
  EXPECT_NE(two.find("'b.mc'"), std::string::npos) << two;
  // Tables that bind no positional reject any.
  EXPECT_FALSE(error_of(tools::vccd_flag_table(), {"a.mc"}).empty());
  EXPECT_FALSE(error_of(bench::bench_flag_table(), {"a.mc"}).empty());
}

TEST(FlagsTest, StartsFromTheGivenDefaults) {
  bench::ServiceBenchFlags defaults;
  defaults.vccd = "/bin/vccd";
  const auto parsed = flags::parse_flags(bench::service_bench_flag_table(),
                                         {"--nodes=4"}, defaults);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.values.vccd, "/bin/vccd");
  EXPECT_EQ(parsed.values.clients, 4);
  EXPECT_EQ(parsed.values.nodes, 4);
}

// ------------------------------------------------------------------ vcc

TEST(FlagsTest, VccRejectsEmptyWcetAndRun) {
  expect_rejected(tools::vcc_flag_table(), {"--wcet=", "f.mc"}, "--wcet=");
  expect_rejected(tools::vcc_flag_table(), {"--run=", "f.mc"}, "--run=");
  expect_rejected(tools::vcc_flag_table(), {"--connect=", "f.mc"},
                  "--connect=");
}

TEST(FlagsTest, VccJobsZeroIsRejectedAndOmittedMeansAllCores) {
  expect_rejected(tools::vcc_flag_table(), {"--batch", "d", "--jobs=0"},
                  "--jobs");
  expect_rejected(tools::vcc_flag_table(), {"--jobs=1000001"}, "--jobs");
  EXPECT_EQ(flags::parse_flags(tools::vcc_flag_table(), {"--batch", "d"})
                .values.jobs,
            0);
  // --cache-budget-mb=0 keeps meaning "unlimited".
  EXPECT_TRUE(flags::parse_flags(tools::vcc_flag_table(),
                                 {"--cache-budget-mb=0", "--batch", "d"})
                  .ok());
}

TEST(FlagsTest, VccAcceptsTheCiConnectCommandLine) {
  const auto parsed = flags::parse_flags(
      tools::vcc_flag_table(),
      {"--connect=/tmp/vccd-ci.sock", "--wcet=auto", "--wcet-engine=both",
       "--validate=full", "--monitor=full", "--exec-cycles=50", "--batch",
       "service-suite"});
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.values.wcet, "auto");
  EXPECT_EQ(parsed.values.wcet_engine, wcet::WcetEngine::Both);
  EXPECT_EQ(parsed.values.validate, driver::ValidateLevel::Full);
  EXPECT_EQ(parsed.values.monitor, machine::MonitorMode::Full);
  EXPECT_EQ(parsed.values.exec_cycles, 50);
  EXPECT_TRUE(parsed.values.batch);
  EXPECT_EQ(parsed.values.path, "service-suite");
}

// ----------------------------------------------------------------- vccd

TEST(FlagsTest, VccdRejectsContradictoryRepeats) {
  expect_rejected(tools::vccd_flag_table(),
                  {"--socket=/tmp/s", "--jobs=1", "--jobs=4"}, "--jobs");
  EXPECT_TRUE(flags::parse_flags(tools::vccd_flag_table(),
                                 {"--socket=/tmp/s", "--jobs=2", "--jobs=2"})
                  .ok());
}

TEST(FlagsTest, VccdJobsIsABoundedCountNotNarrowed) {
  // 4294967297 = 2^32 + 1 used to narrow to --jobs=1.
  expect_rejected(tools::vccd_flag_table(), {"--jobs=4294967297"}, "--jobs");
  expect_rejected(tools::vccd_flag_table(), {"--jobs=0"}, "--jobs");
  expect_rejected(tools::vccd_flag_table(), {"--jobs=-1"}, "--jobs");
  expect_rejected(tools::vccd_flag_table(), {"--cache-budget-mb=-1"},
                  "--cache-budget-mb");
  expect_rejected(tools::vccd_flag_table(), {"--shard-index=4294967296"},
                  "--shard-index");
}

TEST(FlagsTest, VccdShardsKeepTheirRange) {
  for (const char* ok : {"--shards=0", "--shards=1", "--shards=64"})
    EXPECT_TRUE(flags::parse_flags(tools::vccd_flag_table(), {ok}).ok())
        << ok;
  expect_rejected(tools::vccd_flag_table(), {"--shards=65"}, "--shards");
  expect_rejected(tools::vccd_flag_table(), {"--shards=2x"}, "--shards");
}

TEST(FlagsTest, VccdRejectsEmptyValues) {
  expect_rejected(tools::vccd_flag_table(),
                  {"--socket=/tmp/s", "--cache-dir="}, "--cache-dir=");
  expect_rejected(tools::vccd_flag_table(), {"--socket="}, "--socket=");
}

TEST(FlagsTest, VccdAcceptsTheSpawnedCommandLines) {
  // As vcbench spawns it.
  const auto bench = flags::parse_flags(
      tools::vccd_flag_table(),
      {"--socket=/tmp/d.sock", "--cache-dir=/tmp/store", "--jobs=1"});
  ASSERT_TRUE(bench.ok()) << bench.error;
  EXPECT_EQ(bench.values.socket_path, "/tmp/d.sock");
  EXPECT_EQ(bench.values.cache_dir, "/tmp/store");
  EXPECT_EQ(bench.values.jobs, 1);
  EXPECT_EQ(bench.values.shard_index, -1);
  // As the supervisor spawns a shard.
  const auto shard = flags::parse_flags(
      tools::vccd_flag_table(),
      {"--socket=/tmp/d.sock.s3", "--shard-index=3", "--jobs=2",
       "--cache-dir=/tmp/store", "--cache-budget-mb=64"});
  ASSERT_TRUE(shard.ok()) << shard.error;
  EXPECT_EQ(shard.values.shard_index, 3);
  EXPECT_EQ(shard.values.cache_budget_mb, 64u);
  EXPECT_TRUE(flags::parse_flags(tools::vccd_flag_table(), {"-h"}).values.help);
  EXPECT_TRUE(
      flags::parse_flags(tools::vccd_flag_table(), {"--help"}).values.help);
}

// --------------------------------------------------------------- benches

TEST(FlagsTest, BenchSharedRules) {
  expect_rejected(bench::bench_flag_table(), {"--jobs=0"}, "--jobs");
  expect_rejected(bench::bench_flag_table(), {"--nodes=4", "--nodes=8"},
                  "--nodes");
  expect_rejected(bench::bench_flag_table(), {"--report-json="},
                  "--report-json=");
  expect_rejected(bench::bench_flag_table(), {"--target=riscv"}, "--target");
  const auto ci = flags::parse_flags(
      bench::bench_flag_table(),
      {"--nodes=12", "--jobs=2", "--ssa", "--wcet-engine=both",
       "--monitor=full", "--validate=full", "--target=rv32",
       "--report-json=fleet-report-ssa.json"});
  ASSERT_TRUE(ci.ok()) << ci.error;
  EXPECT_EQ(ci.values.nodes, 12);
  EXPECT_EQ(ci.values.jobs, 2);
  EXPECT_TRUE(ci.values.ssa);
  EXPECT_EQ(ci.values.target, "rv32");
  EXPECT_EQ(ci.values.report_json, "fleet-report-ssa.json");
}

TEST(FlagsTest, BenchServiceExtendsTheSharedTable) {
  const auto& table = bench::service_bench_flag_table();
  expect_rejected(table, {"--clients=2x"}, "--clients");
  expect_rejected(table, {"--clients=0"}, "--clients");
  expect_rejected(table, {"--clients=65"}, "--clients");
  expect_rejected(table, {"--shards=0"}, "--shards");
  expect_rejected(table, {"--shards=17"}, "--shards");
  expect_rejected(table, {"--vccd="}, "--vccd=");
  expect_rejected(table, {"--emit-suite="}, "--emit-suite=");
  expect_rejected(table, {"--jobs=0"}, "--jobs");
  const auto smoke = flags::parse_flags(
      table, {"--nodes=4", "--jobs=2", "--clients=2", "--shards=2", "--ssa"});
  ASSERT_TRUE(smoke.ok()) << smoke.error;
  EXPECT_EQ(smoke.values.clients, 2);
  EXPECT_EQ(smoke.values.shards, 2);
  EXPECT_EQ(smoke.values.jobs, 2);
  EXPECT_TRUE(smoke.values.ssa);
}

}  // namespace
}  // namespace vc
