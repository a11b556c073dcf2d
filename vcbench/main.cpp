// vcbench: the vcflight benchmark driver binary (run through vcbench/run.py).
//
//   vcbench --workload NAME --seed N --seconds S --trace 0|1
//           --vccd PATH --out-dir DIR
//
// Prints a human-readable metric table on stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when any output check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "support/json.hpp"

using namespace vcbench;

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Must list exactly the metric names of BENCHMARK.json.
constexpr MetricName kEndToEnd[] = {
    {"jobs_per_s", "1/s"},         {"job_p50_ms", "ms"},
    {"job_p99_ms", "ms"},          {"setup_s", "s"},
    {"peak_rss_mb", "MB"},         {"ok_rate", "ratio"},
    {"gen_code_ratio", "ratio"},   {"gen_cycles_ratio", "ratio"},
    {"gen_wcet_ratio", "ratio"},   {"wcet_over_observed", "ratio"},
};

// A layer a workload does not exercise reads 0.
constexpr MetricName kPerLayer[] = {
    {"dataflow.generate_s", "s"},     {"minic.parse_s", "s"},
    {"minic.bytes_per_s", "B/s"},     {"rtl.lower_s", "s"},
    {"opt.constprop_s", "s"},         {"opt.cse_s", "s"},
    {"opt.forward_s", "s"},           {"opt.dce_s", "s"},
    {"opt.deadstore_s", "s"},         {"opt.tunnel_s", "s"},
    {"pass.rtl_rounds", "count"},     {"pass.rewrites", "count"},
    {"ssa.s", "s"},                   {"regalloc.s", "s"},
    {"regalloc.spills", "count"},     {"mach.s", "s"},
    {"validate.s", "s"},              {"validate.checks", "count"},
    {"validate.us_per_check", "us"},  {"machine.exec_s", "s"},
    {"machine.insns", "count"},       {"machine.insns_per_s", "1/s"},
    {"machine.monitor_s", "s"},       {"machine.monitored_steps", "count"},
    {"wcet.cfg_s", "s"},              {"wcet.values_s", "s"},
    {"wcet.cache_s", "s"},            {"wcet.structural_s", "s"},
    {"wcet.ipet_s", "s"},             {"ilp.pivots", "count"},
    {"ilp.bnb_nodes", "count"},       {"ilp.lp_vars", "count"},
    {"ilp.lp_constraints", "count"},  {"artifact.full_hits", "count"},
    {"artifact.image_hits", "count"}, {"artifact.misses", "count"},
    {"artifact.hit_ratio", "ratio"},  {"artifact.publishes", "count"},
    {"service.memo_hit_ratio", "ratio"},
    {"service.queue_wait_ms", "ms"},  {"service.jobs_per_batch", "count"},
    {"service.queue_peak", "count"},  {"support.allocs_per_job", "count"},
    {"driver.unattributed_s", "s"},   {"trace.overhead", "ratio"},
    {"trace.accounted_share", "ratio"},
    {"trace.jobs", "count"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "vcbench: %s\nusage: vcbench --workload campaign_cold|"
               "compile_ssa_rv32|service_edit_loop --seed N --seconds S "
               "--trace 0|1 --vccd PATH --out-dir DIR\n",
               why);
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string trace = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && parse_u64(value, &n)) {
      args.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, &n) && n >= 1 &&
               n <= 3600) {
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      trace = value;
    } else if (flag == "--vccd") {
      args.vccd = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  const bool service = args.workload == "service_edit_loop";
  if (!service && !is_campaign(args.workload))
    return usage(("unknown workload '" + args.workload + "'").c_str());
  if (args.seconds == 0 || args.out_dir.empty() ||
      (service && args.vccd.empty()))
    return usage("missing argument");
  args.trace = trace == "1";
  std::filesystem::create_directories(args.out_dir);

  Result result;
  try {
    if (service)
      run_service(args, &result);
    else
      run_campaign(args, &result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!args.trace && result.attempted > 0)
    result.set("ok_rate",
               1.0 - static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted),
               "ratio", result.attempted);

  vc::json::Value metrics;
  std::fprintf(stderr, "vcbench: %s seed %llu (%s)\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               args.trace ? "traced" : "untraced");
  const auto emit = [&](const MetricName& m, bool required) {
    const auto it = result.metrics.find(m.name);
    Metric value{0.0, m.unit, 0};
    if (it != result.metrics.end()) value = it->second;
    if ((required && it == result.metrics.end()) ||
        !std::isfinite(value.value) || value.unit != m.unit) {
      result.fail(std::string("metric ") + m.name + " not measured");
      value.value = 0.0;
    }
    std::fprintf(stderr, "  %-26s %16.6f %-6s n=%zu\n", m.name, value.value,
                 m.unit, value.samples);
    vc::json::Value v;
    v["value"] = vc::json::Value(value.value);
    v["unit"] = vc::json::Value(m.unit);
    metrics[m.name] = std::move(v);
  };
  if (args.trace)
    for (const MetricName& m : kPerLayer) emit(m, false);
  else
    for (const MetricName& m : kEndToEnd) emit(m, true);

  for (const std::string& p : result.problems)
    std::fprintf(stderr, "vcbench: check failed: %s\n", p.c_str());
  const bool correct = result.failed == 0 && result.attempted > 0;
  vc::json::Value line;
  line["correct"] = vc::json::Value(correct);
  line["attempted"] = vc::json::Value(result.attempted);
  line["failed"] = vc::json::Value(result.failed);
  line["metrics"] = std::move(metrics);
  std::fflush(stderr);
  std::printf("%s\n", line.dump().c_str());
  return correct ? 0 : 1;
}
