#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "minic/printer.hpp"
#include "minic/typecheck.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace vcbench {

using namespace vc;

namespace {

/// The block count of generate_suite's node draw (min_blocks ~ U{10..30},
/// max_blocks = min_blocks + U{5..90}, count ~ U{min..max}) at cumulative
/// probability u.
int suite_block_quantile(double u) {
  static const std::vector<double> cdf = [] {
    std::vector<double> p(121, 0.0);
    for (int lo = 10; lo <= 30; ++lo)
      for (int span = 5; span <= 90; ++span)
        for (int n = lo; n <= lo + span; ++n)
          p[static_cast<std::size_t>(n)] += 1.0 / (21.0 * 86.0 * (span + 1));
    for (std::size_t n = 1; n < p.size(); ++n) p[n] += p[n - 1];
    return p;
  }();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(it - cdf.begin(), 120));
}

/// Like dataflow::generate_suite, but node i's size, I/O binding and
/// feedback follow a fixed cycle instead of seeded draws, so every prefix of
/// the pool has the same mix of the properties that set a job's cost, and
/// the corpus seed picks everything else. Sizes walk the suite's size
/// distribution in 99 strata; 10% of nodes are acquisition-bound and half
/// carry feedback.
std::vector<dataflow::Node> stratified_suite(std::uint64_t seed, int count) {
  std::vector<dataflow::Node> nodes;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    dataflow::GeneratorOptions options;
    options.min_blocks = options.max_blocks =
        suite_block_quantile(((i * 61) % 99 + 0.5) / 99.0);
    options.p_io_node = (i % 20 == 9 || i % 20 == 18) ? 1.0 : 0.0;
    options.p_feedback = (i / 2) % 2 == 0 ? 1.0 : 0.0;
    nodes.push_back(dataflow::generate_node(
        rng.next_u64(), "node" + std::to_string(i), options));
  }
  return nodes;
}

}  // namespace

Pool make_pool(int count, int repeats) {
  Pool pool;
  pool.repeats = repeats;
  std::vector<double> setup, generate;
  for (int r = 0; r < repeats; ++r) {
    std::vector<Node> nodes;
    nodes.reserve(static_cast<std::size_t>(count));
    const auto t0 = Clock::now();
    std::vector<dataflow::Node> generated =
        stratified_suite(kCorpusSeed, count);
    double gen_s = seconds_since(t0);
    for (auto& dnode : generated) {
      const auto t_gen = Clock::now();
      Node n;
      n.name = dnode.name();
      n.program.name = n.name;
      dataflow::generate_node(dnode, &n.program);
      n.entry = dataflow::step_function_name(dnode);
      gen_s += seconds_since(t_gen);
      minic::type_check(n.program);
      n.source = minic::print_program(n.program);
      nodes.push_back(std::move(n));
    }
    setup.push_back(seconds_since(t0));
    generate.push_back(gen_s);
    pool.nodes = std::move(nodes);
  }
  pool.setup_s = median(setup);
  pool.generate_s = median(generate);
  return pool;
}

std::vector<driver::FleetUnit> pool_units(const Pool& pool, std::uint64_t seed,
                                          std::size_t begin, std::size_t end) {
  std::vector<driver::FleetUnit> units;
  units.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t p = i % pool.nodes.size();
    const Node& n = pool.nodes[p];
    units.push_back(
        {n.name, &n.program, n.entry, driver::fleet_job_seed(seed, p)});
  }
  return units;
}

bool another_pass(Clock::time_point start, int done, const Args& args) {
  const double elapsed = seconds_since(start);
  return done > 0 && elapsed + elapsed / done <= args.seconds;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Result::fail(const std::string& what) {
  ++failed;
  if (problems.size() < 8) problems.push_back(what);
}

std::string record_problem(const driver::FleetRecord& r, bool wcet_ran,
                           bool ipet_ran) {
  if (!r.ok) return "record not ok: " + r.error;
  if (r.monitor_violations != 0) return "monitor violation";
  if (wcet_ran && r.wcet_cycles < r.observed_max_cycles)
    return "bound below observed cycles";
  if (ipet_ran && !r.wcet_ipet_certified) return "uncertified IPET bound";
  if (ipet_ran && r.wcet_ipet_cycles < r.observed_max_cycles)
    return "IPET bound below observed cycles";
  return {};
}

void check_records(const std::vector<driver::FleetRecord>& records,
                   bool wcet_ran, Result* out) {
  for (const driver::FleetRecord& r : records) {
    ++out->attempted;
    const std::string problem = record_problem(r, wcet_ran, wcet_ran);
    if (!problem.empty())
      out->fail(r.name + "/" + driver::to_string(r.config) + ": " + problem);
  }
}

void quality_metrics(const std::vector<driver::FleetRecord>& records,
                     const std::vector<driver::Config>& configs,
                     Result* out) {
  std::size_t o0 = configs.size(), verified = configs.size();
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (configs[c] == driver::Config::O0Pattern) o0 = c;
    if (configs[c] == driver::Config::Verified) verified = c;
  }
  std::vector<double> code, cycles, wcet, tightness;
  const auto ratio = [](std::uint64_t a, std::uint64_t b, auto* v) {
    if (a > 0 && b > 0)
      v->push_back(static_cast<double>(a) / static_cast<double>(b));
  };
  for (std::size_t u = 0; u + configs.size() <= records.size();
       u += configs.size()) {
    for (std::size_t c = 0; c < configs.size(); ++c)
      ratio(records[u + c].wcet_ipet_cycles,
            records[u + c].observed_max_cycles, &tightness);
    if (o0 == configs.size() || verified == configs.size()) continue;
    const driver::FleetRecord& base = records[u + o0];
    const driver::FleetRecord& opt = records[u + verified];
    ratio(opt.code_bytes, base.code_bytes, &code);
    ratio(opt.observed_max_cycles, base.observed_max_cycles, &cycles);
    ratio(opt.wcet_cycles, base.wcet_cycles, &wcet);
  }
  out->set("gen_code_ratio", geomean(code), "ratio", code.size());
  out->set("gen_cycles_ratio", geomean(cycles), "ratio", cycles.size());
  out->set("gen_wcet_ratio", geomean(wcet), "ratio", wcet.size());
  out->set("wcet_over_observed", geomean(tightness), "ratio",
           tightness.size());
}

void quality_pass(const Pool& pool, std::uint64_t seed,
                  driver::FleetOptions base, Result* out) {
  base.configs = {driver::Config::O0Pattern, driver::Config::Verified};
  base.exec_cycles = kQualityCycles;
  base.cold_caches = true;
  base.wcet = true;
  base.wcet_engine = wcet::WcetEngine::Both;
  const driver::FleetReport report =
      driver::run_fleet(pool_units(pool, seed, 0, kQualityNodes), base);
  check_records(report.records, true, out);
  quality_metrics(report.records, base.configs, out);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Trace::begin(std::string name, std::string cat, std::int64_t job,
                 int parent) {
  spans_.push_back({std::move(name), std::move(cat), now_us(), 0.0, parent,
                    job, 1});
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_us = now_us() - s.start_us;
}

int Trace::add(std::string name, std::string cat, std::int64_t job,
               int parent, double start_us, double dur_us, int tid) {
  spans_.push_back({std::move(name), std::move(cat), start_us,
                    std::max(0.0, dur_us), parent, job, tid});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Trace::self_seconds() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.dur_us;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].cat == "probe") continue;
    self[spans_[i].name] +=
        std::max(0.0, spans_[i].dur_us - child_us[i]) * 1e-6;
  }
  return self;
}

bool Trace::write_chrome(const std::string& path) const {
  json::Array events;
  events.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json::Value e;
    e["name"] = json::Value(s.name);
    e["cat"] = json::Value(s.cat);
    e["ph"] = json::Value("X");
    e["ts"] = json::Value(s.start_us);
    e["dur"] = json::Value(s.dur_us);
    e["pid"] = json::Value(1);
    // Probes re-run work outside the mirrored job; a second track keeps
    // them from overlapping the job spans in the viewer.
    e["tid"] = json::Value(s.cat == "probe" ? 2 : s.tid);
    json::Value args;
    args["span"] = json::Value(static_cast<std::int64_t>(i));
    args["parent"] = json::Value(static_cast<std::int64_t>(s.parent));
    args["job"] = json::Value(s.job);
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  json::Value doc;
  doc["traceEvents"] = json::Value(std::move(events));
  doc["displayTimeUnit"] = json::Value("ms");
  std::ofstream out(path);
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

std::string layer_of_pass(const std::string& pass) {
  if (pass == "lower") return "rtl";
  if (pass.rfind("ssa-", 0) == 0) return "ssa";
  if (pass == "regalloc") return "regalloc";
  if (pass == "emit" || pass == "selfmove" || pass == "peephole" ||
      pass == "schedule")
    return "mach";
  return "opt";
}

}  // namespace vcbench
