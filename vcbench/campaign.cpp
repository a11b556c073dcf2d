// The two in-process campaign workloads.
//
// Untraced (--trace 0): run_fleet over the whole node pool in repeated
// passes until the time budget is spent, then the output checks and the
// generated-code quality ratios. Every run times whole passes of the same
// jobs, so runs differ only in how many passes fit; the throughput is the
// median pass's, so a few seconds in which the host gives the benchmark less
// CPU move one pass, not the result. Traced (--trace 1): a fixed prefix of
// the pool runs once through run_fleet and once through a serial replay that
// makes the same layer calls run_fleet's job makes, with a span around each,
// plus probe calls that split the compile and WCET spans into layers.
#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.hpp"
#include "dataflow/acg.hpp"
#include "machine/machine.hpp"
#include "mach/target.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "support/alloccount.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/workspace.hpp"
#include "validate/validate.hpp"
#include "wcet/annotations.hpp"
#include "wcet/cache.hpp"
#include "wcet/cfg.hpp"
#include "wcet/monitor_spec.hpp"
#include "wcet/value_analysis.hpp"
#include "wcet/wcet.hpp"

namespace vcbench {

using namespace vc;

namespace {

struct Spec {
  const char* name;
  const char* target;
  int workers;
  bool ssa;
  driver::ValidateLevel validate;
  bool wcet;  // both engines in the timed phase
  machine::MonitorMode monitor;
  int exec_cycles;
  int pass_nodes;    // the pool: one timed pass runs all of it
  int traced_nodes;  // prefix replayed by the traced run
};

// campaign_cold: ROADMAP's headline campaign, serial so layer self times
// add up to wall time. compile_ssa_rv32: the pass pipeline with the SSA
// bracket on the second target, validators and WCET bypassed; two workers
// because four spread too widely run to run on a shared host. A pass takes
// about 10 s and 6 s on a 4-vCPU VM, so a 40 s run makes 4 and 6 of them.
constexpr Spec kSpecs[] = {
    {"campaign_cold", "ppc", 1, false, driver::ValidateLevel::Full, true,
     machine::MonitorMode::Full, 30, kQualityNodes, 24},
    {"compile_ssa_rv32", "rv32", 2, true, driver::ValidateLevel::Off, false,
     machine::MonitorMode::Off, 2, 400, 120},
};

const std::vector<driver::Config> kConfigs{std::begin(driver::kAllConfigs),
                                           std::end(driver::kAllConfigs)};

driver::FleetOptions fleet_options(const Spec& spec) {
  driver::FleetOptions o;
  o.target = spec.target;
  o.jobs = spec.workers;
  o.configs = kConfigs;
  o.exec_cycles = spec.exec_cycles;
  o.cold_caches = true;
  o.wcet = spec.wcet;
  o.wcet_engine = wcet::WcetEngine::Both;
  o.monitor = spec.monitor;
  o.ssa = spec.ssa;
  if (spec.validate != driver::ValidateLevel::Off) {
    const driver::ValidateLevel level = spec.validate;
    // The campaign benches' and vccd's validation settings, so records are
    // comparable with theirs.
    o.compile_override = [level](const minic::Program& program,
                                 driver::Config config,
                                 const driver::CompileOptions& copts) {
      return validate::validated_compile(program, config, /*n_tests=*/6,
                                         /*seed=*/1, level, copts);
    };
  }
  return o;
}

std::string core_dump(const driver::FleetRecord& r) {
  return driver::record_core_json(r).dump();
}

double phase_seconds(const driver::FleetRecord& r) {
  return r.compile_seconds + r.exec_seconds + r.wcet_seconds;
}

/// The record digest of a fixed job set, for run-to-run comparison.
void print_digest(const std::vector<driver::FleetRecord>& records) {
  Fnv128 digest;
  for (const driver::FleetRecord& r : records) digest.update(core_dump(r));
  std::fprintf(stderr, "vcbench: record digest %s over %zu records\n",
               digest.digest().hex().c_str(), records.size());
}

/// Parse + type-check of the printed sources of pool[0, count).
void minic_probe(const Pool& pool, std::size_t count, Result* out) {
  double seconds = 0.0;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < count && i < pool.nodes.size(); ++i) {
    const Node& n = pool.nodes[i];
    const auto t0 = Clock::now();
    const minic::Program parsed = minic::parse_program(n.source, n.name);
    minic::type_check(parsed);
    seconds += seconds_since(t0);
    bytes += n.source.size();
  }
  out->set("minic.parse_s", seconds, "s", count);
  out->set("minic.bytes_per_s",
           seconds > 0.0 ? static_cast<double>(bytes) / seconds : 0.0, "B/s",
           count);
}

// --- untraced ---------------------------------------------------------------

void timed_campaign(const Spec& spec, const Args& args, const Pool& pool,
                    Result* out) {
  const driver::FleetOptions options = fleet_options(spec);
  const std::vector<driver::FleetUnit> units =
      pool_units(pool, args.seed, 0, pool.nodes.size());
  std::vector<double> latency_ms, pass_jobs_per_s;
  std::vector<driver::FleetRecord> first;
  std::vector<std::string> first_dumps;
  const auto t_run = Clock::now();
  for (int pass = 0; pass < kMinPasses || another_pass(t_run, pass, args);
       ++pass) {
    const driver::FleetReport report = driver::run_fleet(units, options);
    check_records(report.records, spec.wcet, out);
    pass_jobs_per_s.push_back(
        static_cast<double>(report.records.size()) / report.wall_seconds);
    for (std::size_t j = 0; j < report.records.size(); ++j) {
      const driver::FleetRecord& r = report.records[j];
      latency_ms.push_back(phase_seconds(r) * 1e3);
      // Every pass must reproduce the first pass's records.
      if (pass == 0)
        first_dumps.push_back(core_dump(r));
      else if (first_dumps[j] != core_dump(r))
        out->fail("nondeterministic record: " + r.name);
    }
    if (pass == 0) first = report.records;
  }
  const std::size_t passes = pass_jobs_per_s.size();
  const std::size_t jobs = latency_ms.size();
  out->set("jobs_per_s", median(pass_jobs_per_s), "1/s", passes);
  out->set("job_p50_ms", percentile(latency_ms, 0.50), "ms", jobs);
  out->set("job_p99_ms", percentile(latency_ms, 0.99), "ms", jobs);

  std::fprintf(stderr, "vcbench: %s: %zu passes of %zu jobs in %.2fs\n",
               spec.name, passes, first.size(), seconds_since(t_run));
  print_digest(first);

  // The campaign that already runs the quality settings on the quality
  // nodes measures the ratios on its own records.
  if (spec.wcet && spec.exec_cycles == kQualityCycles &&
      pool.nodes.size() == static_cast<std::size_t>(kQualityNodes)) {
    quality_metrics(first, kConfigs, out);
    return;
  }
  quality_pass(pool, args.seed, options, out);

  if (spec.validate != driver::ValidateLevel::Off) return;
  // Unvalidated compiles: check the images against the mini-C interpreter.
  driver::CompileOptions copts;
  copts.target = spec.target;
  copts.ssa = spec.ssa;
  for (std::size_t i = 0; i < 8 && i < pool.nodes.size(); ++i) {
    const Node& n = pool.nodes[i];
    for (const driver::Config config : kConfigs) {
      ++out->attempted;
      const driver::Compiled compiled =
          driver::compile_program(n.program, config, copts);
      const validate::CheckResult check = validate::cross_check_machine(
          n.program, compiled, n.entry, 6, args.seed + i);
      if (!check.ok)
        out->fail(n.name + "/" + driver::to_string(config) +
                  ": interpreter mismatch: " + check.message);
    }
  }
}

// --- traced -----------------------------------------------------------------

/// Mirrors fleet.cpp's execution phase (same inputs, same monitor set-up).
void exec_phase(const driver::FleetUnit& unit, const mach::Image& image,
                int cycles, machine::MonitorMode mode,
                driver::FleetRecord* record) {
  const minic::Function* fn = unit.program->find_function(unit.entry);
  const bool has_io =
      unit.program->find_global(dataflow::kIoBusGlobal) != nullptr;
  Rng rng(*unit.input_seed);
  machine::Machine m(image);
  machine::MonitorSpec monitor_spec;
  if (mode != machine::MonitorMode::Off) {
    monitor_spec = wcet::build_monitor_spec(image, unit.entry, mode, {});
    m.arm_monitor(monitor_spec, mode);
  }
  try {
    std::vector<minic::Value> args;
    for (int c = 0; c < cycles; ++c) {
      m.clear_caches();
      args.clear();
      for (const auto& p : fn->params) {
        if (p.type == minic::Type::F64)
          args.push_back(minic::Value::of_f64(rng.next_double(-20.0, 20.0)));
        else
          args.push_back(minic::Value::of_i32(
              static_cast<std::int32_t>(rng.next_range(-2, 2))));
      }
      if (has_io)
        m.write_global(dataflow::kIoBusGlobal, 0,
                       minic::Value::of_f64(rng.next_double(-3.0, 3.0)));
      m.call(unit.entry, args, minic::Type::I32);
      const machine::ExecStats& s = m.stats();
      machine::ExecStats& e = record->exec;
      e.cycles += s.cycles;
      e.instructions += s.instructions;
      e.dcache_reads += s.dcache_reads;
      e.dcache_writes += s.dcache_writes;
      e.dcache_read_misses += s.dcache_read_misses;
      e.dcache_write_misses += s.dcache_write_misses;
      e.ifetch_line_misses += s.ifetch_line_misses;
      e.taken_branches += s.taken_branches;
      record->observed_max_cycles =
          std::max(record->observed_max_cycles, s.cycles);
    }
  } catch (const machine::MonitorError&) {
    record->monitor_violations += 1;
    if (m.monitor() != nullptr) record->monitored_steps = m.monitor()->steps();
    throw;
  }
  if (m.monitor() != nullptr) record->monitored_steps = m.monitor()->steps();
}

/// Layer totals of the traced replay.
struct Layers {
  pass::PipelineStats passes;
  double validate_s = 0.0, exec_s = 0.0, monitor_s = 0.0;
  double cfg_s = 0.0, values_s = 0.0, cache_s = 0.0;
  double structural_s = 0.0, ipet_s = 0.0;
  std::uint64_t insns = 0, monitored_steps = 0, allocs = 0;
  std::int64_t pivots = 0, bnb_nodes = 0, lp_vars = 0, lp_constraints = 0;
  double mirrored_s = 0.0;  // sum of job spans
};

/// Lays `parts` end to end inside `parent`, clipped to its interval.
void add_children(Trace* trace, int parent, std::int64_t job,
                  const std::vector<std::pair<std::string, double>>& parts) {
  const Trace::Span& p = trace->spans()[static_cast<std::size_t>(parent)];
  const double end = p.start_us + p.dur_us;
  double at = p.start_us;
  for (const auto& [name, seconds] : parts) {
    const double dur = std::min(seconds * 1e6, end - at);
    if (dur <= 0.0) break;
    trace->add(name, "layer", job, parent, at, dur);
    at += dur;
  }
}

void traced_campaign(const Spec& spec, const Args& args, const Pool& pool,
                     Result* out) {
  const driver::FleetOptions options = fleet_options(spec);
  const std::size_t nodes = static_cast<std::size_t>(spec.traced_nodes);
  const std::vector<driver::FleetUnit> units =
      pool_units(pool, args.seed, 0, nodes);
  const driver::FleetReport reference = driver::run_fleet(units, options);
  check_records(reference.records, spec.wcet, out);
  print_digest(reference.records);

  Trace trace;
  Layers L;
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
      const std::size_t j = u * kConfigs.size() + c;
      const auto job = static_cast<std::int64_t>(j);
      const driver::FleetUnit& unit = units[u];
      const driver::Config config = kConfigs[c];
      const driver::FleetRecord& ref = reference.records[j];
      driver::FleetRecord record;
      record.name = unit.name;
      record.config = config;
      driver::CompileOptions copts;
      copts.target = spec.target;
      copts.ssa = spec.ssa;
      copts.stats = &record.pass_stats;
      driver::Compiled compiled;
      std::optional<wcet::WcetResult> bounds;
      int compile_span = -1, exec_span = -1, wcet_span = -1;

      // The mirrored calls: what fleet.cpp's run_job does for this job.
      // Heap allocations are counted inside the calls only, so the trace's
      // own bookkeeping stays out of the count.
      const auto counted = [&](auto&& call) {
        const alloc::Scope scope;
        call();
        L.allocs += scope.delta().allocations;
      };
      const int job_span = trace.begin("job", "job", job);
      try {
        compile_span = trace.begin("compile", "layer", job, job_span);
        counted([&] {
          this_thread_workspace().reset();
          compiled =
              spec.validate != driver::ValidateLevel::Off
                  ? validate::validated_compile(*unit.program, config, 6, 1,
                                                spec.validate, copts)
                  : driver::compile_program(*unit.program, config, copts);
        });
        trace.end(compile_span);
        record.code_bytes = compiled.image.code_size_of(unit.entry);
        exec_span = trace.begin("machine.exec", "layer", job, job_span);
        counted([&] {
          exec_phase(unit, compiled.image, spec.exec_cycles, spec.monitor,
                     &record);
        });
        trace.end(exec_span);
        if (spec.wcet) {
          wcet_span = trace.begin("wcet", "layer", job, job_span);
          wcet::WcetOptions wopts;
          wopts.engine = wcet::WcetEngine::Both;
          counted([&] {
            bounds = wcet::analyze_wcet(compiled.image, unit.entry, wopts);
          });
          trace.end(wcet_span);
          record.wcet_cycles = *bounds->structural_cycles;
          record.wcet_ipet_cycles = bounds->ipet->wcet_cycles;
          record.wcet_ipet_capped_edges = bounds->ipet->capped_edges;
          record.wcet_ipet_certified = bounds->ipet->certificate_verified;
        }
        record.ok = true;
      } catch (const std::exception& e) {
        record.ok = false;
        record.error = e.what();
        record.exec = machine::ExecStats{};
        record.observed_max_cycles = 0;
      }
      trace.end(job_span);
      L.mirrored_s += trace.seconds(job_span);

      ++out->attempted;
      if (core_dump(record) != core_dump(ref)) {
        out->fail(unit.name + "/" + driver::to_string(config) +
                  ": traced replay record differs from run_fleet");
        continue;
      }
      if (!record.ok) continue;

      // Probes: extra calls that split the mirrored spans into layers. They
      // are traced on their own track and kept out of the accounting.
      const auto probe = [&](const char* name, auto&& fn) {
        const int s = trace.begin(name, "probe", job);
        fn();
        trace.end(s);
        return trace.seconds(s);
      };
      std::vector<std::pair<std::string, double>> compile_parts;
      for (const pass::PassStat& p : record.pass_stats.passes)
        compile_parts.emplace_back(layer_of_pass(p.name) + "." + p.name,
                                   p.seconds);
      if (spec.validate != driver::ValidateLevel::Off) {
        driver::CompileOptions plain = copts;
        pass::PipelineStats ignored;
        plain.stats = &ignored;
        const double compile_s = probe("probe.compile_program", [&] {
          (void)driver::compile_program(*unit.program, config, plain);
        });
        const double validated_s =
            trace.seconds(compile_span);
        const double v = std::max(0.0, validated_s - compile_s);
        L.validate_s += v;
        compile_parts.emplace_back("validate", v);
      }
      add_children(&trace, compile_span, job, compile_parts);
      L.passes += record.pass_stats;

      const double exec_s =
          trace.seconds(exec_span);
      L.exec_s += exec_s;
      L.insns += record.exec.instructions;
      L.monitored_steps += record.monitored_steps;
      if (spec.monitor != machine::MonitorMode::Off) {
        driver::FleetRecord scratch;
        const double exec_off_s = probe("probe.exec_unmonitored", [&] {
          exec_phase(unit, compiled.image, spec.exec_cycles,
                     machine::MonitorMode::Off, &scratch);
        });
        const double m = std::max(0.0, exec_s - exec_off_s);
        L.monitor_s += m;
        add_children(&trace, exec_span, job, {{"machine.monitor", m}});
      }

      if (spec.wcet) {
        const mach::Image& image = compiled.image;
        const mach::TargetDesc& desc = mach::target_by_name(image.target);
        wcet::Cfg cfg;
        wcet::ValueAnalysisResult values;
        const double cfg_s = probe("probe.build_cfg", [&] {
          cfg = wcet::build_cfg(image, unit.entry);
        });
        const double values_s = probe("probe.analyze_values", [&] {
          const wcet::AnnotIndex annots =
              wcet::index_annotations(image, image.fn_entry.at(unit.entry),
                                      image.fn_end.at(unit.entry));
          values = wcet::analyze_values(cfg, annots, desc);
        });
        const double cache_s = probe("probe.analyze_caches", [&] {
          (void)wcet::analyze_caches(cfg, values, desc.machine);
        });
        const double shared = cfg_s + values_s + cache_s;
        wcet::WcetOptions wopts;
        wopts.engine = wcet::WcetEngine::Structural;
        const double structural_s = probe("probe.wcet_structural", [&] {
          (void)wcet::analyze_wcet(image, unit.entry, wopts);
        });
        wopts.engine = wcet::WcetEngine::Ipet;
        wcet::WcetResult ipet_only;
        const double ipet_s = probe("probe.wcet_ipet", [&] {
          ipet_only = wcet::analyze_wcet(image, unit.entry, wopts);
        });
        const double s = std::max(0.0, structural_s - shared);
        const double i = std::max(0.0, ipet_s - shared);
        L.cfg_s += cfg_s;
        L.values_s += values_s;
        L.cache_s += cache_s;
        L.structural_s += s;
        L.ipet_s += i;
        add_children(&trace, wcet_span, job,
                     {{"wcet.cfg", cfg_s}, {"wcet.values", values_s},
                      {"wcet.cache", cache_s}, {"wcet.structural", s},
                      {"wcet.ipet", i}});
        const wcet::IpetInfo& ipet = *bounds->ipet;
        if (ipet.simplex_pivots != ipet_only.ipet->simplex_pivots ||
            ipet.bnb_nodes != ipet_only.ipet->bnb_nodes)
          out->fail(unit.name + ": simplex pivot count drifted");
        L.pivots += ipet.simplex_pivots;
        L.bnb_nodes += ipet.bnb_nodes;
        L.lp_vars += ipet.lp_vars;
        L.lp_constraints += ipet.lp_constraints;
      }
      // Counters run_fleet also keeps must match the replay's exactly.
      const auto totals = [](const pass::PipelineStats& s) {
        std::uint64_t checks = 0;
        std::int64_t rewrites = 0;
        for (const pass::PassStat& p : s.passes) {
          checks += p.checks;
          rewrites += p.rewrites;
        }
        return std::make_pair(checks, rewrites);
      };
      if (totals(record.pass_stats) != totals(ref.pass_stats))
        out->fail(unit.name + ": pass counters drifted");
    }
  }

  // Per-layer metrics.
  const auto stat = [&](const char* name) {
    const pass::PassStat* p = L.passes.find(name);
    return p ? *p : pass::PassStat{};
  };
  out->set("rtl.lower_s", stat("lower").seconds, "s");
  for (const char* p :
       {"constprop", "cse", "forward", "dce", "deadstore", "tunnel"})
    out->set(std::string("opt.") + p + "_s", stat(p).seconds, "s");
  double ssa_s = 0.0, mach_s = 0.0;
  std::uint64_t checks = 0;
  std::int64_t rewrites = 0;
  for (const pass::PassStat& p : L.passes.passes) {
    const std::string layer = layer_of_pass(p.name);
    if (layer == "ssa") ssa_s += p.seconds;
    if (layer == "mach") mach_s += p.seconds;
    checks += p.checks;
    if (layer == "opt" || layer == "ssa" || p.name == "peephole" ||
        p.name == "schedule" || p.name == "selfmove")
      rewrites += p.rewrites;
  }
  out->set("pass.rtl_rounds", stat("constprop").runs, "count");
  out->set("pass.rewrites", rewrites, "count");
  out->set("ssa.s", ssa_s, "s");
  out->set("regalloc.s", stat("regalloc").seconds, "s");
  out->set("regalloc.spills", stat("regalloc").rewrites, "count");
  out->set("mach.s", mach_s, "s");
  out->set("validate.s", L.validate_s, "s");
  out->set("validate.checks", checks, "count");
  out->set("validate.us_per_check",
           checks > 0 ? L.validate_s * 1e6 / checks : 0.0,
           "us");
  out->set("machine.exec_s", L.exec_s, "s");
  out->set("machine.insns", L.insns, "count");
  out->set("machine.insns_per_s",
           L.exec_s > 0.0 ? L.insns / L.exec_s : 0.0, "1/s");
  out->set("machine.monitor_s", L.monitor_s, "s");
  out->set("machine.monitored_steps", L.monitored_steps, "count");
  out->set("wcet.cfg_s", L.cfg_s, "s");
  out->set("wcet.values_s", L.values_s, "s");
  out->set("wcet.cache_s", L.cache_s, "s");
  out->set("wcet.structural_s", L.structural_s, "s");
  out->set("wcet.ipet_s", L.ipet_s, "s");
  out->set("ilp.pivots", L.pivots, "count");
  out->set("ilp.bnb_nodes", L.bnb_nodes, "count");
  out->set("ilp.lp_vars", L.lp_vars, "count");
  out->set("ilp.lp_constraints", L.lp_constraints, "count");
  const double jobs = static_cast<double>(reference.records.size());
  out->set("support.allocs_per_job", L.allocs / jobs, "count");

  double phases = 0.0;
  for (const driver::FleetRecord& r : reference.records)
    phases += phase_seconds(r);
  const double unattributed =
      reference.wall_seconds * reference.jobs - phases;
  out->set("driver.unattributed_s", unattributed, "s");
  out->set("trace.overhead", L.mirrored_s / phases, "ratio");
  double layer_self = 0.0;
  for (const auto& [name, seconds] : trace.self_seconds())
    if (name != "job") layer_self += seconds;
  out->set("trace.accounted_share", (layer_self + unattributed) / L.mirrored_s,
           "ratio");
  out->set("trace.jobs", jobs, "count");
  minic_probe(pool, nodes, out);

  std::fprintf(stderr, "vcbench: %s traced %zu jobs: self time by span\n",
               spec.name, reference.records.size());
  for (const auto& [name, seconds] : trace.self_seconds())
    std::fprintf(stderr, "  %-22s %10.4f s\n", name.c_str(), seconds);
  std::fprintf(stderr, "  %-22s %10.4f s (run_fleet, untraced)\n",
               "driver.unattributed", unattributed);
  std::fprintf(stderr, "  %-22s %10.4f s\n", "traced wall", L.mirrored_s);
  const std::string path = args.out_dir + "/trace-" + spec.name + "-" +
                           std::to_string(args.seed) + ".json";
  if (trace.write_chrome(path))
    std::fprintf(stderr, "vcbench: wrote %s\n", path.c_str());
  else
    out->fail("cannot write " + path);
}

}  // namespace

void run_campaign(const Args& args, Result* out) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs)
    if (args.workload == s.name) spec = &s;
  const Pool pool = make_pool(spec->pass_nodes, kSetupRepeats);
  out->set("setup_s", pool.setup_s, "s", pool.repeats);
  out->set("dataflow.generate_s", pool.generate_s, "s", pool.repeats);
  if (args.trace) {
    traced_campaign(*spec, args, pool, out);
    return;
  }
  timed_campaign(*spec, args, pool, out);
  out->set("peak_rss_mb", self_peak_rss_mb(), "MB");
}

bool is_campaign(const std::string& workload) {
  for (const Spec& s : kSpecs)
    if (workload == s.name) return true;
  return false;
}

}  // namespace vcbench
