// vcc — the vcflight command-line driver.
//
// Compiles a mini-C source file under a chosen configuration and, on demand,
// prints the disassembly listing, runs a function on the machine simulator,
// computes its WCET bound, or performs validated compilation. Batch mode
// compiles every .mc file of a directory in parallel over a thread pool.
//
// Usage:
//   vcc [options] file.mc
//   vcc [options] --batch dir
//     --config=<O0|O1|verified|O2>   compiler configuration (default verified)
//     --target=<ppc|rv32>            target ISA (default ppc); strict: an
//                                    unknown or empty name is a usage error
//     --emit-asm                     print the disassembly listing
//     --wcet=<function>              print the WCET bound of <function>
//     --wcet-engine=<structural|ipet|both>
//                                    path-analysis backend for --wcet:
//                                    structural longest-path (default), the
//                                    LP-based IPET engine with certificate
//                                    checking, or both (prints each bound
//                                    and the tightness delta)
//     --no-annotations               ignore the annotation table in WCET
//     --run=<function>[:a,b,...]     simulate <function> with f64/i32 args
//     --monitor=<off|cfg|full>       arm the runtime execution monitor on
//                                    --run: cfg checks every control
//                                    transfer against the reconstructed CFG,
//                                    full adds live annotation-interval and
//                                    loop-bound checks; a violation aborts
//                                    with the refuted fact (exit 1)
//     --validate[=off|rtl|full]      translation-validate every pass; bare
//                                    --validate means rtl, full adds the
//                                    machine-level checkers
//     --ssa                          enable the SSA mid-end bracket
//                                    (ssa-build .. ssa-out) on the verified
//                                    and O2 configurations; conflicts with
//                                    --passes (an explicit list already
//                                    decides the pipeline)
//     --passes=a,b,c                 replace the config's optimization passes
//     --disable-pass=NAME            drop one pass (repeatable)
//     Unknown step names in --passes / --disable-pass are usage errors
//     (exit 2) listing the registered steps.
//     --dump-after=PASS              print the IR after every applied run
//     --stats                        print per-function code sizes
//     --profile                      print the per-phase breakdown (compile /
//                                    wcet / exec wall time with heap
//                                    allocation counts) and the per-pass
//                                    telemetry table after the run
//     --batch                        compile every .mc file under <dir>
//     --jobs=N                       batch worker threads (N >= 1; omit
//                                    the flag for one per hardware thread)
//     --cache-dir=DIR                batch: content-addressed artifact cache
//     --cache-budget-mb=N            batch: cache LRU budget (0 = unlimited)
//     --connect=SOCK                 submit to a running vccd daemon on the
//                                    Unix socket SOCK instead of compiling
//                                    in-process (single file or --batch);
//                                    --wcet=auto resolves the entry on the
//                                    daemon, --exec-cycles=N steps the entry
//                                    with pseudo-random inputs, and --run is
//                                    local-only (rejected)
//     --exec-cycles=N                connect mode: step invocations per job
//                                    with pseudo-random inputs (0 = skip)
//
// Batch mode exits non-zero if any file fails, and lists the failing files
// in a per-file pass/fail summary on stderr.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/fleet.hpp"
#include "service/client.hpp"
#include "support/alloccount.hpp"
#include "machine/machine.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "mach/isa.hpp"
#include "rtl/rtl.hpp"
#include "support/workspace.hpp"
#include "tools/vcc_cli.hpp"
#include "validate/validate.hpp"
#include "wcet/monitor_spec.hpp"
#include "wcet/report.hpp"
#include "wcet/wcet.hpp"

namespace {

using namespace vc;

[[noreturn]] void usage() {
  std::fputs(
      "usage: vcc [--config=O0|O1|verified|O2] [--target=ppc|rv32]\n"
      "           [--emit-asm]\n"
      "           [--wcet=FN] [--wcet-engine=structural|ipet|both]\n"
      "           [--no-annotations] [--run=FN[:args]]\n"
      "           [--monitor=off|cfg|full]\n"
      "           [--validate[=off|rtl|full]] [--ssa] [--passes=a,b,c]\n"
      "           [--disable-pass=NAME] [--dump-after=PASS]\n"
      "           [--stats] [--profile] file.mc\n"
      "       vcc [--config=...] [--validate[=off|rtl|full]] [--jobs=N]\n"
      "           [--cache-dir=DIR] [--cache-budget-mb=N] --batch dir\n"
      "       vcc --connect=SOCK [--config=...] [--wcet=FN|auto]\n"
      "           [--wcet-engine=...] [--validate[=...]] [--monitor=...]\n"
      "           [--exec-cycles=N] (file.mc | --batch dir)\n",
      stderr);
  std::exit(2);
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "vcc: %s\n", message.c_str());
  std::exit(2);
}

/// Parses + type-checks + compiles one source string.
driver::Compiled compile_source(const std::string& source,
                                const std::string& path, driver::Config config,
                                driver::ValidateLevel validate_level,
                                driver::CompileOptions copts,
                                minic::Program* program_out) {
  minic::Program program = minic::parse_program(source, path);
  minic::type_check(program);
  driver::Compiled compiled =
      validate_level != driver::ValidateLevel::Off
          ? validate::validated_compile(program, config, /*n_tests=*/12,
                                        /*seed=*/1, validate_level,
                                        std::move(copts))
          : driver::compile_program(program, config, copts);
  *program_out = std::move(program);
  return compiled;
}

/// --dump-after printer: RTL as the pretty-printed function, machine code as
/// one formatted instruction per op (labels interleaved at their positions).
void dump_state(const std::string& pass, const pass::FunctionState& s) {
  std::printf("== %s after %s ==\n", s.name().c_str(), pass.c_str());
  if (!s.emitted) {
    std::fputs(rtl::print_function(s.rtl).c_str(), stdout);
    return;
  }
  for (std::size_t i = 0; i < s.machine.ops.size(); ++i) {
    for (const auto& [label, pos] : s.machine.labels)
      if (pos == i) std::printf("L%d:\n", label);
    std::printf("  %s\n",
                mach::format_instr(s.machine.ops[i].ins,
                                  static_cast<std::uint32_t>(i * 4))
                    .c_str());
  }
  for (const auto& [label, pos] : s.machine.labels)
    if (pos == s.machine.ops.size()) std::printf("L%d:\n", label);
}

std::string read_file_or_die(const std::string& path, int exit_code = 1) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "vcc: cannot open %s\n", path.c_str());
    std::exit(exit_code);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Batch mode front-end: the policy (parallel compile, per-file summary,
/// non-zero exit on any failure, optional artifact cache) lives in
/// tools::run_batch so it is unit-testable; this just prints.
int run_batch_cli(const std::string& dir, const tools::BatchOptions& options) {
  const tools::BatchResult result = tools::run_batch(dir, options);
  for (const std::string& line : result.lines) std::puts(line.c_str());
  if (result.total == 0) {
    std::fprintf(stderr, "vcc: %s\n", result.summary.c_str());
    return result.exit_code;
  }
  std::fprintf(stderr, "vcc: %s\n", result.summary.c_str());
  for (const std::string& path : result.failures)
    std::fprintf(stderr, "vcc: FAILED: %s\n", path.c_str());
  return result.exit_code;
}

/// --connect mode: pipeline every file as one "job" request over the daemon
/// socket, then collect the replies (which may arrive out of order) and
/// print a per-file summary. Exit 0 = all ok, 1 = a job failed or the
/// daemon dropped us, 2 = usage/environment.
int run_connect(const std::string& socket_path, const std::string& path,
                bool batch, const service::JobRequest& proto) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  if (batch) {
    std::string error;
    std::optional<std::vector<std::string>> listed =
        tools::list_mc_files(path, &error);
    if (!listed) {
      std::fprintf(stderr, "vcc: %s\n", error.c_str());
      return 2;
    }
    if (listed->empty()) {
      std::fprintf(stderr, "vcc: no .mc files under %s\n", path.c_str());
      return 1;
    }
    files = std::move(*listed);
  } else {
    files.push_back(path);
  }

  service::ServiceClient client;
  if (!client.connect(socket_path)) {
    std::fprintf(stderr, "vcc: cannot connect to daemon socket %s\n",
                 socket_path.c_str());
    return 2;
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    service::JobRequest job = proto;
    job.id = static_cast<std::int64_t>(i);
    job.name = fs::path(files[i]).stem().string();
    job.source = read_file_or_die(files[i], /*exit_code=*/2);
    // Deterministic per-file seed, independent of reply order and shard
    // placement: the same derivation the fleet uses, keyed by sorted index.
    job.input_seed = driver::fleet_job_seed(7, i);
    if (!client.send(service::job_to_json(job))) {
      std::fprintf(stderr, "vcc: daemon connection died mid-submit\n");
      return 1;
    }
  }

  std::map<std::int64_t, json::Value> replies;
  while (replies.size() < files.size()) {
    const auto reply = client.recv();
    if (!reply) {
      std::fprintf(stderr, "vcc: daemon connection died (%zu/%zu replies)\n",
                   replies.size(), files.size());
      return 1;
    }
    replies[reply->at("id").as_i64(-1)] = *reply;
  }

  int failures = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto it = replies.find(static_cast<std::int64_t>(i));
    if (it == replies.end()) {
      std::fprintf(stderr, "vcc: FAILED: %s (no reply)\n", files[i].c_str());
      ++failures;
      continue;
    }
    const json::Value& doc = it->second;
    if (!doc.at("ok").as_bool(false)) {
      std::fprintf(stderr, "vcc: FAILED: %s (%s)\n", files[i].c_str(),
                   doc.at("error").as_string("unknown error").c_str());
      ++failures;
      continue;
    }
    // The envelope only says the daemon answered; the record says whether
    // the job itself compiled, ran and analyzed.
    const json::Value& record = doc.at("record");
    if (!record.at("ok").as_bool(false)) {
      std::fprintf(stderr, "vcc: FAILED: %s (%s)\n", files[i].c_str(),
                   record.at("error").as_string("unknown error").c_str());
      ++failures;
      continue;
    }
    std::string line = files[i] + ": ok";
    line += " cache=" + doc.at("cache").as_string("miss");
    line += " bytes=" + std::to_string(record.at("code_bytes").as_u64());
    if (!record.at("wcet_cycles").is_null())
      line += " wcet=" + std::to_string(record.at("wcet_cycles").as_u64());
    if (record.at("wcet_ipet_cycles").as_u64() > 0)
      line +=
          " ipet=" + std::to_string(record.at("wcet_ipet_cycles").as_u64());
    std::puts(line.c_str());
  }
  if (failures > 0)
    std::fprintf(stderr, "vcc: %d of %zu daemon job(s) failed\n", failures,
                 files.size());
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::VccOptions opts =
      flags::parse_flags_or_exit(tools::vcc_flag_table(), argc, argv, "vcc");
  if (opts.path.empty()) usage();
  if (opts.ssa && !opts.passes.empty())
    die("--ssa conflicts with --passes (an explicit pass list already "
        "decides the pipeline; include the ssa-build .. ssa-out bracket "
        "there instead)");

  if (!opts.connect.empty()) {
    if (!opts.run.empty())
      die("--run is local-only; use --exec-cycles=N with --connect");
    service::JobRequest job;
    job.entry = opts.wcet.empty() ? "auto" : opts.wcet;
    job.config = opts.config;
    job.target = opts.target;
    job.validate = opts.validate;
    job.wcet = !opts.wcet.empty();
    job.wcet_engine = opts.wcet_engine;
    job.use_annotations = !opts.no_annotations;
    job.monitor = opts.monitor;
    job.ssa = opts.ssa;
    job.exec_cycles = opts.exec_cycles;
    return run_connect(opts.connect, opts.path, opts.batch, job);
  }

  if (opts.batch) {
    tools::BatchOptions batch = opts;
    batch.cache_budget_bytes =
        static_cast<std::uint64_t>(opts.cache_budget_mb) * 1024 * 1024;
    return run_batch_cli(opts.path, batch);
  }

  driver::CompileOptions copts;
  copts.target = opts.target;
  copts.ssa = opts.ssa;
  copts.passes = opts.passes;
  copts.disable_passes = opts.disable_passes;
  copts.dump_after = opts.dump_after;
  if (!opts.dump_after.empty()) copts.dump = dump_state;
  const std::string source = read_file_or_die(opts.path);

  try {
    // --profile instrumentation: wall time + this thread's heap traffic per
    // phase, and the pass manager's per-pass telemetry for the compile.
    pass::PipelineStats pipeline_stats;
    std::vector<tools::ProfilePhase> phases;
    const auto measure = [&](const char* name, auto&& body) {
      if (!opts.profile) {
        body();
        return;
      }
      const vc::alloc::Scope scope;
      const auto start = std::chrono::steady_clock::now();
      body();
      tools::ProfilePhase phase;
      phase.name = name;
      phase.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const vc::alloc::Counters delta = scope.delta();
      phase.allocations = delta.allocations;
      phase.alloc_bytes = delta.bytes;
      phases.push_back(std::move(phase));
    };
    if (opts.profile) copts.stats = &pipeline_stats;

    minic::Program program;
    driver::Compiled compiled;
    measure("compile", [&] {
      compiled = compile_source(source, opts.path, opts.config, opts.validate,
                                std::move(copts), &program);
    });
    std::fprintf(
        stderr, "vcc: compiled %zu function(s) under %s%s\n",
        program.functions.size(), driver::to_string(opts.config).c_str(),
        opts.validate != driver::ValidateLevel::Off
            ? (" (validated: " + driver::to_string(opts.validate) + ")")
                  .c_str()
            : "");

    if (opts.stats) {
      for (const auto& fn : program.functions)
        std::printf("%-32s %6u bytes\n", fn.name.c_str(),
                    compiled.image.code_size_of(fn.name));
      std::printf("%-32s %6u bytes\n", "(total code)",
                  compiled.image.code_size_bytes());
    }

    if (opts.emit_asm) std::fputs(compiled.image.disassemble().c_str(), stdout);

    // The --wcet analysis, kept for a monitor on the same function: its
    // spec then checks the CFG and loop rows the printed bound consumed.
    wcet::WcetOptions wcet_options;
    wcet_options.use_annotations = !opts.no_annotations;
    std::optional<wcet::FunctionAnalysis> analysis;
    if (!opts.wcet.empty()) {
      wcet::WcetResult r;
      measure("wcet", [&] {
        analysis = wcet::analyze_function(compiled.image, opts.wcet,
                                          wcet_options);
        r = wcet::analyze_wcet(*analysis, opts.wcet_engine);
      });
      std::fputs(wcet::format_report(compiled.image, opts.wcet, r).c_str(),
                 stdout);
    }

    if (!opts.run.empty()) {
      std::string fn_name = opts.run;
      std::string arg_spec;
      const std::size_t colon = opts.run.find(':');
      if (colon != std::string::npos) {
        fn_name = opts.run.substr(0, colon);
        arg_spec = opts.run.substr(colon + 1);
      }
      const minic::Function* fn = program.find_function(fn_name);
      if (fn == nullptr) {
        std::fprintf(stderr, "vcc: unknown function '%s'\n", fn_name.c_str());
        return 1;
      }
      const tools::CallArgs call = tools::parse_call_args(*fn, arg_spec);
      if (!call.ok()) die(call.error);
      machine::MonitorSpec monitor_spec;  // outlives the machine's monitor
      machine::Machine m(compiled.image);
      if (opts.monitor != machine::MonitorMode::Off) {
        monitor_spec =
            analysis && fn_name == opts.wcet
                ? wcet::build_monitor_spec(compiled.image, *analysis,
                                           opts.monitor)
                : wcet::build_monitor_spec(compiled.image, fn_name,
                                           opts.monitor, wcet_options);
        m.arm_monitor(monitor_spec, opts.monitor);
      }
      minic::Value result;
      measure("exec", [&] {
        result = m.call(fn_name, call.values,
                        fn->has_return ? fn->return_type : minic::Type::I32);
      });
      if (fn->has_return)
        std::printf("%s(...) = %s\n", fn_name.c_str(),
                    result.to_string().c_str());
      std::printf("cycles=%llu instructions=%llu dreads=%llu dwrites=%llu\n",
                  static_cast<unsigned long long>(m.stats().cycles),
                  static_cast<unsigned long long>(m.stats().instructions),
                  static_cast<unsigned long long>(m.stats().dcache_reads),
                  static_cast<unsigned long long>(m.stats().dcache_writes));
      if (m.monitor() != nullptr)
        std::printf("monitor=%s checked=%llu violations=0\n",
                    machine::to_string(m.monitor()->mode()).c_str(),
                    static_cast<unsigned long long>(m.monitor()->steps()));
    }

    if (opts.profile) {
      std::fputs(tools::format_profile(phases, pipeline_stats).c_str(),
                 stdout);
      // The workspace arena the pipeline's pooled scratch bumps into —
      // peak is the high-water mark of live arena bytes for this job.
      const CompileWorkspace& ws = this_thread_workspace();
      std::printf("%-12s %12s %12llu %14llu (peak %llu, %zu chunk(s))\n",
                  "(arena)", "-",
                  static_cast<unsigned long long>(ws.arena.allocations()),
                  static_cast<unsigned long long>(ws.arena.bytes_allocated()),
                  static_cast<unsigned long long>(ws.arena.peak_bytes()),
                  ws.arena.chunk_count());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcc: %s\n", e.what());
    return 1;
  }
  return 0;
}
