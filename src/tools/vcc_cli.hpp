// Argument parsing for the vcc driver, split out so the strict-parsing
// rules are unit-testable (tests/vcc_cli_test.cpp) without spawning the
// binary. Policy: malformed or wrong-arity argument lists are diagnosed,
// never silently truncated or zero-filled — vcc exits 2 on any of these.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "machine/monitor.hpp"
#include "minic/ast.hpp"
#include "minic/interp.hpp"
#include "pass/pass.hpp"
#include "support/flags.hpp"
#include "wcet/wcet.hpp"

namespace vc::tools {

/// Maps a --config= name to a configuration; nullopt for unknown names.
/// Accepts both the cli ("O2") and full ("O2-full") spellings — this is a
/// thin wrapper over driver::parse_config, kept so the CLI surface stays
/// unit-testable in one place.
std::optional<driver::Config> parse_config_name(const std::string& name);

/// Maps a --target= name to a registered target name ("ppc", "rv32");
/// nullopt for unknown or empty names — strict CLIs diagnose and exit 2
/// instead of silently compiling for the default ISA.
std::optional<std::string> parse_target_name(const std::string& name);

/// Validates --passes= / --disable-pass= step names against the built-in
/// step registry at argument-parse time. Returns the diagnostic for the
/// first unknown or structural name ("unknown pass 'x'; registered steps:
/// ..."), nullopt when every name is selectable. vcc and the bench binaries
/// share this so a typo'd step name is a usage error (exit 2) listing the
/// registered steps, never a mid-compile exception (exit 1).
std::optional<std::string> check_pass_names(
    const std::vector<std::string>& names);

/// Maps a --validate= level name ("off", "rtl", "full") to the level;
/// nullopt for unknown names. A bare --validate (no value) means Rtl, but
/// that defaulting lives in the flag tables, not here.
std::optional<driver::ValidateLevel> parse_validate_level(
    const std::string& name);

/// Maps a --wcet-engine= name ("structural", "ipet", "both") to the engine;
/// nullopt for unknown names. Thin wrapper over wcet::parse_wcet_engine so
/// the value round-trips through the one kWcetEngineNames table.
std::optional<wcet::WcetEngine> parse_wcet_engine_name(
    const std::string& name);

/// Result of parsing a --run=FN[:a,b,...] argument list against a function
/// signature: the marshalled values, or a diagnostic.
struct CallArgs {
  std::vector<minic::Value> values;
  std::string error;  // empty on success
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Strictly parses `spec` (empty, or "a,b,c") against `fn`'s parameters:
/// exactly one well-formed literal per parameter — extra, missing, or
/// malformed arguments produce an error instead of truncation or zero-fill.
/// i32 literals must be decimal integers in range; f64 literals anything
/// strtod fully consumes.
CallArgs parse_call_args(const minic::Function& fn, const std::string& spec);

/// One measured phase of a vcc invocation (compile / wcet / exec): wall time
/// plus the heap traffic the phase performed on the calling thread
/// (support/alloccount counters).
struct ProfilePhase {
  std::string name;
  double seconds = 0.0;
  std::uint64_t allocations = 0;
  std::uint64_t alloc_bytes = 0;
};

/// Renders the --profile report: a phase table (seconds, allocations,
/// bytes) followed by the per-pass breakdown from the pass-manager
/// telemetry (omitted when `passes` is empty — e.g. a cache-served
/// compile). Pure string formatting, so the exact layout is unit-testable
/// without spawning the vcc binary.
[[nodiscard]] std::string format_profile(
    const std::vector<ProfilePhase>& phases,
    const pass::PipelineStats& passes);

/// The sorted paths of the .mc files directly under `dir`, shared by
/// `vcc --batch` and `vcc --connect --batch`. When `dir` is missing or not
/// a directory, returns nullopt and sets `*error` to a "not a directory"
/// diagnostic naming the path and the reason (a usage error: exit 2).
std::optional<std::vector<std::string>> list_mc_files(const std::string& dir,
                                                      std::string* error);

/// Batch compilation (vcc --batch): every .mc file under a directory,
/// compiled in parallel, with optional artifact caching. Lives here (not in
/// the vcc binary) so the exit-code and summary policy is unit-testable:
/// any per-file failure must yield a non-zero exit code and an explicit
/// per-file pass/fail summary — a batch must never "exit 0 with errors in
/// the scrollback".
struct BatchOptions {
  driver::Config config = driver::Config::Verified;
  /// Target ISA every file compiles for (a registered src/targets name).
  std::string target = "ppc";
  /// Translation-validation level (off / rtl / full). Validated runs bypass
  /// the artifact cache: re-checking the compilation is the point of the run.
  driver::ValidateLevel validate = driver::ValidateLevel::Off;
  /// Enable the SSA mid-end bracket for every file (CompileOptions::ssa).
  /// Part of the cache key: SSA and non-SSA batches never share entries.
  bool ssa = false;
  int jobs = 0;  // 0 = one worker per hardware thread
  /// Artifact-store directory; empty disables caching.
  std::string cache_dir;
  std::uint64_t cache_budget_bytes = 0;  // 0 = unlimited
};

/// Exit-code policy: 0 = every file compiled; 1 = at least one compile
/// failed; 2 = usage/environment error (path missing or not a directory,
/// bad --jobs, or an unreadable file) — the diagnostic always names the
/// offending path and the reason.
struct BatchResult {
  int exit_code = 1;               // 0 only when every file compiled
  std::size_t total = 0;
  std::size_t compiled = 0;
  std::size_t cache_hits = 0;
  std::size_t io_errors = 0;          // unreadable files (exit-2 class)
  std::vector<std::string> lines;     // per-file results, sorted-path order
  std::vector<std::string> failures;  // paths of the files that failed
  std::string summary;                // human footer (throughput + cache)
};

BatchResult run_batch(const std::string& dir, const BatchOptions& options);

/// vcc's command line (the flags are documented at the top of vcc.cpp):
/// the batch options plus everything else. An omitted flag keeps the
/// default; an omitted --jobs (0) means one worker per hardware thread.
struct VccOptions : BatchOptions {
  std::string path;  // the input file, or the directory with --batch
  std::vector<std::string> passes;          // --passes=a,b,c
  std::vector<std::string> disable_passes;  // --disable-pass (repeatable)
  std::string dump_after;
  bool emit_asm = false;
  bool stats = false;
  bool profile = false;
  bool no_annotations = false;
  bool batch = false;
  int cache_budget_mb = 0;  // 0 = unlimited
  std::string wcet;         // entry function; "auto" resolves on the daemon
  wcet::WcetEngine wcet_engine = wcet::WcetEngine::Structural;
  std::string run;          // FN[:a,b,...]
  machine::MonitorMode monitor = machine::MonitorMode::Off;
  std::string connect;      // vccd socket
  int exec_cycles = 0;
};

/// The flags vcc shares with the fleet benches, declared once so their
/// value languages cannot drift apart: O is any options struct with these
/// fields (VccOptions, bench::BenchFlags). --disable-pass step names are
/// checked against the registry at parse time.
template <class O>
flags::Table<O>& add_shared_flags(flags::Table<O>& t) {
  return t.choice("--target", "target", parse_target_name, &O::target)
      .choice("--validate", "validate level", parse_validate_level,
              &O::validate, "rtl")
      .choice("--wcet-engine", "wcet engine", parse_wcet_engine_name,
              &O::wcet_engine)
      .choice("--monitor", "monitor mode", machine::parse_monitor_mode,
              &O::monitor)
      .boolean("--ssa", &O::ssa)
      .list("--disable-pass", &O::disable_passes,
            [](const std::string& name) { return check_pass_names({name}); })
      .text("--cache-dir", &O::cache_dir)
      .count("--jobs", 1, flags::kMaxCount, &O::jobs)
      .count("--cache-budget-mb", 0, flags::kMaxCount, &O::cache_budget_mb);
}

/// vcc's flag table. Step names in --passes are checked against the
/// registry here, so a typo is a usage error (exit 2) listing the
/// registered steps, never a mid-compile exception (exit 1).
flags::Table<VccOptions> vcc_flag_table();

}  // namespace vc::tools
