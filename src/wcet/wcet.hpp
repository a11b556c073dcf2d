// The static WCET analyzer facade (the aiT stand-in of the reproduction).
//
// Phases, mirroring Gebhard et al.'s description of aiT in the same
// proceedings: decode + CFG reconstruction (cfg.hpp), value analysis
// (value_analysis.hpp), loop bound analysis (annotations + automatic
// derivation of canonical counted loops), cache analysis (cache.hpp),
// per-block pipeline timing via the shared IssueModel, and a structural
// IPET-style longest-path computation over the loop nest.
//
// The phases run in two steps. analyze_function runs every stage up to the
// block costs once and keeps the result (FunctionAnalysis); the path engines
// then read that value. A caller that needs both the monitor spec and the
// bound (the fleet, vcc) analyzes once and hands the same value to both, so
// the spec's loop rows are the rows the reported bound consumed.
//
// Soundness contract (enforced by property tests against the simulator):
// for every input, analyze_wcet(...).wcet_cycles >= observed cycles.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mach/program.hpp"
#include "mach/target.hpp"
#include "mach/timing.hpp"
#include "wcet/cache.hpp"
#include "wcet/cfg.hpp"
#include "wcet/ipet.hpp"
#include "wcet/value_analysis.hpp"

namespace vc::wcet {

/// Which path-analysis backend computes the bound. Structural is the
/// longest-path engine over the collapsed loop nest; Ipet phrases the same
/// question as an ILP over edge frequencies (ipet.hpp) and can exploit
/// infeasible-edge facts; Both runs the two independently and records each
/// bound plus the tightness delta (the N-version cross-check).
enum class WcetEngine { Structural, Ipet, Both };

/// Canonical engine names, indexed by WcetEngine. The single source of
/// truth for CLI parsing, report JSON, and bench footers (the kConfigNames
/// pattern).
inline constexpr const char* kWcetEngineNames[] = {"structural", "ipet",
                                                   "both"};

[[nodiscard]] inline std::string to_string(WcetEngine engine) {
  return kWcetEngineNames[static_cast<int>(engine)];
}

/// Parses a canonical engine name; nullopt for anything else.
[[nodiscard]] std::optional<WcetEngine> parse_wcet_engine(
    const std::string& name);

struct WcetOptions {
  /// Machine-configuration override (caches, penalties). Unset = use the
  /// image target's configuration (the normal case); set for ablations.
  std::optional<mach::MachineConfig> machine;
  /// Consult the image's annotation table (§3.4 flow). Disabling this is the
  /// ablation of bench_annotations.
  bool use_annotations = true;
  /// Run the cache must/persistence analysis. When disabled every access is
  /// charged as a miss (the "no cache analysis" ablation).
  bool cache_analysis = true;
  /// Path-analysis backend(s) to run.
  WcetEngine engine = WcetEngine::Structural;
};

struct LoopBoundInfo {
  std::uint32_t header_addr = 0;
  std::int64_t bound = 0;
  bool from_annotation = false;
  bool derived = false;  // automatically derived from the loop's exit test
};

struct WcetResult {
  /// The bound of the selected engine (the IPET bound when it ran — it is
  /// never looser than structural on systems both can express).
  std::uint64_t wcet_cycles = 0;
  /// The structural engine's bound; set unless engine == Ipet.
  std::optional<std::uint64_t> structural_cycles;
  /// The IPET engine's result; set unless engine == Structural.
  std::optional<IpetInfo> ipet;
  std::vector<LoopBoundInfo> loops;
  std::vector<std::string> warnings;
  /// Diagnostic: per-block base costs (by block start address).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> block_costs;
};

/// A loop without any usable bound makes WCET computation impossible.
class WcetError : public std::runtime_error {
 public:
  explicit WcetError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Cache classification and the per-block cycle costs derived from it.
struct BlockCosts {
  /// False when every access is charged as a miss (the ablation).
  bool cache_analysis = true;
  CacheAnalysisResult caches;
  std::vector<std::uint64_t> block_cost;      // per block
  std::vector<std::uint64_t> loop_ps_charge;  // persistence charge per loop
  std::uint64_t function_ps_charge = 0;
};

/// The shared stages of one function's analysis: everything the path
/// engines and the monitor spec read. Built once by analyze_function.
struct FunctionAnalysis {
  std::string fn_name;
  const mach::TargetDesc* desc = nullptr;
  mach::MachineConfig machine;
  Cfg cfg;
  ValueAnalysisResult values;
  /// One row per natural loop, index-aligned with cfg.loops.
  std::vector<LoopBoundInfo> loops;
  std::vector<std::string> warnings;
  BlockCosts costs;  // per WcetOptions::cache_analysis
};

/// Runs the shared stages: CFG reconstruction, annotation indexing, value
/// analysis, cache analysis and block costs, loop bounds. The engine field
/// of `options` is ignored. Throws WcetError for a loop without a bound.
FunctionAnalysis analyze_function(const mach::Image& image,
                                  const std::string& fn_name,
                                  const WcetOptions& options = {});

/// Classifies the analyzed function's accesses (or, with `cache_analysis`
/// off, charges every one as a miss) and costs its blocks. Reuses the CFG
/// and value analysis, which do not depend on the cache.
BlockCosts cost_blocks(const FunctionAnalysis& analysis, bool cache_analysis);

/// The structural engine's bound over `costs`.
std::uint64_t structural_wcet(const FunctionAnalysis& analysis,
                              const BlockCosts& costs);

/// The IPET engine's bound over the analysis' own costs.
IpetInfo ipet_wcet(const FunctionAnalysis& analysis);

/// Runs the selected engine(s) over an analysis already built.
WcetResult analyze_wcet(const FunctionAnalysis& analysis, WcetEngine engine);

/// analyze_function followed by the engines of options.engine.
WcetResult analyze_wcet(const mach::Image& image, const std::string& fn_name,
                        const WcetOptions& options = {});

}  // namespace vc::wcet
