// Builds a machine::MonitorSpec — the fact base the runtime execution
// monitor holds a simulation to — from the static artifacts of one function:
// the reconstructed CFG (legal control transfers), the image's raw
// annotation table (live-value interval claims), and, in Full mode, the
// loop-bound rows of the function's analysis.
//
// This is deliberately the *only* coupling point between the monitor and the
// analyzer: the facts come from here (they are what is being checked), the
// checking machinery lives entirely in src/machine/monitor.*. The spec is
// built from a FunctionAnalysis (wcet.hpp) — the same value the path
// engines read — so the loop rows it checks are exactly the rows the
// reported bound consumed, not a recomputation that happens to agree.
#pragma once

#include <string>

#include "machine/monitor.hpp"
#include "mach/program.hpp"
#include "wcet/wcet.hpp"

namespace vc::wcet {

/// Builds the monitor fact base for the analyzed function. Runs no analysis
/// of its own:
///   - Cfg and Full: the legal transfer targets of every branch instruction,
///     straight from analysis.cfg's successor lists (blr maps to the stop
///     address);
///   - Full only: value checks from the image's annotation entries inside
///     the function, and one loop-bound row per analysis.loops entry (the
///     rows both path engines consume).
machine::MonitorSpec build_monitor_spec(const mach::Image& image,
                                        const FunctionAnalysis& analysis,
                                        machine::MonitorMode mode);

/// Standalone form: Cfg mode reconstructs only the CFG; Full mode runs
/// analyze_function and the structural engine (so it fails exactly where
/// analyze_wcet would) and builds the spec from that analysis. `options`
/// controls the annotation/cache knobs; its engine field is ignored.
/// Throws like build_cfg / analyze_wcet on malformed code or unbounded loops.
machine::MonitorSpec build_monitor_spec(const mach::Image& image,
                                        const std::string& fn_name,
                                        machine::MonitorMode mode,
                                        const WcetOptions& options = {});

}  // namespace vc::wcet
