// The PPC backend: an MPC755-flavoured dual-issue PowerPC-G3-like target,
// the machine of the source paper's flight-control experiment. This module
// owns every PPC fact — register roles and ABI, the op subset with its
// latencies and units, dual-issue pairing rules, L1 geometry, peephole
// permissions — plus its instruction-selection table for the shared emitter
// (mach/lower.hpp): lis/ori and @ha/@l halves, slw/sraw, compares through
// the condition register, and x-form indexed accesses.
#pragma once

#include "mach/target.hpp"

namespace vc::targets {

/// The PPC descriptor (validated once at first use).
const mach::TargetDesc& ppc_target();

/// PPC instruction selection (the descriptor's `lower` table).
extern const mach::Lowering ppc_lowering;

}  // namespace vc::targets
