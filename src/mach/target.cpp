#include "mach/target.hpp"

#include <set>

#include "mach/lower.hpp"
#include "support/diagnostics.hpp"

namespace vc::mach {
namespace {

bool pow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

[[noreturn]] void bad(const std::string& target, const std::string& field,
                      const std::string& why) {
  throw InternalError("invalid target descriptor '" + target +
                      "': field '" + field + "' " + why);
}

void check_gpr(const TargetDesc& d, const std::string& field, int r) {
  if (r < 0 || r >= 32) bad(d.name, field, "is not a GPR index (0..31)");
}

void check_fpr(const TargetDesc& d, const std::string& field, int r) {
  if (r < 0 || r >= 32) bad(d.name, field, "is not an FPR index (0..31)");
}

}  // namespace

void validate_target(const TargetDesc& d) {
  if (d.name.empty()) bad("?", "name", "is empty");
  if (d.lower == nullptr) bad(d.name, "lower", "is null");
  const Lowering& l = *d.lower;
  if (l.compare_to_reg == nullptr || l.branch_cmp == nullptr ||
      l.branch_nonzero == nullptr || l.access_indexed == nullptr)
    bad(d.name, "lower", "has a null hook");
  for (const auto& [field, op] :
       {std::pair{"lower.hi_op", l.hi_op}, std::pair{"lower.lo_op", l.lo_op},
        std::pair{"lower.shl_op", l.shl_op},
        std::pair{"lower.shr_op", l.shr_op}})
    if (!d.is_legal(op)) bad(d.name, field, "is not a legal op");
  if (!d.is_legal(MOp::Neg) && d.zero_gpr == -1)
    bad(d.name, "zero_gpr", "is needed to negate without a legal neg");

  if (d.issue_width < 1 || d.issue_width > 4)
    bad(d.name, "issue_width", "must be 1..4");
  if (d.max_resources_per_instr < 1 ||
      d.max_resources_per_instr > IssueModel::kMaxResourcesPerInstr)
    bad(d.name, "max_resources_per_instr",
        "must be 1.." + std::to_string(IssueModel::kMaxResourcesPerInstr));

  check_gpr(d, "stack_ptr", d.stack_ptr);
  check_gpr(d, "data_base", d.data_base);
  check_gpr(d, "scratch_gpr0", d.scratch_gpr0);
  check_gpr(d, "scratch_gpr1", d.scratch_gpr1);
  check_fpr(d, "scratch_fpr0", d.scratch_fpr0);
  check_fpr(d, "scratch_fpr1", d.scratch_fpr1);
  check_gpr(d, "ret_gpr", d.ret_gpr);
  check_fpr(d, "ret_fpr", d.ret_fpr);
  if (d.zero_gpr != -1) check_gpr(d, "zero_gpr", d.zero_gpr);
  if (d.scratch_gpr0 == d.scratch_gpr1)
    bad(d.name, "scratch_gpr1", "duplicates scratch_gpr0");
  if (d.scratch_fpr0 == d.scratch_fpr1)
    bad(d.name, "scratch_fpr1", "duplicates scratch_fpr0");

  if (d.alloc_gprs.empty()) bad(d.name, "alloc_gprs", "is empty");
  if (d.alloc_fprs.empty()) bad(d.name, "alloc_fprs", "is empty");
  const std::set<int> reserved_gprs = {d.stack_ptr, d.data_base,
                                       d.scratch_gpr0, d.scratch_gpr1,
                                       d.zero_gpr};
  std::set<int> seen;
  for (int r : d.alloc_gprs) {
    check_gpr(d, "alloc_gprs", r);
    if (!seen.insert(r).second) bad(d.name, "alloc_gprs", "has duplicates");
    if (reserved_gprs.count(r))
      bad(d.name, "alloc_gprs", "contains a reserved register");
  }
  seen.clear();
  for (int r : d.alloc_fprs) {
    check_fpr(d, "alloc_fprs", r);
    if (!seen.insert(r).second) bad(d.name, "alloc_fprs", "has duplicates");
    if (r == d.scratch_fpr0 || r == d.scratch_fpr1)
      bad(d.name, "alloc_fprs", "contains a reserved register");
  }

  if (d.n_arg_gprs < 1 || d.first_arg_gpr < 0 ||
      d.first_arg_gpr + d.n_arg_gprs > 32)
    bad(d.name, "n_arg_gprs", "argument GPR window out of range");
  if (d.n_arg_fprs < 1 || d.first_arg_fpr < 0 ||
      d.first_arg_fpr + d.n_arg_fprs > 32)
    bad(d.name, "n_arg_fprs", "argument FPR window out of range");

  if (!(d.imm_min < 0 && d.imm_max > 0))
    bad(d.name, "imm_min", "immediate range must straddle zero");

  for (const CacheConfig* c : {&d.machine.icache, &d.machine.dcache}) {
    const char* which =
        c == &d.machine.icache ? "machine.icache" : "machine.dcache";
    if (!pow2(c->sets)) bad(d.name, which, "sets must be a power of two");
    if (!pow2(c->ways)) bad(d.name, which, "ways must be a power of two");
    if (!pow2(c->line_bytes) || c->line_bytes < 8)
      bad(d.name, which, "line_bytes must be a power of two >= 8");
  }

  if (d.peephole.fold_cmp_imm && !d.has_cr)
    bad(d.name, "peephole.fold_cmp_imm", "requires a CR file");

  // Resource-list capacity: every legal op, with worst-case operands, must
  // fit the declared per-target cap (the counts depend only on the opcode).
  int reads[IssueModel::kMaxResourcesPerInstr];
  int writes[IssueModel::kMaxResourcesPerInstr];
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const MOp op = static_cast<MOp>(i);
    if (!d.op(op).legal) continue;
    const bool needs_cr = op == MOp::Cmpw || op == MOp::Cmpwi ||
                          op == MOp::Fcmpu || op == MOp::Cror ||
                          op == MOp::Mfcr || op == MOp::Bc;
    if (needs_cr && !d.has_cr)
      bad(d.name, "ops[" + mnemonic(op) + "].legal", "requires a CR file");
    MInstr ins;
    ins.op = op;
    int n_reads = 0;
    int n_writes = 0;
    IssueModel::resources(ins, reads, &n_reads, writes, &n_writes);
    if (n_reads > d.max_resources_per_instr ||
        n_writes > d.max_resources_per_instr)
      bad(d.name, "max_resources_per_instr",
          "is exceeded by op '" + mnemonic(op) + "'");
    if (d.op(op).latency == 0)
      bad(d.name, "ops[" + mnemonic(op) + "].latency", "must be nonzero");
  }
}

}  // namespace vc::mach
