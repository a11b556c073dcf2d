// RV32 instruction selection for the shared emitter. No condition register:
// compares materialize 0/1 through slt/sltu/sltiu (+ xori to invert) or
// feq/flt/fle into a GPR, and two-way integer branches fuse into
// compare-and-branch (beq/bne/blt/bge). Wide constants and absolute
// addresses are lui %hi / addi %lo pairs; indexed array accesses scale with
// slli and add the base explicitly since there are no indexed loads.
#include "mach/lower.hpp"
#include "targets/rv32/target.hpp"

namespace vc::targets {
namespace {

using mach::Emitter;
using mach::make_reg3;
using mach::make_regimm;
using mach::MOp;
using minic::BinOp;
using rtl::VReg;

/// Emits the 0/1 materialization of `op`(a, b) into GPR rd. Integer eq/ne
/// route through the scratch register; everything else is one or two ops.
void compare_to_reg(Emitter& e, BinOp op, VReg a, VReg b, int rd) {
  const int t = e.desc().scratch_gpr0;
  const int zero = e.desc().zero_gpr;
  switch (op) {
    case BinOp::ICmpEq:
      e.push(make_reg3(MOp::Xor, t, e.gpr_of(a), e.gpr_of(b)));
      e.push(make_regimm(MOp::Sltiu, rd, t, 1));
      return;
    case BinOp::ICmpNe:
      e.push(make_reg3(MOp::Xor, t, e.gpr_of(a), e.gpr_of(b)));
      e.push(make_reg3(MOp::Sltu, rd, zero, t));
      return;
    case BinOp::ICmpLt:
      e.push(make_reg3(MOp::Slt, rd, e.gpr_of(a), e.gpr_of(b)));
      return;
    case BinOp::ICmpGe:
      e.push(make_reg3(MOp::Slt, rd, e.gpr_of(a), e.gpr_of(b)));
      e.push(make_regimm(MOp::Xori, rd, rd, 1));
      return;
    case BinOp::ICmpGt:
      e.push(make_reg3(MOp::Slt, rd, e.gpr_of(b), e.gpr_of(a)));
      return;
    case BinOp::ICmpLe:
      e.push(make_reg3(MOp::Slt, rd, e.gpr_of(b), e.gpr_of(a)));
      e.push(make_regimm(MOp::Xori, rd, rd, 1));
      return;
    case BinOp::FCmpEq:
      e.push(make_reg3(MOp::Feq, rd, e.fpr_of(a), e.fpr_of(b)));
      return;
    case BinOp::FCmpNe:
      e.push(make_reg3(MOp::Feq, rd, e.fpr_of(a), e.fpr_of(b)));
      e.push(make_regimm(MOp::Xori, rd, rd, 1));
      return;
    case BinOp::FCmpLt:
      e.push(make_reg3(MOp::Flt, rd, e.fpr_of(a), e.fpr_of(b)));
      return;
    case BinOp::FCmpLe:
      e.push(make_reg3(MOp::Fle, rd, e.fpr_of(a), e.fpr_of(b)));
      return;
    case BinOp::FCmpGt:
      e.push(make_reg3(MOp::Flt, rd, e.fpr_of(b), e.fpr_of(a)));
      return;
    case BinOp::FCmpGe:
      e.push(make_reg3(MOp::Fle, rd, e.fpr_of(b), e.fpr_of(a)));
      return;
    default:
      throw vc::InternalError("compare_to_reg on non-comparison");
  }
}

void branch_nonzero(Emitter& e, int reg, int label) {
  e.push_branch(make_reg3(MOp::Bne, 0, reg, e.desc().zero_gpr), label);
}

/// Integer compares fuse directly into beq/bne/blt/bge (swapping operands
/// for gt/le); float compares materialize into the scratch register and
/// branch on it being nonzero.
void branch_cmp(Emitter& e, BinOp op, VReg a, VReg b, int label) {
  const auto fused = [&](MOp branch, VReg lhs, VReg rhs) {
    e.push_branch(make_reg3(branch, 0, e.gpr_of(lhs), e.gpr_of(rhs)), label);
  };
  switch (op) {
    case BinOp::ICmpEq: fused(MOp::Beq, a, b); break;
    case BinOp::ICmpNe: fused(MOp::Bne, a, b); break;
    case BinOp::ICmpLt: fused(MOp::Blt, a, b); break;
    case BinOp::ICmpGe: fused(MOp::Bge, a, b); break;
    case BinOp::ICmpGt: fused(MOp::Blt, b, a); break;
    case BinOp::ICmpLe: fused(MOp::Bge, b, a); break;
    default:
      compare_to_reg(e, op, a, b, e.desc().scratch_gpr0);
      branch_nonzero(e, e.desc().scratch_gpr0, label);
      break;
  }
}

/// No indexed loads: scale the index with slli, add the base register
/// explicitly, and finish with a d-form access.
void access_indexed(Emitter& e, MOp dform, int value_reg, int index_reg,
                    const std::string& sym, std::uint32_t elem_bytes) {
  const mach::TargetDesc& d = e.desc();
  e.push(make_regimm(MOp::Slli, d.scratch_gpr0, index_reg,
                     elem_bytes == 8 ? 3 : 2));
  if (e.small_data()) {
    // address = gp + scaled index; the displacement carries sym's
    // small-data offset via the reloc.
    e.push(make_reg3(MOp::Add, d.scratch_gpr0, d.data_base, d.scratch_gpr0));
    e.push_reloc(make_regimm(dform, value_reg, d.scratch_gpr0, 0), sym, 0);
  } else {
    e.load_global_address(d.scratch_gpr1, sym, 0);
    e.push(make_reg3(MOp::Add, d.scratch_gpr0, d.scratch_gpr1,
                     d.scratch_gpr0));
    e.push(make_regimm(dform, value_reg, d.scratch_gpr0, 0));
  }
}

}  // namespace

const mach::Lowering rv32_lowering = {
    .hi_op = MOp::Lui,
    .lo_op = MOp::Addi,
    .hi_shift = 12,
    // +0x800 makes the sign-extended 12-bit low part recombine exactly.
    .hi_round = 0x800,
    .hi_reloc = mach::RelocKind::AbsHi20,
    .lo_reloc = mach::RelocKind::AbsLo12,
    .shl_op = MOp::Sll,
    .shr_op = MOp::Sra,
    .compare_to_reg = &compare_to_reg,
    .branch_cmp = &branch_cmp,
    .branch_nonzero = &branch_nonzero,
    .access_indexed = &access_indexed,
};

}  // namespace vc::targets
