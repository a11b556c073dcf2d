// PPC instruction selection for the shared emitter: compares go through the
// condition register (cmpw/fcmpu [+ cror], then bc or mfcr+rlwinm), wide
// constants and absolute addresses are lis @ha / @l pairs, and indexed
// array accesses use the x-form loads and stores.
#include "mach/lower.hpp"
#include "targets/ppc/target.hpp"

namespace vc::targets {
namespace {

using mach::Emitter;
using mach::make_reg3;
using mach::make_regimm;
using mach::MInstr;
using mach::MOp;
using minic::BinOp;
using rtl::VReg;

/// CR bit indices (whole-CR numbering): integer compares use cr0, float
/// compares cr1; cr1's FU bit doubles as the cror scratch bit.
constexpr int kCr0Lt = 0, kCr0Gt = 1, kCr0Eq = 2;
constexpr int kCr1Lt = 4, kCr1Gt = 5, kCr1Eq = 6, kCr1Scratch = 7;

struct CmpPlan {
  bool is_float = false;
  int bit = 0;        // CR bit to test after the compare (and optional cror)
  bool expect = true; // branch/set when CR[bit] == expect
  bool need_cror = false;
  int cror_a = 0, cror_b = 0;  // OR'ed into kCr1Scratch when need_cror
};

CmpPlan plan_compare(BinOp op) {
  CmpPlan p;
  switch (op) {
    case BinOp::ICmpEq: p.bit = kCr0Eq; p.expect = true; break;
    case BinOp::ICmpNe: p.bit = kCr0Eq; p.expect = false; break;
    case BinOp::ICmpLt: p.bit = kCr0Lt; p.expect = true; break;
    case BinOp::ICmpGe: p.bit = kCr0Lt; p.expect = false; break;
    case BinOp::ICmpGt: p.bit = kCr0Gt; p.expect = true; break;
    case BinOp::ICmpLe: p.bit = kCr0Gt; p.expect = false; break;
    case BinOp::FCmpEq: p.is_float = true; p.bit = kCr1Eq; p.expect = true; break;
    case BinOp::FCmpNe: p.is_float = true; p.bit = kCr1Eq; p.expect = false; break;
    case BinOp::FCmpLt: p.is_float = true; p.bit = kCr1Lt; p.expect = true; break;
    case BinOp::FCmpGt: p.is_float = true; p.bit = kCr1Gt; p.expect = true; break;
    case BinOp::FCmpLe:
      p.is_float = true; p.need_cror = true;
      p.cror_a = kCr1Lt; p.cror_b = kCr1Eq;
      p.bit = kCr1Scratch; p.expect = true;
      break;
    case BinOp::FCmpGe:
      p.is_float = true; p.need_cror = true;
      p.cror_a = kCr1Gt; p.cror_b = kCr1Eq;
      p.bit = kCr1Scratch; p.expect = true;
      break;
    default:
      throw vc::InternalError("plan_compare on non-comparison");
  }
  return p;
}

/// Emits cmpw/fcmpu (+ cror) for `op` on vregs a, b; returns the plan.
CmpPlan emit_compare(Emitter& e, BinOp op, VReg a, VReg b) {
  const CmpPlan p = plan_compare(op);
  if (p.is_float) {
    MInstr c;
    c.op = MOp::Fcmpu;
    c.crf = 1;
    c.ra = static_cast<std::uint8_t>(e.fpr_of(a));
    c.rb = static_cast<std::uint8_t>(e.fpr_of(b));
    e.push(c);
    if (p.need_cror) {
      MInstr r;
      r.op = MOp::Cror;
      r.crbd = kCr1Scratch;
      r.crba = static_cast<std::uint8_t>(p.cror_a);
      r.crbb = static_cast<std::uint8_t>(p.cror_b);
      e.push(r);
    }
  } else {
    MInstr c;
    c.op = MOp::Cmpw;
    c.crf = 0;
    c.ra = static_cast<std::uint8_t>(e.gpr_of(a));
    c.rb = static_cast<std::uint8_t>(e.gpr_of(b));
    e.push(c);
  }
  return p;
}

/// Branches to `label` when CR[bit] == expect.
void branch_on_crbit(Emitter& e, int bit, bool expect, int label) {
  MInstr bc;
  bc.op = MOp::Bc;
  bc.crbit = static_cast<std::uint8_t>(bit);
  bc.expect = expect;
  e.push_branch(bc, label);
}

/// Materializes the compare into rd as 0/1 (mfcr + rlwinm [+ xori]).
void compare_to_reg(Emitter& e, BinOp op, VReg a, VReg b, int rd) {
  const CmpPlan p = emit_compare(e, op, a, b);
  const int scratch = e.desc().scratch_gpr0;
  e.push(make_regimm(MOp::Mfcr, scratch, 0, 0));
  MInstr rl;
  rl.op = MOp::Rlwinm;
  rl.rd = static_cast<std::uint8_t>(rd);
  rl.ra = static_cast<std::uint8_t>(scratch);
  rl.sh = static_cast<std::uint8_t>(p.bit + 1);
  rl.mb = 31;
  rl.me = 31;
  e.push(rl);
  if (!p.expect) e.push(make_regimm(MOp::Xori, rd, rd, 1));
}

void branch_cmp(Emitter& e, BinOp op, VReg a, VReg b, int label) {
  const CmpPlan p = emit_compare(e, op, a, b);
  branch_on_crbit(e, p.bit, p.expect, label);
}

void branch_nonzero(Emitter& e, int reg, int label) {
  MInstr c;
  c.op = MOp::Cmpwi;
  c.crf = 0;
  c.ra = static_cast<std::uint8_t>(reg);
  c.imm = 0;
  e.push(c);
  branch_on_crbit(e, kCr0Eq, /*expect=*/false, label);
}

/// scratch <- index * elem_bytes, then an x-form access against the array
/// base.
void access_indexed(Emitter& e, MOp dform, int value_reg, int index_reg,
                    const std::string& sym, std::uint32_t elem_bytes) {
  const mach::TargetDesc& d = e.desc();
  MInstr sl;
  sl.op = MOp::Rlwinm;
  sl.rd = static_cast<std::uint8_t>(d.scratch_gpr0);
  sl.ra = static_cast<std::uint8_t>(index_reg);
  sl.sh = elem_bytes == 8 ? 3 : 2;
  sl.mb = 0;
  sl.me = elem_bytes == 8 ? 28 : 29;
  e.push(sl);
  int base_reg;
  if (e.small_data()) {
    // Fold the array offset into the index register, base off r2.
    e.push_reloc(make_regimm(MOp::Addi, d.scratch_gpr0, d.scratch_gpr0, 0),
                 sym, 0);
    base_reg = d.data_base;
  } else {
    e.load_global_address(d.scratch_gpr1, sym, 0);
    base_reg = d.scratch_gpr1;
  }
  const MOp xform = dform == MOp::Lfd    ? MOp::Lfdx
                    : dform == MOp::Stw  ? MOp::Stwx
                    : dform == MOp::Stfd ? MOp::Stfdx
                                         : MOp::Lwzx;
  e.push(make_reg3(xform, value_reg, base_reg, d.scratch_gpr0));
}

}  // namespace

const mach::Lowering ppc_lowering = {
    .hi_op = MOp::Lis,
    .lo_op = MOp::Ori,
    .hi_shift = 16,
    .hi_round = 0,
    .hi_reloc = mach::RelocKind::AbsHa,
    .lo_reloc = mach::RelocKind::AbsLo,
    .shl_op = MOp::Slw,
    .shr_op = MOp::Sraw,
    .compare_to_reg = &compare_to_reg,
    .branch_cmp = &branch_cmp,
    .branch_nonzero = &branch_nonzero,
    .access_indexed = &access_indexed,
};

}  // namespace vc::targets
