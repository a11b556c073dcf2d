#include "mach/lower.hpp"

namespace vc::mach {

using minic::BinOp;
using minic::UnOp;
using rtl::Opcode;
using rtl::RegClass;
using rtl::VReg;

namespace {

/// The d-form load/store of one value of class `cls`.
MOp mem_op(RegClass cls, bool is_store) {
  if (cls == RegClass::F64) return is_store ? MOp::Stfd : MOp::Lfd;
  return is_store ? MOp::Stw : MOp::Lwz;
}

/// Frame offset of a stack slot: 8 bytes each, above an 8-byte header.
std::int32_t slot_offset(rtl::Slot s) {
  return 8 + 8 * static_cast<std::int32_t>(s);
}

/// The register class of a global's elements.
RegClass elem_class(std::uint32_t elem_bytes) {
  return elem_bytes == 8 ? RegClass::F64 : RegClass::I32;
}

}  // namespace

MInstr make_regimm(MOp op, int rd, int ra, std::int32_t imm) {
  MInstr m;
  m.op = op;
  m.rd = static_cast<std::uint8_t>(rd);
  m.ra = static_cast<std::uint8_t>(ra);
  m.imm = imm;
  return m;
}

MInstr make_reg3(MOp op, int rd, int ra, int rb) {
  MInstr m;
  m.op = op;
  m.rd = static_cast<std::uint8_t>(rd);
  m.ra = static_cast<std::uint8_t>(ra);
  m.rb = static_cast<std::uint8_t>(rb);
  return m;
}

Emitter::Emitter(const rtl::Function& fn, const regalloc::Allocation& alloc,
                 DataLayout& layout, const TargetDesc& desc,
                 const EmitOptions& options)
    : fn_(fn), alloc_(alloc), layout_(layout), desc_(desc),
      lower_(*desc.lower), options_(options) {}

AsmFunction Emitter::run() {
  out_.name = fn_.name;
  const std::size_t n_slots = fn_.slots.size();
  out_.frame_bytes =
      n_slots == 0
          ? 0
          : static_cast<std::uint32_t>((8 + 8 * n_slots + 15) / 16 * 16);
  // The prologue/epilogue adjust the stack pointer with one addi.
  vc::check(out_.frame_bytes <= static_cast<std::uint32_t>(desc_.imm_max),
            "stack frame too large for the target's immediates");

  if (out_.frame_bytes != 0)
    push(make_regimm(MOp::Addi, desc_.stack_ptr, desc_.stack_ptr,
                     -static_cast<std::int32_t>(out_.frame_bytes)));

  for (rtl::BlockId b = 0; b < fn_.blocks.size(); ++b) {
    out_.labels.emplace_back(static_cast<int>(b), out_.ops.size());
    for (const rtl::Instr& ins : fn_.blocks[b].instrs) emit(ins);
  }
  return std::move(out_);
}

// --- helpers ----------------------------------------------------------------

int Emitter::gpr_of(VReg v) const {
  const auto& loc = alloc_.locs[v];
  vc::check(loc.in_reg && fn_.vregs[v] == RegClass::I32,
            "expected an allocated GPR vreg");
  vc::check(loc.color < desc_.n_int_colors(), "GPR color out of range");
  return desc_.alloc_gprs[static_cast<std::size_t>(loc.color)];
}

int Emitter::fpr_of(VReg v) const {
  const auto& loc = alloc_.locs[v];
  vc::check(loc.in_reg && fn_.vregs[v] == RegClass::F64,
            "expected an allocated FPR vreg");
  vc::check(loc.color < desc_.n_float_colors(), "FPR color out of range");
  return desc_.alloc_fprs[static_cast<std::size_t>(loc.color)];
}

int Emitter::reg_of(VReg v, RegClass cls) const {
  return cls == RegClass::I32 ? gpr_of(v) : fpr_of(v);
}

int Emitter::param_reg(int index) const {
  // The index-th parameter gets the next argument register of its class.
  int gpr = desc_.first_arg_gpr;
  int fpr = desc_.first_arg_fpr;
  for (int i = 0; i < index; ++i) {
    if (fn_.params[static_cast<std::size_t>(i)].cls == RegClass::I32)
      ++gpr;
    else
      ++fpr;
  }
  const bool is_int =
      fn_.params[static_cast<std::size_t>(index)].cls == RegClass::I32;
  const int reg = is_int ? gpr : fpr;
  vc::check(is_int ? reg < desc_.first_arg_gpr + desc_.n_arg_gprs
                   : reg < desc_.first_arg_fpr + desc_.n_arg_fprs,
            "too many parameters for registers");
  return reg;
}

void Emitter::push(MInstr ins) {
  AsmOp op;
  op.ins = ins;
  out_.ops.push_back(std::move(op));
}

void Emitter::push_reloc(MInstr ins, const std::string& sym,
                         std::int32_t addend, RelocKind kind) {
  AsmOp op;
  op.ins = ins;
  op.reloc_sym = sym;
  op.reloc_addend = addend;
  op.reloc_kind = kind;
  out_.ops.push_back(std::move(op));
}

void Emitter::push_branch(MInstr ins, int label) {
  AsmOp op;
  op.ins = ins;
  op.target_label = label;
  out_.ops.push_back(std::move(op));
}

void Emitter::move(RegClass cls, int rd, int rs) {
  push(make_regimm(cls == RegClass::I32 ? MOp::Mr : MOp::Fmr, rd, rs, 0));
}

void Emitter::load_imm(int rd, std::int32_t value) {
  if (value >= desc_.imm_min && value <= desc_.imm_max) {
    push(make_regimm(MOp::Li, rd, 0, value));
    return;
  }
  // In 32-bit wrapping arithmetic, as the machine recombines the halves:
  // near INT32_MAX the rounding wraps hi negative and lo still adds back.
  const auto u = static_cast<std::uint32_t>(value);
  const auto round = static_cast<std::uint32_t>(lower_.hi_round);
  const std::int32_t hi =
      static_cast<std::int32_t>(u + round) >> lower_.hi_shift;
  const auto lo = static_cast<std::int32_t>(
      u - (static_cast<std::uint32_t>(hi) << lower_.hi_shift));
  push(make_regimm(lower_.hi_op, rd, 0, hi));
  if (lo != 0) push(make_regimm(lower_.lo_op, rd, rd, lo));
}

/// Emits a d-form global/constant-pool access. With small-data addressing
/// this is one instruction off the data base register; without it, a hi/lo
/// relocation pair through the scratch register.
void Emitter::access_global(MOp dform, int value_reg, const std::string& sym,
                            std::int32_t addend) {
  if (options_.small_data_area) {
    push_reloc(make_regimm(dform, value_reg, desc_.data_base, 0), sym, addend);
    return;
  }
  push_reloc(make_regimm(lower_.hi_op, desc_.scratch_gpr0, 0, 0), sym, addend,
             lower_.hi_reloc);
  push_reloc(make_regimm(dform, value_reg, desc_.scratch_gpr0, 0), sym,
             addend, lower_.lo_reloc);
}

void Emitter::load_global_address(int reg, const std::string& sym,
                                  std::int32_t addend) {
  if (options_.small_data_area) {
    push_reloc(make_regimm(MOp::Addi, reg, desc_.data_base, 0), sym, addend);
    return;
  }
  push_reloc(make_regimm(lower_.hi_op, reg, 0, 0), sym, addend,
             lower_.hi_reloc);
  push_reloc(make_regimm(MOp::Addi, reg, reg, 0), sym, addend,
             lower_.lo_reloc);
}

// --- main dispatcher --------------------------------------------------------

void Emitter::emit(const rtl::Instr& ins) {
  switch (ins.op) {
    case Opcode::Phi:
      // Phis are eliminated by ssa-out before instruction selection.
      throw vc::InternalError("phi instruction reached machine lowering");
    case Opcode::LdI:
      load_imm(gpr_of(ins.dst), ins.int_imm);
      return;
    case Opcode::LdF: {
      const std::uint32_t off = layout_.add_const(ins.f64_imm);
      access_global(MOp::Lfd, fpr_of(ins.dst), "$cpool",
                    static_cast<std::int32_t>(off));
      return;
    }
    case Opcode::Mov:
    case Opcode::GetParam: {
      const RegClass cls = fn_.vregs[ins.dst];
      const int src = ins.op == Opcode::Mov ? reg_of(ins.src1, cls)
                                            : param_reg(ins.param_index);
      move(cls, reg_of(ins.dst, cls), src);
      return;
    }
    case Opcode::Un:
      emit_unary(ins);
      return;
    case Opcode::Bin:
      emit_binary(ins);
      return;
    case Opcode::LoadGlobal:
    case Opcode::StoreGlobal: {
      const bool is_store = ins.op == Opcode::StoreGlobal;
      const VReg value = is_store ? ins.src1 : ins.dst;
      const std::uint32_t esz = layout_.elem_size(ins.sym);
      const RegClass cls = elem_class(esz);
      access_global(mem_op(cls, is_store), reg_of(value, cls), ins.sym,
                    static_cast<std::int32_t>(esz) * ins.elem);
      return;
    }
    case Opcode::LoadGlobalIdx:
    case Opcode::StoreGlobalIdx: {
      const bool is_store = ins.op == Opcode::StoreGlobalIdx;
      const VReg value = is_store ? ins.src1 : ins.dst;
      const VReg idx = is_store ? ins.src2 : ins.src1;
      const std::uint32_t esz = layout_.elem_size(ins.sym);
      const RegClass cls = elem_class(esz);
      lower_.access_indexed(*this, mem_op(cls, is_store), reg_of(value, cls),
                            gpr_of(idx), ins.sym, esz);
      return;
    }
    case Opcode::LoadStack:
    case Opcode::StoreStack: {
      const bool is_store = ins.op == Opcode::StoreStack;
      const VReg value = is_store ? ins.src1 : ins.dst;
      const RegClass cls = fn_.slots[ins.slot];
      push(make_regimm(mem_op(cls, is_store), reg_of(value, cls),
                       desc_.stack_ptr, slot_offset(ins.slot)));
      return;
    }
    case Opcode::Jump: {
      MInstr b;
      b.op = MOp::B;
      push_branch(b, static_cast<int>(ins.target));
      return;
    }
    case Opcode::Branch:
    case Opcode::BranchCmp: {
      if (ins.op == Opcode::Branch)
        lower_.branch_nonzero(*this, gpr_of(ins.src1),
                              static_cast<int>(ins.target));
      else
        lower_.branch_cmp(*this, ins.bin_op, ins.src1, ins.src2,
                          static_cast<int>(ins.target));
      MInstr b;
      b.op = MOp::B;
      push_branch(b, static_cast<int>(ins.target2));
      return;
    }
    case Opcode::Ret: {
      if (ins.src1 != rtl::kNoVReg) {
        const RegClass cls = fn_.vregs[ins.src1];
        const int src = reg_of(ins.src1, cls);
        const int ret = cls == RegClass::I32 ? desc_.ret_gpr : desc_.ret_fpr;
        if (src != ret) move(cls, ret, src);
      }
      if (out_.frame_bytes != 0)
        push(make_regimm(MOp::Addi, desc_.stack_ptr, desc_.stack_ptr,
                         static_cast<std::int32_t>(out_.frame_bytes)));
      MInstr blr;
      blr.op = MOp::Blr;
      push(blr);
      return;
    }
    case Opcode::Annot: {
      AnnotEntry entry;
      entry.addr = static_cast<std::uint32_t>(out_.ops.size());
      entry.format = ins.annot_format;
      for (const rtl::AnnotOperand& a : ins.annot_args) {
        MLoc loc;
        if (a.is_slot) {
          loc.kind = MLoc::Kind::StackSlot;
          loc.offset = slot_offset(a.slot) -
                       static_cast<std::int32_t>(out_.frame_bytes);
          loc.is_f64 = fn_.slots[a.slot] == RegClass::F64;
        } else if (fn_.vregs[a.vreg] == RegClass::I32) {
          loc.kind = MLoc::Kind::Gpr;
          loc.index = gpr_of(a.vreg);
        } else {
          loc.kind = MLoc::Kind::Fpr;
          loc.index = fpr_of(a.vreg);
        }
        entry.operands.push_back(loc);
      }
      out_.annots.push_back(std::move(entry));
      return;
    }
  }
  throw vc::InternalError("bad RTL opcode in codegen");
}

void Emitter::emit_unary(const rtl::Instr& ins) {
  const UnOp un = ins.un_op;
  const int rd = reg_of(ins.dst, rtl::reg_class_of(minic::result_type(un)));
  const int rs = reg_of(ins.src1, rtl::reg_class_of(minic::operand_type(un)));
  MOp op = MOp::Nop;
  switch (un) {
    case UnOp::INeg:
      if (desc_.is_legal(MOp::Neg)) {
        push(make_regimm(MOp::Neg, rd, rs, 0));
      } else {
        // rd = zero - src (subf rd, ra, rb computes rb - ra).
        push(make_reg3(MOp::Subf, rd, rs, desc_.zero_gpr));
      }
      return;
    case UnOp::INot:
      if (desc_.is_legal(MOp::Nor)) {
        push(make_reg3(MOp::Nor, rd, rs, rs));
      } else {
        // rd = -1 - src == ~src. (xori's 16-bit immediate field is unsigned
        // in the shared encoding, so xori rd, src, -1 cannot encode.)
        push(make_regimm(MOp::Li, desc_.scratch_gpr0, 0, -1));
        push(make_reg3(MOp::Subf, rd, rs, desc_.scratch_gpr0));
      }
      return;
    case UnOp::FNeg: op = MOp::Fneg; break;
    case UnOp::FAbs: op = MOp::Fabs; break;
    case UnOp::I2F: op = MOp::Icvf; break;
    case UnOp::F2I: op = MOp::Fcti; break;
    case UnOp::LNot:
      throw vc::InternalError("LNot must be expanded during lowering");
  }
  push(make_reg3(op, rd, rs, 0));
}

void Emitter::emit_binary(const rtl::Instr& ins) {
  switch (ins.bin_op) {
    case BinOp::ICmpEq: case BinOp::ICmpNe: case BinOp::ICmpLt:
    case BinOp::ICmpLe: case BinOp::ICmpGt: case BinOp::ICmpGe:
    case BinOp::FCmpEq: case BinOp::FCmpNe: case BinOp::FCmpLt:
    case BinOp::FCmpLe: case BinOp::FCmpGt: case BinOp::FCmpGe:
      lower_.compare_to_reg(*this, ins.bin_op, ins.src1, ins.src2,
                            gpr_of(ins.dst));
      return;
    case BinOp::FMin:
    case BinOp::FMax:
      throw vc::InternalError("fmin/fmax must be expanded during lowering");
    default:
      break;
  }
  // Arithmetic: result and operands share one register class.
  const RegClass cls = rtl::reg_class_of(minic::result_type(ins.bin_op));
  const int rd = reg_of(ins.dst, cls);
  const int a = reg_of(ins.src1, cls);
  const int b = reg_of(ins.src2, cls);
  MOp op = MOp::Nop;
  switch (ins.bin_op) {
    case BinOp::ISub:
      // subf rd, ra, rb computes rb - ra.
      push(make_reg3(MOp::Subf, rd, b, a));
      return;
    case BinOp::IRem:
      if (desc_.is_legal(MOp::Rem)) {
        push(make_reg3(MOp::Rem, rd, a, b));
        return;
      }
      // scratch = a / b ; scratch = scratch * b ; rd = a - scratch.
      push(make_reg3(MOp::Divw, desc_.scratch_gpr0, a, b));
      push(make_reg3(MOp::Mullw, desc_.scratch_gpr0, desc_.scratch_gpr0, b));
      push(make_reg3(MOp::Subf, rd, desc_.scratch_gpr0, a));
      return;
    case BinOp::IAdd: op = MOp::Add; break;
    case BinOp::IMul: op = MOp::Mullw; break;
    case BinOp::IDiv: op = MOp::Divw; break;
    case BinOp::IAnd: op = MOp::And; break;
    case BinOp::IOr: op = MOp::Or; break;
    case BinOp::IXor: op = MOp::Xor; break;
    case BinOp::IShl: op = lower_.shl_op; break;
    case BinOp::IShr: op = lower_.shr_op; break;
    case BinOp::FAdd: op = MOp::Fadd; break;
    case BinOp::FSub: op = MOp::Fsub; break;
    case BinOp::FMul: op = MOp::Fmul; break;
    case BinOp::FDiv: op = MOp::Fdiv; break;
    default:
      throw vc::InternalError("bad BinOp in codegen");
  }
  push(make_reg3(op, rd, a, b));
}

AsmFunction emit_function(const rtl::Function& fn,
                          const regalloc::Allocation& alloc,
                          DataLayout& layout, const TargetDesc& desc,
                          const EmitOptions& options) {
  check(desc.lower != nullptr, "target descriptor has no lowering table");
  return Emitter(fn, alloc, layout, desc, options).run();
}

}  // namespace vc::mach
