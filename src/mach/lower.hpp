// The shared RTL -> machine emitter: the one instruction-selection skeleton
// every target compiles through. It owns the frame layout (prologue,
// epilogue, stack slots), the allocator-color and argument-register maps,
// small-data and absolute global access, and the dispatcher over every RTL
// opcode. A target supplies only what its instruction set does differently,
// as the `Lowering` table below, which its descriptor points to
// (TargetDesc::lower; the full list of what a new target provides is in
// mach/target.hpp).
//
// Integer negate, complement and remainder need no hook: the emitter uses
// the target's neg / nor / rem when its op table marks them legal and a
// generic expansion (through the zero and scratch registers) otherwise.
#pragma once

#include <cstdint>
#include <string>

#include "mach/codegen.hpp"

namespace vc::mach {

class Emitter;

/// A target's instruction-selection table. Descriptor validation rejects a
/// table with a null hook or an opcode the target cannot execute.
struct Lowering {
  // --- Opcode and relocation choices --------------------------------------
  /// A constant outside the short-immediate range is `hi_op rd, hi` then,
  /// when the low part is nonzero, `lo_op rd, rd, v - (hi << hi_shift)`,
  /// where hi = (v + hi_round) >> hi_shift. The rounding lets a target whose
  /// lo_op sign-extends recombine exactly.
  MOp hi_op = MOp::Nop;
  MOp lo_op = MOp::Nop;
  int hi_shift = 16;
  std::int32_t hi_round = 0;
  /// An absolute address is hi_op with `hi_reloc`, then an addi or d-form
  /// access with `lo_reloc`.
  RelocKind hi_reloc = RelocKind::DataDisp;
  RelocKind lo_reloc = RelocKind::DataDisp;
  MOp shl_op = MOp::Nop;  // variable shift left
  MOp shr_op = MOp::Nop;  // variable arithmetic shift right

  // --- Code hooks ---------------------------------------------------------
  /// GPR rd <- 1 if (a op b) holds, else 0, for every comparison BinOp.
  void (*compare_to_reg)(Emitter& e, minic::BinOp op, rtl::VReg a,
                         rtl::VReg b, int rd) = nullptr;
  /// Branches to `label` if (a op b) holds; falls through otherwise.
  void (*branch_cmp)(Emitter& e, minic::BinOp op, rtl::VReg a, rtl::VReg b,
                     int label) = nullptr;
  /// Branches to `label` if GPR `reg` is nonzero; falls through otherwise.
  void (*branch_nonzero)(Emitter& e, int reg, int label) = nullptr;
  /// `dform` (lwz/lfd/stw/stfd) of `value_reg` at sym[index_reg], for
  /// elements of `elem_bytes` (4 or 8). May clobber both scratch GPRs.
  void (*access_indexed)(Emitter& e, MOp dform, int value_reg, int index_reg,
                         const std::string& sym,
                         std::uint32_t elem_bytes) = nullptr;
};

MInstr make_regimm(MOp op, int rd, int ra, std::int32_t imm);
MInstr make_reg3(MOp op, int rd, int ra, int rb);

/// Lowers one allocated RTL function. The public members are the building
/// blocks a target's hooks emit with.
class Emitter {
 public:
  Emitter(const rtl::Function& fn, const regalloc::Allocation& alloc,
          DataLayout& layout, const TargetDesc& desc,
          const EmitOptions& options);

  AsmFunction run();

  [[nodiscard]] const TargetDesc& desc() const { return desc_; }
  [[nodiscard]] bool small_data() const { return options_.small_data_area; }
  /// The machine register holding an allocated vreg.
  [[nodiscard]] int gpr_of(rtl::VReg v) const;
  [[nodiscard]] int fpr_of(rtl::VReg v) const;

  void push(MInstr ins);
  void push_reloc(MInstr ins, const std::string& sym, std::int32_t addend,
                  RelocKind kind = RelocKind::DataDisp);
  void push_branch(MInstr ins, int label);
  /// Materializes the address of sym+addend into `reg`.
  void load_global_address(int reg, const std::string& sym,
                           std::int32_t addend);

 private:
  /// gpr_of or fpr_of, by the class the use expects.
  [[nodiscard]] int reg_of(rtl::VReg v, rtl::RegClass cls) const;
  [[nodiscard]] int param_reg(int index) const;
  void move(rtl::RegClass cls, int rd, int rs);
  void load_imm(int rd, std::int32_t value);
  void access_global(MOp dform, int value_reg, const std::string& sym,
                     std::int32_t addend);
  void emit(const rtl::Instr& ins);
  void emit_unary(const rtl::Instr& ins);
  void emit_binary(const rtl::Instr& ins);

  const rtl::Function& fn_;
  const regalloc::Allocation& alloc_;
  DataLayout& layout_;
  const TargetDesc& desc_;
  const Lowering& lower_;
  EmitOptions options_;
  AsmFunction out_;
};

}  // namespace vc::mach
