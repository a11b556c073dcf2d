#include "mach/codegen.hpp"

#include <algorithm>

namespace vc::mach {

std::size_t AsmFunction::label_pos(int label) const {
  for (const auto& [l, pos] : labels)
    if (l == label) return pos;
  throw InternalError("unknown label");
}

MachineFunction finalize(const AsmFunction& asm_fn) {
  MachineFunction out;
  out.name = asm_fn.name;
  out.frame_bytes = asm_fn.frame_bytes;
  out.code.reserve(asm_fn.ops.size());
  for (std::size_t i = 0; i < asm_fn.ops.size(); ++i) {
    const AsmOp& op = asm_fn.ops[i];
    MInstr ins = op.ins;
    if (op.target_label >= 0) {
      const std::size_t target = asm_fn.label_pos(op.target_label);
      ins.disp = static_cast<std::int32_t>(target) -
                 static_cast<std::int32_t>(i);
    }
    if (!op.reloc_sym.empty())
      out.relocs.push_back(
          Reloc{i, op.reloc_sym, op.reloc_addend, op.reloc_kind});
    out.code.push_back(ins);
  }
  for (const AnnotEntry& a : asm_fn.annots) {
    AnnotEntry e = a;
    // Clamp annotations that fall at the very end of the function.
    if (e.addr >= out.code.size() && !out.code.empty())
      e.addr = static_cast<std::uint32_t>(out.code.size() - 1);
    out.annots.push_back(std::move(e));
  }
  return out;
}

int remove_self_moves(AsmFunction& fn) {
  std::vector<AsmOp> kept;
  std::vector<std::size_t> new_index(fn.ops.size() + 1, 0);
  int removed = 0;
  for (std::size_t i = 0; i < fn.ops.size(); ++i) {
    new_index[i] = kept.size();
    const MInstr& m = fn.ops[i].ins;
    const bool self_move = (m.op == MOp::Mr || m.op == MOp::Fmr) &&
                           m.rd == m.ra && fn.ops[i].target_label < 0;
    if (self_move) {
      ++removed;
      continue;
    }
    kept.push_back(fn.ops[i]);
  }
  new_index[fn.ops.size()] = kept.size();
  if (removed == 0) return 0;
  for (auto& [label, pos] : fn.labels) pos = new_index[pos];
  for (auto& a : fn.annots) a.addr = static_cast<std::uint32_t>(new_index[a.addr]);
  fn.ops = std::move(kept);
  return removed;
}

}  // namespace vc::mach
