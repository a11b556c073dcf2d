// Machine functions, relocations, annotation tables, and the linker that
// produces an executable image for the simulator and the WCET analyzer.
//
// Memory layout (fixed, like the embedded target's linker script):
//   code    at kCodeBase,  contiguous, one function after another;
//   data    at kDataBase,  all globals then the f64 constant pool;
//   stack   grows down from kStackTop (the harness seeds r1);
//   LR      is seeded with kStopAddr; `blr` from the outermost frame stops
//           the simulator.
// r2 holds kDataBase for the whole run (TOC-style addressing), so every
// global/constant access is a single d-form load/store with a 16-bit
// displacement.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "minic/ast.hpp"
#include "mach/isa.hpp"

namespace vc::mach {

/// Final location of an annotation operand (paper §3.4: "machine register,
/// stack slot or global symbol").
struct MLoc {
  enum class Kind { Gpr, Fpr, StackSlot };
  Kind kind = Kind::Gpr;
  int index = 0;            // register number
  std::int32_t offset = 0;  // StackSlot: byte offset from the *entry* r1
  bool is_f64 = false;      // StackSlot element type

  [[nodiscard]] std::string to_string() const;
};

/// One entry of the auto-generated annotation file consumed by the WCET
/// analyzer. `addr` is the address of the instruction that follows the
/// annotation point (annotations emit no code).
struct AnnotEntry {
  std::uint32_t addr = 0;
  std::string format;
  std::vector<MLoc> operands;
};

/// A fixup against the final address of `sym` plus `addend` bytes
/// (sym == "$cpool" refers to the constant pool):
///   DataDisp — imm := data-segment offset (small-data base addressing);
///   AbsHa    — imm := high half of the absolute address, adjusted so that a
///              following sign-extended low half reconstructs it (@ha);
///   AbsLo    — imm := signed low half of the absolute address (@l);
///   AbsHi20  — imm := upper 20 bits, adjusted for a sign-extended 12-bit
///              low part (lui %hi);
///   AbsLo12  — imm := signed low 12 bits of the absolute address (%lo).
enum class RelocKind { DataDisp, AbsHa, AbsLo, AbsHi20, AbsLo12 };

struct Reloc {
  std::size_t instr_index = 0;
  std::string sym;
  std::int32_t addend = 0;
  RelocKind kind = RelocKind::DataDisp;
};

struct MachineFunction {
  std::string name;
  std::vector<MInstr> code;  // branch displacements already resolved (words)
  std::vector<Reloc> relocs;
  std::vector<AnnotEntry> annots;  // addr holds an instruction *index* here
  std::uint32_t frame_bytes = 0;
};

/// Data segment layout: globals first (in declaration order), then the f64
/// constant pool. Built once per program; codegen appends pool constants.
class DataLayout {
 public:
  explicit DataLayout(const minic::Program& program);

  /// Byte offset (within the data segment) of element `elem` of `sym`.
  [[nodiscard]] std::uint32_t offset_of(const std::string& sym,
                                        std::int32_t elem) const;
  /// Element size in bytes of `sym` (4 for i32, 8 for f64).
  [[nodiscard]] std::uint32_t elem_size(const std::string& sym) const;

  /// Registers an f64 constant (deduplicated); returns its pool byte offset
  /// relative to the pool base (use sym "$cpool" in relocations).
  std::uint32_t add_const(double value);

  [[nodiscard]] std::uint32_t pool_base() const { return globals_size_; }
  [[nodiscard]] std::uint32_t total_size() const {
    return globals_size_ + static_cast<std::uint32_t>(pool_.size()) * 8;
  }

  /// Initial contents of the data segment (big-endian, like the target).
  [[nodiscard]] std::vector<std::uint8_t> initial_bytes() const;

  /// Name -> data-segment byte offset for every global.
  [[nodiscard]] std::map<std::string, std::uint32_t> global_offsets() const;

 private:
  struct GlobalInfo {
    std::uint32_t offset = 0;
    std::uint32_t elem_size = 0;
    std::uint32_t count = 0;
  };
  std::vector<minic::Global> decls_;  // copied: layouts outlive programs
  std::map<std::string, GlobalInfo> globals_;
  std::uint32_t globals_size_ = 0;
  std::vector<double> pool_;
  std::map<std::uint64_t, std::uint32_t> pool_index_;
};

struct Image {
  static constexpr std::uint32_t kCodeBase = 0x00001000;
  static constexpr std::uint32_t kDataBase = 0x00100000;
  static constexpr std::uint32_t kStackTop = 0x00200000;
  static constexpr std::uint32_t kStopAddr = 0xDEAD0000;

  /// Name of the target the image was compiled for (self-describing: the
  /// simulator and WCET analyzer resolve their descriptor from it). Empty
  /// means the registry's default target (pre-tag images).
  std::string target;

  std::vector<std::uint32_t> words;       // encoded code at kCodeBase
  std::vector<std::uint8_t> data_init;    // initial data segment
  std::map<std::string, std::uint32_t> fn_entry;   // function entry addresses
  std::map<std::string, std::uint32_t> fn_end;     // one past last instr
  std::map<std::string, std::uint32_t> global_addr;
  std::vector<AnnotEntry> annotations;    // absolute addresses

  [[nodiscard]] std::uint32_t code_size_bytes() const {
    return static_cast<std::uint32_t>(words.size()) * 4;
  }
  [[nodiscard]] std::uint32_t code_size_of(const std::string& fn) const;
  /// [entry, end) of `fn`'s code. Throws CompileError naming `fn` and
  /// listing the image's functions if the image has no such function.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> fn_range(
      const std::string& fn) const;

  /// Decodes the word at `addr` (must be within the code segment).
  [[nodiscard]] MInstr fetch(std::uint32_t addr) const;

  /// Full disassembly listing with annotations interleaved.
  [[nodiscard]] std::string disassemble() const;
};

/// Links machine functions against a data layout into an executable image.
/// Throws InternalError if the data segment exceeds the 16-bit displacement
/// range or a symbol is undefined.
Image link(const std::vector<MachineFunction>& fns, const DataLayout& layout);

}  // namespace vc::mach
