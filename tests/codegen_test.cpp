// Backend tests: emission structure, addressing modes (small-data vs
// absolute), peephole rewrites (semantic preservation + actual firing), the
// list scheduler (dependence preservation), linking, and disassembly.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "mach/target.hpp"
#include "machine/machine.hpp"
#include "minic/interp.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace vc {
namespace {

using minic::Value;
using mach::MOp;

minic::Program parse(const std::string& src) {
  minic::Program p = minic::parse_program(src);
  minic::type_check(p);
  return p;
}

int count_pop(const mach::Image& image, MOp op) {
  int n = 0;
  for (std::uint32_t w : image.words)
    if (mach::decode(w).op == op) ++n;
  return n;
}

TEST(Codegen, SmallDataVsAbsoluteAddressing) {
  const auto program = parse(R"(
    global f64 g = 1.5;
    func f64 f(f64 x) { g = g + x; return g; }
  )");
  const auto sda = driver::compile_program(program, driver::Config::O2Full);
  const auto abs = driver::compile_program(program, driver::Config::Verified);
  // The verified configuration pays lis (@ha) instructions; SDA does not.
  EXPECT_EQ(count_pop(sda.image, MOp::Lis), 0);
  EXPECT_GT(count_pop(abs.image, MOp::Lis), 0);
  EXPECT_LT(sda.image.code_size_bytes(), abs.image.code_size_bytes());
  // Both compute the same result.
  machine::Machine m1(sda.image);
  machine::Machine m2(abs.image);
  const Value r1 = m1.call("f", {Value::of_f64(2.25)}, minic::Type::F64);
  const Value r2 = m2.call("f", {Value::of_f64(2.25)}, minic::Type::F64);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, Value::of_f64(3.75));
}

TEST(Codegen, PeepholeFusesMultiplyAdd) {
  const auto program = parse(R"(
    func f64 mac(f64 a, f64 b, f64 c) {
      return a * b + c;
    }
  )");
  const auto o2 = driver::compile_program(program, driver::Config::O2Full);
  const auto verified =
      driver::compile_program(program, driver::Config::Verified);
  EXPECT_GE(count_pop(o2.image, MOp::Fmadd), 1);
  EXPECT_EQ(count_pop(verified.image, MOp::Fmadd), 0);
  // Fusion preserves the (unfused, double-rounded) result.
  machine::Machine m1(o2.image);
  machine::Machine m2(verified.image);
  Rng rng(4);
  for (int t = 0; t < 20; ++t) {
    const std::vector<Value> args{Value::of_f64(rng.next_double(-1e3, 1e3)),
                                  Value::of_f64(rng.next_double(-1e3, 1e3)),
                                  Value::of_f64(rng.next_double(-1e3, 1e3))};
    ASSERT_EQ(m1.call("mac", args, minic::Type::F64),
              m2.call("mac", args, minic::Type::F64));
  }
}

TEST(Codegen, PeepholeFoldsImmediates) {
  const auto program = parse(R"(
    func i32 f(i32 x) {
      local i32 i; local i32 s;
      s = 0;
      for (i = 0; i < 9; i = i + 1) { s = s + x; }
      return s;
    }
  )");
  const auto o2 = driver::compile_program(program, driver::Config::O2Full);
  // The loop increment should fold into addi under O2.
  EXPECT_GE(count_pop(o2.image, MOp::Addi), 1);
  machine::Machine m(o2.image);
  EXPECT_EQ(m.call("f", {Value::of_i32(3)}, minic::Type::I32),
            Value::of_i32(27));
}

TEST(Codegen, SchedulerPreservesSemantics) {
  // Two interleavable chains; O2's scheduler reorders within blocks.
  const auto program = parse(R"(
    global f64 out1 = 0.0;
    global f64 out2 = 0.0;
    func void twochains(f64 a, f64 b) {
      local f64 x; local f64 y;
      x = a * a;
      x = x * a;
      x = x * a;
      y = b + b;
      y = y + b;
      y = y + b;
      out1 = x;
      out2 = y;
    }
  )");
  const auto o2 = driver::compile_program(program, driver::Config::O2Full);
  machine::Machine m(o2.image);
  minic::Interpreter interp(program);
  Rng rng(8);
  for (int t = 0; t < 10; ++t) {
    const std::vector<Value> args{Value::of_f64(rng.next_double(-4, 4)),
                                  Value::of_f64(rng.next_double(-4, 4))};
    interp.call("twochains", args);
    m.call("twochains", args, minic::Type::I32);
    ASSERT_EQ(interp.read_global("out1"),
              m.read_global("out1", 0, minic::Type::F64));
    ASSERT_EQ(interp.read_global("out2"),
              m.read_global("out2", 0, minic::Type::F64));
  }
}

TEST(Codegen, ConstantPoolIsDeduplicated) {
  const auto program = parse(R"(
    func f64 f(f64 x) {
      return (x * 2.5) + (x / 2.5) - 2.5;
    }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::Verified);
  // 2.5 appears three times in the source but once in the pool; the data
  // segment holds exactly one 8-byte constant (no globals declared).
  EXPECT_EQ(compiled.image.data_init.size(), 8u);
}

TEST(Linker, FunctionLayoutAndSymbols) {
  const auto program = parse(R"(
    global f64 a = 1.0;
    global i32 b[3] = {1, 2, 3};
    func f64 one() { return a; }
    func i32 two() { return b[1]; }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::O2Full);
  const mach::Image& image = compiled.image;
  EXPECT_EQ(image.fn_entry.at("one"), mach::Image::kCodeBase);
  EXPECT_EQ(image.fn_entry.at("two"), image.fn_end.at("one"));
  EXPECT_EQ(image.global_addr.at("a"), mach::Image::kDataBase);
  EXPECT_EQ(image.global_addr.at("b"), mach::Image::kDataBase + 8);
  // Initializers are big-endian in the data image.
  EXPECT_EQ(image.data_init[8 + 3], 1);   // b[0] low byte
  EXPECT_EQ(image.data_init[12 + 3], 2);  // b[1]
  machine::Machine m(image);
  EXPECT_EQ(m.call("two", {}, minic::Type::I32), Value::of_i32(2));
}

TEST(Disassembly, ListsFunctionsAndAnnotations) {
  const auto program = parse(R"(
    func i32 f(i32 x) {
      __annot("0 <= %1 <= 7", x);
      return x + 1;
    }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::Verified);
  const std::string listing = compiled.image.disassemble();
  EXPECT_NE(listing.find("f:"), std::string::npos);
  EXPECT_NE(listing.find("# annotation: 0 <= %1 <= 7"), std::string::npos);
  EXPECT_NE(listing.find("blr"), std::string::npos);
}

TEST(Codegen, EveryBlockEndsInABranch) {
  // The timing-composability invariant: no fall-through into a leader.
  const auto nodes_program = parse(R"(
    func f64 f(f64 x, i32 m) {
      local f64 r;
      local i32 i;
      r = 0.0;
      for (i = 0; i < 5; i = i + 1) {
        if (m > i) { r = r + x; } else { r = r - x; }
      }
      return r;
    }
  )");
  for (driver::Config config : driver::kAllConfigs) {
    const auto compiled = driver::compile_program(nodes_program, config);
    // Decode and verify: an instruction followed by a branch target must be
    // a branch itself. Collect branch targets first.
    std::vector<mach::MInstr> instrs;
    for (std::uint32_t w : compiled.image.words)
      instrs.push_back(mach::decode(w));
    std::set<std::size_t> leaders;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      if (instrs[i].op == MOp::B || instrs[i].op == MOp::Bc)
        leaders.insert(i + static_cast<std::size_t>(instrs[i].disp));
    }
    for (std::size_t leader : leaders) {
      if (leader == 0) continue;
      const MOp prev = instrs[leader - 1].op;
      EXPECT_TRUE(prev == MOp::B || prev == MOp::Bc || prev == MOp::Blr)
          << "fall-through into leader at index " << leader << " under "
          << driver::to_string(config);
    }
  }
}

TEST(Codegen, FrameBeyondImmediateRangeIsRejectedOnEveryTarget) {
  // O0 gives every local its own 8-byte stack slot: 4100 of them need a
  // frame past both targets' addi immediates. The shared prologue must
  // reject it by name instead of emitting an unencodable stack adjustment.
  std::string src = "func i32 big(i32 x) {\n";
  for (int i = 0; i < 4100; ++i)
    src += "  local i32 v" + std::to_string(i) + ";\n";
  for (int i = 0; i < 4100; ++i)
    src += "  v" + std::to_string(i) + " = x + " + std::to_string(i) + ";\n";
  src += "  return v0 + v4099;\n}\n";
  const auto program = parse(src);
  for (const std::string& target : mach::target_names()) {
    driver::CompileOptions options;
    options.target = target;
    try {
      driver::compile_program(program, driver::Config::O0Pattern, options);
      ADD_FAILURE() << target << ": oversized frame accepted";
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find("stack frame too large"),
                std::string::npos)
          << target << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace vc
