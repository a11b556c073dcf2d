// Cache-analysis tests. Through the analyzer's public pipeline: must-hit
// classification for repeated accesses, persistence scoping, imprecise
// access pollution, and agreement with the simulator's actual miss counts.
// On hand-built Cfg / ValueAnalysisResult fixtures: the must-cache semantics
// themselves (LRU eviction, join, imprecise aging, loop fixpoints).
#include <gtest/gtest.h>

#include <initializer_list>

#include "driver/compiler.hpp"
#include "machine/machine.hpp"
#include "mach/target.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "wcet/annotations.hpp"
#include "wcet/cache.hpp"
#include "wcet/cfg.hpp"
#include "wcet/value_analysis.hpp"

namespace vc {
namespace {

minic::Program parse(const std::string& src) {
  minic::Program p = minic::parse_program(src);
  minic::type_check(p);
  return p;
}

struct Analysis {
  wcet::Cfg cfg;
  wcet::ValueAnalysisResult values;
  wcet::CacheAnalysisResult caches;
};

/// Analyzes `fn` with the image target's value semantics and caches.
Analysis analyze(const driver::Compiled& compiled, const std::string& fn) {
  const mach::TargetDesc& desc = mach::target_by_name(compiled.image.target);
  Analysis a{wcet::build_cfg(compiled.image, fn), {}, {}};
  const wcet::AnnotIndex annots = wcet::index_annotations(
      compiled.image, compiled.image.fn_entry.at(fn),
      compiled.image.fn_end.at(fn));
  a.values = wcet::analyze_values(a.cfg, annots, desc);
  a.caches = wcet::analyze_caches(a.cfg, a.values, desc.machine);
  return a;
}

int count_daccess(const Analysis& a, wcet::CacheClass cls) {
  int n = 0;
  for (const auto& c : a.caches.daccess)
    if (c.cls == cls) ++n;
  return n;
}

TEST(CacheAnalysis, RepeatedAccessIsAlwaysHit) {
  // Two consecutive reads of the same global: the second must be a must-hit.
  const auto program = parse(R"(
    global f64 g = 1.0;
    func f64 f() {
      return g + g * 2.0;
    }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::O0Pattern);
  const Analysis a = analyze(compiled, "f");
  EXPECT_GE(count_daccess(a, wcet::CacheClass::AlwaysHit), 1);
  // And nothing is an unconditional per-execution miss: straight-line code
  // in a function fits the cache, so first accesses are function-persistent.
  EXPECT_EQ(count_daccess(a, wcet::CacheClass::Miss), 0);
}

TEST(CacheAnalysis, LoopBodyLinesArePersistentNotMiss) {
  const auto program = parse(R"(
    global f64 buf[16];
    func f64 f() {
      local f64 s;
      local i32 i;
      s = 0.0;
      for (i = 0; i < 16; i = i + 1) {
        s = s + buf[i];
      }
      return s;
    }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::Verified);
  const Analysis a = analyze(compiled, "f");
  // I-cache: every line event must be classified AlwaysHit or Persistent —
  // a Miss classification inside the loop would charge 30 cycles * 16.
  for (const auto& block : a.caches.ilines) {
    for (const auto& ev : block) {
      EXPECT_NE(ev.cls.cls, wcet::CacheClass::Miss);
    }
  }
  // The indexed array access has an imprecise (interval) address -> Miss by
  // classification, which is the sound choice.
  EXPECT_GE(count_daccess(a, wcet::CacheClass::Miss), 1);
}

TEST(CacheAnalysis, PersistenceScopeIsOutermost) {
  // A global accessed in a nested loop should be persistent at function
  // scope (one miss total), not per-iteration of any loop.
  const auto program = parse(R"(
    global f64 k = 2.0;
    global f64 acc = 0.0;
    func void f() {
      local i32 i; local i32 j;
      for (i = 0; i < 3; i = i + 1) {
        for (j = 0; j < 3; j = j + 1) {
          acc = acc + k;
        }
      }
    }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::Verified);
  const Analysis a = analyze(compiled, "f");
  bool found_function_scope = false;
  for (const auto& c : a.caches.daccess) {
    if (c.cls == wcet::CacheClass::Persistent && c.scope == -1)
      found_function_scope = true;
    EXPECT_NE(c.cls, wcet::CacheClass::Miss);
  }
  EXPECT_TRUE(found_function_scope);
}

TEST(CacheAnalysis, ClassificationAgreesWithSimulatedMissCounts) {
  // End-to-end agreement: on a straight-line stateful kernel, the number of
  // simulated misses (cold caches) must not exceed the analyzer's charge
  // (persistent lines + per-execution misses), for D-accesses and for
  // instruction-fetch lines alike. rv32's 2-way caches are where eviction
  // actually fires; ppc's 8-way ones rarely evict.
  const auto program = parse(R"(
    global f64 s0 = 0.0;
    global f64 s1 = 0.0;
    func f64 f(f64 x) {
      s0 = s0 * 0.9 + x;
      s1 = s1 * 0.8 + s0;
      return s0 + s1;
    }
  )");
  for (const char* target : {"ppc", "rv32"}) {
    driver::CompileOptions options;
    options.target = target;
    for (driver::Config config : driver::kAllConfigs) {
      const auto compiled = driver::compile_program(program, config, options);
      const Analysis a = analyze(compiled, "f");
      std::uint64_t charged_d = 0;
      for (const auto& c : a.caches.daccess)
        if (c.cls != wcet::CacheClass::AlwaysHit) ++charged_d;
      std::uint64_t charged_i = 0;
      for (const auto& block : a.caches.ilines)
        for (const auto& ev : block)
          if (ev.cls.cls != wcet::CacheClass::AlwaysHit) ++charged_i;
      machine::Machine m(compiled.image);
      m.call("f", {minic::Value::of_f64(1.0)}, minic::Type::F64);
      const auto d_observed = m.stats().dcache_read_misses +
                              m.stats().dcache_write_misses;
      EXPECT_GT(d_observed, 0u) << target << " " << driver::to_string(config);
      EXPECT_LE(d_observed, charged_d)
          << target << " " << driver::to_string(config);
      EXPECT_GT(m.stats().ifetch_line_misses, 0u)
          << target << " " << driver::to_string(config);
      EXPECT_LE(m.stats().ifetch_line_misses, charged_i)
          << target << " " << driver::to_string(config);
    }
  }
}

// ---------------------------------------------------------------------------
// Hand-built fixtures: the must-cache semantics on exact inputs.

constexpr mach::CacheConfig kTwoWay{128, 2, 32};    // rv32 geometry
constexpr mach::CacheConfig kEightWay{128, 8, 32};  // ppc geometry
constexpr std::uint32_t kSetStride = 128 * 32;      // same set, next tag
constexpr std::uint32_t kData = 0x20000;            // set 0, tag 32

/// One data access: the address interval [lo, hi] at instruction `index`.
struct Access {
  int block = 0;
  int index = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

Access at(int block, int index, std::uint32_t addr) {
  return {block, index, addr, addr};
}

/// A fixture function: block b has `sizes[b]` instructions, laid out one
/// block after the other from 0x1000, with successors `succs[b]`. Loops are
/// filled in by the caller where persistence scopes matter.
struct Fixture {
  wcet::Cfg cfg;
  wcet::ValueAnalysisResult values;

  Fixture(const std::vector<int>& sizes,
          const std::vector<std::vector<int>>& succs) {
    std::uint32_t addr = 0x1000;
    cfg.entry_addr = addr;
    cfg.blocks.resize(sizes.size());
    for (std::size_t b = 0; b < sizes.size(); ++b) {
      wcet::MachineBlock& block = cfg.blocks[b];
      block.start = addr;
      block.instrs.resize(static_cast<std::size_t>(sizes[b]));
      addr = block.end();
    }
    for (std::size_t b = 0; b < succs.size(); ++b)
      for (const int s : succs[b]) {
        cfg.blocks[b].succs.push_back(s);
        cfg.blocks[b].succ_addrs.push_back(
            cfg.blocks[static_cast<std::size_t>(s)].start);
        cfg.blocks[static_cast<std::size_t>(s)].preds.push_back(
            static_cast<int>(b));
      }
    cfg.loop_of.assign(sizes.size(), -1);
    values.block_in.assign(sizes.size(), wcet::AbsState{});
    for (wcet::AbsState& s : values.block_in) s.reachable = true;
  }

  void add(std::initializer_list<Access> accesses) {
    for (const Access& a : accesses) {
      wcet::MemAccess acc;
      acc.block = a.block;
      acc.index = a.index;
      acc.addr_of_instr =
          cfg.blocks[static_cast<std::size_t>(a.block)].start +
          static_cast<std::uint32_t>(a.index) * 4;
      acc.address = Interval::range(a.lo, a.hi);
      values.accesses.push_back(acc);
    }
  }

  /// The data classes, in access order, under `dcache` (the I-cache keeps
  /// the ppc geometry; instruction lines never share state with data).
  [[nodiscard]] std::vector<wcet::CacheClass> classify(
      const mach::CacheConfig& dcache) const {
    mach::MachineConfig config;
    config.dcache = dcache;
    const wcet::CacheAnalysisResult r =
        wcet::analyze_caches(cfg, values, config);
    std::vector<wcet::CacheClass> out;
    for (const wcet::AccessClass& c : r.daccess) out.push_back(c.cls);
    return out;
  }
};

constexpr auto kHit = wcet::CacheClass::AlwaysHit;
constexpr auto kMiss = wcet::CacheClass::Miss;
constexpr auto kPersistent = wcet::CacheClass::Persistent;

TEST(CacheMustState, ThirdConflictingLineEvictsTheOldestInTwoWaySets) {
  // A, B, C share set 0 of a 2-way cache. After A B C, A (the oldest) is
  // gone and B survives; the re-access of B leaves C second-youngest, so
  // the final A evicts C, not B. Three lines in a 2-way set never fit, so
  // nothing is persistent.
  const std::uint32_t a = kData, b = kData + kSetStride,
                      c = kData + 2 * kSetStride;
  Fixture f({6}, {{}});
  f.add({at(0, 0, a), at(0, 1, b), at(0, 2, c), at(0, 3, b), at(0, 4, a),
         at(0, 5, b)});
  EXPECT_EQ(f.classify(kTwoWay),
            (std::vector{kMiss, kMiss, kMiss, kHit, kMiss, kHit}));
}

TEST(CacheMustState, ReaccessRefreshesTheLineBeforeEviction) {
  // A B A C A: the middle A makes B the oldest line, so C evicts B and the
  // final A still hits. Without the refresh (A B C A) A is evicted.
  const std::uint32_t a = kData, b = kData + kSetStride,
                      c = kData + 2 * kSetStride;
  Fixture refreshed({5}, {{}});
  refreshed.add(
      {at(0, 0, a), at(0, 1, b), at(0, 2, a), at(0, 3, c), at(0, 4, a)});
  EXPECT_EQ(refreshed.classify(kTwoWay),
            (std::vector{kMiss, kMiss, kHit, kMiss, kHit}));
  Fixture stale({4}, {{}});
  stale.add({at(0, 0, a), at(0, 1, b), at(0, 2, c), at(0, 3, a)});
  EXPECT_EQ(stale.classify(kTwoWay),
            (std::vector{kMiss, kMiss, kMiss, kMiss}));
  // The 8-way geometry holds all three lines.
  EXPECT_EQ(stale.classify(kEightWay),
            (std::vector{kPersistent, kPersistent, kPersistent, kHit}));
}

/// A diamond 0 -> {1, 2} -> 3 over a 2-way cache. Both arms load A (set 0)
/// and L (set 1); the left arm alone loads B (set 2). The arm `aged_arm`
/// (1 or 2; 0 for neither) then loads X (set 0), which makes A one step
/// older on that arm only. Block 3 then reads L, B, Y (set 0, a new line)
/// and A.
std::vector<wcet::CacheClass> diamond(int aged_arm) {
  const std::uint32_t a = kData, x = kData + kSetStride,
                      y = kData + 2 * kSetStride, l = kData + 32,
                      b = kData + 64;
  Fixture f({1, 4, 3, 4}, {{1, 2}, {3}, {3}, {}});
  f.add({at(1, 0, a), at(1, 1, l), at(1, 2, b)});
  if (aged_arm == 1) f.add({at(1, 3, x)});
  f.add({at(2, 0, a), at(2, 1, l)});
  if (aged_arm == 2) f.add({at(2, 2, x)});
  f.add({at(3, 0, l), at(3, 1, b), at(3, 2, y), at(3, 3, a)});
  const std::vector<wcet::CacheClass> classes = f.classify(kTwoWay);
  return {classes.end() - 4, classes.end()};  // block 3's L, B, Y, A
}

TEST(CacheMustState, JoinKeepsLinesOnBothArmsAtTheOlderAge) {
  // L is loaded on both arms: a must-hit after the join. B is loaded on one
  // arm only: not a must-hit. A is on both arms, so it survives the join.
  // With age 1 on either arm it is evicted by Y, whichever arm's state
  // reaches the join first; with age 0 on both arms it survives Y.
  for (const int aged_arm : {1, 2}) {
    const std::vector<wcet::CacheClass> older = diamond(aged_arm);
    EXPECT_EQ(older[0], kHit) << aged_arm;   // L
    EXPECT_NE(older[1], kHit) << aged_arm;   // B
    EXPECT_EQ(older[3], kMiss) << aged_arm;  // A: evicted at the older age
  }
  const std::vector<wcet::CacheClass> same = diamond(0);
  EXPECT_EQ(same[0], kHit);
  EXPECT_NE(same[1], kHit);
  EXPECT_EQ(same[3], kHit);  // A: age 0 on both arms, Y only ages it to 1
}

TEST(CacheMustState, NarrowImpreciseAccessAgesOnlyTheSetsItTouches) {
  // A is in set 0 and P in set 5. Two imprecise accesses over sets 5..6
  // age P twice (evicted in a 2-way cache) and leave A alone.
  const std::uint32_t a = kData, p = kData + 5 * 32;
  const std::int64_t lo = kData + kSetStride + 5 * 32;
  const std::int64_t hi = lo + 2 * 32 - 1;
  Fixture f({6}, {{}});
  f.add({at(0, 0, a), at(0, 1, p), {0, 2, lo, hi}, {0, 3, lo, hi},
         at(0, 4, a), at(0, 5, p)});
  // Set 0 holds only A, so its first load is function-persistent; sets 5
  // and 6 are polluted by the imprecise accesses.
  EXPECT_EQ(f.classify(kTwoWay), (std::vector{kPersistent, kMiss, kMiss,
                                              kMiss, kHit, kMiss}));
}

TEST(CacheMustState, WideImpreciseAccessAgesEverySet) {
  // An interval spanning the set count (128 lines) may touch every set:
  // two of them evict everything from a 2-way cache.
  const std::uint32_t a = kData, p = kData + 5 * 32;
  const std::int64_t lo = kData + kSetStride;
  const std::int64_t hi = lo + 128 * 32 - 1;
  Fixture f({6}, {{}});
  f.add({at(0, 0, a), at(0, 1, p), {0, 2, lo, hi}, {0, 3, lo, hi},
         at(0, 4, a), at(0, 5, p)});
  EXPECT_EQ(f.classify(kTwoWay),
            (std::vector{kMiss, kMiss, kMiss, kMiss, kMiss, kMiss}));
}

TEST(CacheMustState, ImpreciseRangeAtTheTopOfMemoryTerminates) {
  // [0xFFFFFF00, 0xFFFFFFFF] ends at the last line of the address space and
  // spans fewer lines than there are sets: the walk over its lines must not
  // wrap past 0xFFFFFFE0.
  Fixture f({1}, {{}});
  f.add({{0, 0, 0xFFFFFF00ll, 0xFFFFFFFFll}});
  EXPECT_EQ(f.classify(kEightWay), (std::vector{kMiss}));
  EXPECT_EQ(f.classify(kTwoWay), (std::vector{kMiss}));
}

TEST(CacheMustState, LoopStateNeedsMoreThanOnePass) {
  // 0 -> 1 -> {2, 3}, 2 -> 1. The entry loads A (set 0) and Z (set 1); the
  // loop body loads X (set 0). The header's first in-state holds A at age
  // 0; one pass round the loop ages it to 1, a second evicts it. The exit
  // block's A is therefore no must-hit, while Z, untouched in the loop,
  // still is. A and X fit the 2-way set, so A is persistent at function
  // scope instead.
  const std::uint32_t a = kData, x = kData + kSetStride, z = kData + 32;
  Fixture f({2, 1, 2, 2}, {{1}, {2, 3}, {1}, {}});
  wcet::Loop loop;
  loop.header = 1;
  loop.blocks = {1, 2};
  loop.latches = {2};
  loop.exits = {{1, 3}};
  f.cfg.loops.push_back(loop);
  f.cfg.loop_of = {-1, 0, 0, -1};
  f.add({at(0, 0, a), at(0, 1, z), at(2, 0, x), at(3, 0, a), at(3, 1, z)});
  EXPECT_EQ(f.classify(kTwoWay), (std::vector{kPersistent, kPersistent,
                                              kPersistent, kPersistent,
                                              kHit}));
}

}  // namespace
}  // namespace vc
