#include "wcet/wcet.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "mach/target.hpp"
#include "support/strings.hpp"
#include "wcet/annotations.hpp"
#include "wcet/cache.hpp"
#include "wcet/cfg.hpp"
#include "wcet/ipet.hpp"
#include "wcet/value_analysis.hpp"

namespace vc::wcet {

std::optional<WcetEngine> parse_wcet_engine(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kWcetEngineNames); ++i)
    if (name == kWcetEngineNames[i]) return static_cast<WcetEngine>(i);
  return std::nullopt;
}

using mach::MInstr;
using mach::MOp;

namespace {

// ---------------------------------------------------------------------------
// Loop bound analysis
// ---------------------------------------------------------------------------

/// Tries to derive a bound for the canonical counted loop: an in-loop
/// conditional exit whose compare tests a counter register against a limit,
/// where the counter is incremented by exactly 1 per iteration.
std::optional<std::int64_t> derive_bound(const Cfg& cfg,
                                         const ValueAnalysisResult& values,
                                         const Loop& loop) {
  const std::set<int> members(loop.blocks.begin(), loop.blocks.end());

  for (const auto& [exit_from, exit_to] : loop.exits) {
    const MachineBlock& bb = cfg.blocks[static_cast<std::size_t>(exit_from)];
    if (!mach::is_cond_branch(bb.instrs.back().op)) continue;
    auto fact_it = values.compare_facts.find(exit_from);
    if (fact_it == values.compare_facts.end()) continue;
    const auto& fact = fact_it->second;
    const MInstr& bc = bb.instrs.back();
    const auto cond = mach::branch_condition(bc);
    if (!cond) continue;

    // Determine the relation that holds on the *stay-in-loop* edge.
    // succs[0] is the taken edge, succs[1] the fall-through.
    const int stay_succ_index = bb.succs[0] == exit_to ? 1 : 0;
    if (bb.succs[static_cast<std::size_t>(stay_succ_index)] == exit_to)
      continue;  // both edges leave: not the pattern
    const bool stay_when_true = (stay_succ_index == 0) == cond->when_true;
    const int rel = cond->rel;

    // Stay relation must be "counter < limit" or "counter <= limit".
    bool counter_is_lhs = true;
    bool strict = true;
    if (rel == mach::kLt && stay_when_true) {
      counter_is_lhs = true;  // lhs < rhs
      strict = true;
    } else if (rel == mach::kGt && stay_when_true) {
      counter_is_lhs = false;  // lhs > rhs, i.e. rhs < lhs: counter is rhs
      strict = true;
    } else if (rel == mach::kGt && !stay_when_true) {
      counter_is_lhs = true;  // stay when !(lhs > rhs): lhs <= rhs
      strict = false;
    } else if (rel == mach::kLt && !stay_when_true) {
      counter_is_lhs = false;  // stay when !(lhs < rhs): rhs <= lhs
      strict = false;
    } else {
      continue;
    }

    const int counter = counter_is_lhs ? fact.lhs_reg : fact.rhs_reg;
    const Interval limit =
        counter_is_lhs ? fact.rhs_at_test : fact.lhs_at_test;
    if (counter < 0 || limit.is_bottom()) continue;
    if (limit.hi() > 1'000'000'000ll) continue;  // unbounded limit

    // The counter must be incremented by exactly +1 once per iteration:
    // exactly one in-loop definition, of the form addi C,C,1 or
    // add C,C,X / add C,X,C with X == 1, or the uncoalesced
    // add T,C,X ; mr C,T pair.
    int defs = 0;
    bool step_ok = false;
    int reads[mach::IssueModel::kMaxResourcesPerInstr];
    int writes[mach::IssueModel::kMaxResourcesPerInstr];
    int n_reads = 0;
    int n_writes = 0;
    // Is `reg` exactly 1 just before instruction `i` of block `b`? The last
    // in-block definition wins; with no in-block definition, fall back to the
    // value analysis' block-entry interval — CSE hoists the step constant out
    // of the loop, so a same-block `li reg, 1` is not guaranteed to exist.
    const auto reg_is_one = [&](const MachineBlock& mb, int b, std::size_t i,
                                int reg) {
      int r2[mach::IssueModel::kMaxResourcesPerInstr];
      int w2[mach::IssueModel::kMaxResourcesPerInstr];
      int nr2 = 0;
      int nw2 = 0;
      for (std::size_t j = i; j > 0; --j) {
        const MInstr& def = mb.instrs[j - 1];
        mach::IssueModel::resources(def, r2, &nr2, w2, &nw2);
        for (int k = 0; k < nw2; ++k)
          if (w2[k] == reg) return def.op == MOp::Li && def.imm == 1;
      }
      const Interval& iv =
          values.block_in[static_cast<std::size_t>(b)].gpr[reg];
      return !iv.is_bottom() && iv.lo() == 1 && iv.hi() == 1;
    };
    for (int b : loop.blocks) {
      const MachineBlock& mb = cfg.blocks[static_cast<std::size_t>(b)];
      for (std::size_t i = 0; i < mb.instrs.size(); ++i) {
        const MInstr& m = mb.instrs[i];
        mach::IssueModel::resources(m, reads, &n_reads, writes, &n_writes);
        bool writes_counter = false;
        for (int k = 0; k < n_writes; ++k)
          if (writes[k] == counter) writes_counter = true;
        if (!writes_counter) continue;
        ++defs;
        if (m.op == MOp::Addi && m.rd == counter && m.ra == counter &&
            m.imm == 1) {
          step_ok = true;
        } else if (m.op == MOp::Add && m.rd == counter &&
                   (m.ra == counter || m.rb == counter)) {
          const int other = m.ra == counter ? m.rb : m.ra;
          if (reg_is_one(mb, b, i, other)) step_ok = true;
        } else if (m.op == MOp::Mr && m.rd == counter) {
          // mr C,T after add T,C,1-ish: accept if the source was computed as
          // C + 1 in the same block.
          const int t = m.ra;
          for (std::size_t j = 0; j < i; ++j) {
            const MInstr& def = mb.instrs[j];
            if (def.op == MOp::Addi && def.rd == t && def.ra == counter &&
                def.imm == 1) {
              step_ok = true;
            } else if (def.op == MOp::Add && def.rd == t &&
                       (def.ra == counter || def.rb == counter)) {
              const int other = def.ra == counter ? def.rb : def.ra;
              if (reg_is_one(mb, b, j, other)) step_ok = true;
            }
          }
        }
      }
    }
    if (defs != 1 || !step_ok) continue;

    // Initial counter interval: join over entry edges into the header.
    Interval init = Interval::bottom();
    for (int p : cfg.blocks[static_cast<std::size_t>(loop.header)].preds) {
      if (members.count(p) != 0) continue;  // back edge
      auto es = values.edge_out.find({p, loop.header});
      if (es == values.edge_out.end() || !es->second.reachable)
        continue;
      init = init.join(es->second.gpr[counter]);
    }
    if (init.is_bottom()) continue;

    const std::int64_t trips =
        limit.hi() - init.lo() + (strict ? 0 : 1);
    return std::max<std::int64_t>(trips, 0);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Block timing
// ---------------------------------------------------------------------------

std::uint64_t block_base_cost(const MachineBlock& bb,
                              const std::vector<ILineEvent>& ilines,
                              const std::vector<const AccessClass*>& daccess,
                              const mach::TargetDesc& desc,
                              const mach::MachineConfig& machine,
                              bool reachable) {
  mach::IssueModel pipe(desc);
  pipe.reset();
  int reads[mach::IssueModel::kMaxResourcesPerInstr];
  int writes[mach::IssueModel::kMaxResourcesPerInstr];
  int n_reads = 0;
  int n_writes = 0;
  std::size_t iline_next = 0;
  std::size_t dacc_next = 0;

  for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
    const MInstr& m = bb.instrs[i];
    std::uint32_t fetch_stall = 0;
    if (iline_next < ilines.size() &&
        ilines[iline_next].first_instr == static_cast<int>(i)) {
      if (ilines[iline_next].cls.cls == CacheClass::Miss)
        fetch_stall = machine.miss_penalty;
      ++iline_next;
    }
    std::uint32_t extra_mem = 0;
    if (mach::is_memory_op(m.op)) {
      if (dacc_next < daccess.size()) {
        if (daccess[dacc_next]->cls == CacheClass::Miss)
          extra_mem = machine.miss_penalty;
        ++dacc_next;
      } else {
        // The value analysis records no accesses for blocks it proves
        // unreachable (e.g. an annotation-guarded error arm). Charging the
        // full miss penalty keeps the cost sound regardless; the mismatch
        // is only an invariant violation on reachable blocks.
        check(!reachable, "data access bookkeeping mismatch");
        extra_mem = machine.miss_penalty;
      }
    }
    mach::IssueModel::resources(m, reads, &n_reads, writes, &n_writes);
    pipe.issue(m, reads, n_reads, writes, n_writes, extra_mem, fetch_stall);
    if (mach::is_branch(m.op)) {
      pipe.drain();
      pipe.add_stall(machine.taken_branch_penalty);
    }
  }
  pipe.drain();
  return pipe.current_cycle();
}

// ---------------------------------------------------------------------------
// Structural IPET: longest path over the loop nest
// ---------------------------------------------------------------------------

struct PathContext {
  const Cfg& cfg;
  const std::vector<std::uint64_t>& block_cost;
  const std::vector<std::int64_t>& loop_bound;       // per loop index
  const std::vector<std::uint64_t>& loop_ps_charge;  // per loop index
};

std::uint64_t loop_wcet(const PathContext& ctx, int loop_index);

/// Longest path through a region (a set of blocks with inner loops already
/// collapsed), from `source` to every block; returns the distance map.
/// `region_loop` is the loop whose body we traverse (-1 for the whole
/// function); its back edges to `header` are ignored.
std::map<int, std::uint64_t> longest_paths(const PathContext& ctx,
                                           int region_loop, int source) {
  const Cfg& cfg = ctx.cfg;
  std::set<int> members;
  if (region_loop == -1) {
    for (std::size_t i = 0; i < cfg.blocks.size(); ++i)
      members.insert(static_cast<int>(i));
  } else {
    const auto& blocks = cfg.loops[static_cast<std::size_t>(region_loop)].blocks;
    members.insert(blocks.begin(), blocks.end());
  }

  // A block is a "node" of this region if it belongs to the region and its
  // innermost containing loop within the region is either the region itself
  // or it is the header of an immediate inner loop (which represents the
  // whole collapsed inner loop).
  auto inner_loop_of = [&](int b) -> int {
    int l = cfg.loop_of[static_cast<std::size_t>(b)];
    // Walk up until the parent is the region loop.
    while (l != -1 && cfg.loops[static_cast<std::size_t>(l)].parent !=
                          region_loop)
      l = cfg.loops[static_cast<std::size_t>(l)].parent;
    return l;  // -1 means the block sits directly in the region
  };

  auto node_of = [&](int b) -> int {
    const int l = inner_loop_of(b);
    if (l == -1) return b;  // plain block
    return cfg.loops[static_cast<std::size_t>(l)].header;  // collapsed rep
  };

  auto node_cost = [&](int node) -> std::uint64_t {
    const int l = inner_loop_of(node);
    if (l == -1) return ctx.block_cost[static_cast<std::size_t>(node)];
    return loop_wcet(ctx, l);
  };

  // Build the collapsed edge list.
  std::map<int, std::vector<int>> edges;  // node -> successor nodes
  std::map<int, int> indegree;
  std::set<int> nodes;
  const int header =
      region_loop == -1
          ? -1
          : cfg.loops[static_cast<std::size_t>(region_loop)].header;
  for (int b : members) {
    const int from_node = node_of(b);
    nodes.insert(from_node);
    const int from_inner = inner_loop_of(b);
    for (int s : cfg.blocks[static_cast<std::size_t>(b)].succs) {
      if (members.count(s) == 0) continue;   // leaves the region
      if (s == header) continue;             // region back edge
      const int to_node = node_of(s);
      if (from_node == to_node) continue;    // intra-collapsed edge
      // Only keep edges that actually leave the collapsed inner loop.
      if (from_inner != -1) {
        const auto& inner =
            cfg.loops[static_cast<std::size_t>(from_inner)].blocks;
        if (std::find(inner.begin(), inner.end(), s) != inner.end()) continue;
      }
      edges[from_node].push_back(to_node);
      ++indegree[to_node];
      nodes.insert(to_node);
    }
  }

  // Topological longest path.
  std::map<int, std::uint64_t> dist;
  const int source_node = node_of(source);
  dist[source_node] = node_cost(source_node);
  std::vector<int> ready;
  for (int nd : nodes)
    if (indegree[nd] == 0) ready.push_back(nd);
  std::size_t processed = 0;
  while (!ready.empty()) {
    const int nd = ready.back();
    ready.pop_back();
    ++processed;
    auto dit = dist.find(nd);
    if (dit != dist.end()) {
      for (int s : edges[nd]) {
        const std::uint64_t cand = dit->second + node_cost(s);
        auto [sit, inserted] = dist.emplace(s, cand);
        if (!inserted) sit->second = std::max(sit->second, cand);
      }
    }
    for (int s : edges[nd])
      if (--indegree[s] == 0) ready.push_back(s);
  }
  if (processed != nodes.size())
    throw WcetError("cycle in collapsed region graph (irreducible flow?)");
  return dist;
}

std::uint64_t loop_wcet(const PathContext& ctx, int loop_index) {
  const Loop& loop = ctx.cfg.loops[static_cast<std::size_t>(loop_index)];
  const std::map<int, std::uint64_t> dist =
      longest_paths(ctx, loop_index, loop.header);

  auto dist_to = [&](int b) -> std::uint64_t {
    // The block may be collapsed into an inner loop header node.
    auto it = dist.find(b);
    if (it != dist.end()) return it->second;
    int l = ctx.cfg.loop_of[static_cast<std::size_t>(b)];
    while (l != -1) {
      auto hit = dist.find(ctx.cfg.loops[static_cast<std::size_t>(l)].header);
      if (hit != dist.end()) return hit->second;
      l = ctx.cfg.loops[static_cast<std::size_t>(l)].parent;
    }
    return 0;
  };

  std::uint64_t per_iter = 0;
  for (int latch : loop.latches)
    per_iter = std::max(per_iter, dist_to(latch));
  std::uint64_t exit_path = 0;
  for (const auto& [from, to] : loop.exits)
    exit_path = std::max(exit_path, dist_to(from));

  const auto bound = static_cast<std::uint64_t>(
      std::max<std::int64_t>(ctx.loop_bound[static_cast<std::size_t>(loop_index)], 0));
  return bound * per_iter + exit_path +
         ctx.loop_ps_charge[static_cast<std::size_t>(loop_index)];
}

/// The loop bounds as the engines index them (by cfg.loops position).
std::vector<std::int64_t> loop_bounds(const FunctionAnalysis& analysis) {
  std::vector<std::int64_t> bounds;
  bounds.reserve(analysis.loops.size());
  for (const LoopBoundInfo& info : analysis.loops) bounds.push_back(info.bound);
  return bounds;
}

}  // namespace

BlockCosts cost_blocks(const FunctionAnalysis& analysis, bool cache_analysis) {
  const Cfg& cfg = analysis.cfg;
  const ValueAnalysisResult& values = analysis.values;
  const mach::MachineConfig& machine = analysis.machine;
  BlockCosts costs;
  costs.cache_analysis = cache_analysis;
  CacheAnalysisResult& caches = costs.caches;
  if (cache_analysis) {
    caches = analyze_caches(cfg, values, machine);
  } else {
    // Everything is a miss.
    caches.ilines.assign(cfg.blocks.size(), {});
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      const MachineBlock& bb = cfg.blocks[b];
      std::uint32_t prev_line = 0xFFFFFFFF;
      for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
        const std::uint32_t addr =
            bb.start + static_cast<std::uint32_t>(i) * 4;
        const std::uint32_t line = machine.icache.line_addr(addr);
        if (line != prev_line) {
          prev_line = line;
          ILineEvent ev;
          ev.line_addr = line;
          ev.first_instr = static_cast<int>(i);
          ev.cls = AccessClass{CacheClass::Miss, -1};
          caches.ilines[b].push_back(ev);
        }
      }
    }
    caches.daccess.assign(values.accesses.size(),
                          AccessClass{CacheClass::Miss, -1});
  }

  // Per-block base costs plus per-execution (Miss) cache charges; collect
  // persistence charges per scope.
  costs.block_cost.assign(cfg.blocks.size(), 0);
  costs.loop_ps_charge.assign(cfg.loops.size(), 0);

  // Group data-access classes per block in instruction order.
  std::vector<std::vector<const AccessClass*>> dacc_by_block(cfg.blocks.size());
  for (std::size_t i = 0; i < values.accesses.size(); ++i)
    dacc_by_block[static_cast<std::size_t>(values.accesses[i].block)]
        .push_back(&caches.daccess[i]);

  auto charge_persistent = [&](const AccessClass& cls) {
    if (cls.cls != CacheClass::Persistent) return;
    if (cls.scope == -1)
      costs.function_ps_charge += machine.miss_penalty;
    else
      costs.loop_ps_charge[static_cast<std::size_t>(cls.scope)] +=
          machine.miss_penalty;
  };

  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    costs.block_cost[b] =
        block_base_cost(cfg.blocks[b], caches.ilines[b], dacc_by_block[b],
                        *analysis.desc, machine, values.block_in[b].reachable);
    for (const ILineEvent& ev : caches.ilines[b]) charge_persistent(ev.cls);
  }
  for (const AccessClass& cls : caches.daccess) charge_persistent(cls);
  return costs;
}

FunctionAnalysis analyze_function(const mach::Image& image,
                                  const std::string& fn_name,
                                  const WcetOptions& options) {
  return analyze_function(image, fn_name, build_cfg(image, fn_name), options);
}

FunctionAnalysis analyze_function(const mach::Image& image,
                                  const std::string& fn_name, Cfg cfg_in,
                                  const WcetOptions& options) {
  FunctionAnalysis analysis;
  analysis.fn_name = fn_name;
  analysis.desc = &mach::target_by_name(
      image.target.empty() ? mach::default_target_name() : image.target);
  analysis.machine =
      options.machine ? *options.machine : analysis.desc->machine;

  analysis.cfg = std::move(cfg_in);
  const Cfg& cfg = analysis.cfg;
  AnnotIndex annots;
  if (options.use_annotations) {
    const auto [lo, hi] = image.fn_range(fn_name);
    annots = index_annotations(image, lo, hi);
  }
  analysis.warnings = annots.warnings;

  analysis.values = analyze_values(cfg, annots, *analysis.desc);
  analysis.costs = cost_blocks(analysis, options.cache_analysis);

  // Loop bounds: annotations take effect on the innermost loop containing
  // the annotation point; automatic derivation refines them.
  std::vector<std::int64_t> loop_bound(cfg.loops.size(), -1);
  std::vector<bool> bound_from_annot(cfg.loops.size(), false);
  std::vector<bool> bound_derived(cfg.loops.size(), false);
  for (const auto& [addr, n] : annots.loop_bounds) {
    const int b = cfg.block_containing(addr);
    if (b < 0) continue;
    const int l = cfg.loop_of[static_cast<std::size_t>(b)];
    if (l < 0) {
      analysis.warnings.push_back("loop annotation at " + hex32(addr) +
                                  " is outside any loop");
      continue;
    }
    auto& bound = loop_bound[static_cast<std::size_t>(l)];
    if (bound < 0 || n < bound) {
      bound = n;
      bound_from_annot[static_cast<std::size_t>(l)] = true;
    }
  }
  for (std::size_t l = 0; l < cfg.loops.size(); ++l) {
    const auto derived = derive_bound(cfg, analysis.values, cfg.loops[l]);
    if (derived) {
      bound_derived[l] = true;
      if (loop_bound[l] < 0 || *derived < loop_bound[l]) {
        loop_bound[l] = *derived;
        bound_from_annot[l] = false;
      }
    }
  }
  for (std::size_t l = 0; l < cfg.loops.size(); ++l) {
    if (loop_bound[l] < 0)
      throw WcetError(
          "no bound for loop headed at " +
          hex32(cfg.blocks[static_cast<std::size_t>(cfg.loops[l].header)]
                    .start) +
          " in " + fn_name + " (annotation required)");
    LoopBoundInfo info;
    info.header_addr =
        cfg.blocks[static_cast<std::size_t>(cfg.loops[l].header)].start;
    info.bound = loop_bound[l];
    info.from_annotation = bound_from_annot[l];
    info.derived = bound_derived[l];
    analysis.loops.push_back(info);
  }
  return analysis;
}

// Path analysis: both engines consume the same CFG, bounds, costs, and
// persistence charges — they differ only in how they maximize over paths.

std::uint64_t structural_wcet(const FunctionAnalysis& analysis,
                              const BlockCosts& costs) {
  const std::vector<std::int64_t> bounds = loop_bounds(analysis);
  const PathContext ctx{analysis.cfg, costs.block_cost, bounds,
                        costs.loop_ps_charge};
  const std::map<int, std::uint64_t> dist = longest_paths(ctx, -1, 0);
  std::uint64_t best = 0;
  for (const auto& [node, d] : dist) best = std::max(best, d);
  return best + costs.function_ps_charge;
}

IpetInfo ipet_wcet(const FunctionAnalysis& analysis) {
  const BlockCosts& costs = analysis.costs;
  return analyze_ipet(analysis.cfg, analysis.values, loop_bounds(analysis),
                      costs.block_cost, costs.loop_ps_charge,
                      costs.function_ps_charge, analysis.fn_name);
}

WcetResult analyze_wcet(const FunctionAnalysis& analysis, WcetEngine engine) {
  WcetResult result;
  result.loops = analysis.loops;
  result.warnings = analysis.warnings;
  for (std::size_t b = 0; b < analysis.cfg.blocks.size(); ++b)
    result.block_costs.emplace_back(analysis.cfg.blocks[b].start,
                                    analysis.costs.block_cost[b]);
  if (engine != WcetEngine::Ipet) {
    result.structural_cycles = structural_wcet(analysis, analysis.costs);
    result.wcet_cycles = *result.structural_cycles;
  }
  if (engine != WcetEngine::Structural) {
    result.ipet = ipet_wcet(analysis);
    // The IPET bound is the selected bound whenever it ran: it is exact for
    // the constraint system, so it is never looser than the structural
    // over-approximation of the same system.
    result.wcet_cycles = result.ipet->wcet_cycles;
  }
  return result;
}

WcetResult analyze_wcet(const mach::Image& image, const std::string& fn_name,
                        const WcetOptions& options) {
  return analyze_wcet(analyze_function(image, fn_name, options),
                      options.engine);
}

}  // namespace vc::wcet
