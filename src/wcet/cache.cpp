#include "wcet/cache.hpp"

#include <algorithm>
#include <compare>

namespace vc::wcet {
namespace {

/// One line held by an abstract must-cache, with its maximal age (0-based;
/// below the associativity by invariant). `set` is the line's cache set,
/// kept beside it so that a set's lines sort next to each other.
struct LineAge {
  std::uint32_t set = 0;
  std::uint32_t line = 0;
  std::uint32_t age = 0;

  [[nodiscard]] std::uint64_t key() const { return key_of(set, line); }
  static std::uint64_t key_of(std::uint32_t set, std::uint32_t line) {
    return (static_cast<std::uint64_t>(set) << 32) | line;
  }
};

/// A must-cache as one flat buffer of lines sorted by (set, line): a line
/// is guaranteed present iff it has an entry.
using MustCache = std::vector<LineAge>;

/// Abstract must-state, one cache per space: instruction (0) and data (1).
struct MustState {
  bool reachable = false;
  MustCache lines[2];
};

/// Index of the first entry of `cache` whose key is not below `key`.
std::size_t position(const MustCache& cache, std::uint64_t key) {
  return static_cast<std::size_t>(
      std::lower_bound(
          cache.begin(), cache.end(), key,
          [](const LineAge& e, std::uint64_t k) { return e.key() < k; }) -
      cache.begin());
}

bool contains(const MustCache& cache, std::uint32_t set, std::uint32_t line) {
  const std::size_t i = position(cache, LineAge::key_of(set, line));
  return i < cache.size() && cache[i].line == line && cache[i].set == set;
}

/// dst := dst ⊔ src: the lines present in both, at the older age. A linear
/// merge that rewrites dst in place. Returns whether dst changed.
bool join_into(MustState* dst, const MustState& src) {
  if (!src.reachable) return false;
  if (!dst->reachable) {
    *dst = src;
    return true;
  }
  bool changed = false;
  for (int space = 0; space < 2; ++space) {
    MustCache& d = dst->lines[space];
    const MustCache& s = src.lines[space];
    std::size_t out = 0;
    std::size_t j = 0;
    for (const LineAge& e : d) {
      const std::uint64_t key = e.key();
      while (j < s.size() && s[j].key() < key) ++j;
      if (j == s.size() || s[j].key() != key) {
        changed = true;  // absent from src: dropped
        continue;
      }
      LineAge kept = e;
      if (s[j].age > kept.age) {
        kept.age = s[j].age;
        changed = true;
      }
      d[out++] = kept;
    }
    d.erase(d.begin() + static_cast<std::ptrdiff_t>(out), d.end());
  }
  return changed;
}

/// One abstract access event: either a precise line or an imprecise range.
struct Event {
  int space = 0;  // 0 = instruction fetch, 1 = data
  bool precise = false;
  std::uint32_t line = 0;  // precise only
  /// Precise: the line's set. Imprecise: the set of the range's first line.
  std::uint32_t set = 0;
  /// Imprecise: the number of lines the range covers. Consecutive lines map
  /// to consecutive sets, so the touched sets are `span` sets from `set` on
  /// (modulo the set count), or every set once span reaches the set count.
  std::uint64_t span = 0;
  int daccess_index = -1;  // index into values.accesses
  int iline_index = -1;    // index into result ilines[block]
};

/// Per scope and cache space, one set the scope touches: how many distinct
/// lines its precise accesses load there, and whether an imprecise access
/// may pollute it.
struct SetFootprint {
  std::uint32_t set = 0;
  std::uint32_t lines = 0;
  bool polluted = false;
};

struct ScopeFootprint {
  bool fully_polluted[2] = {false, false};
  std::vector<SetFootprint> sets[2];  // sorted by set
};

class CacheAnalyzer {
 public:
  CacheAnalyzer(const Cfg& cfg, const ValueAnalysisResult& values,
                const mach::CacheConfig& icfg, const mach::CacheConfig& dcfg)
      : cfg_(cfg), values_(values), cache_{icfg, dcfg} {}

  CacheAnalysisResult run() {
    build_events();
    fixpoint();
    classify();
    persistence();
    return std::move(result_);
  }

 private:
  void build_events() {
    const std::size_t n = cfg_.blocks.size();
    result_.ilines.assign(n, {});
    result_.daccess.assign(values_.accesses.size(), AccessClass{});
    event_begin_.assign(n + 1, 0);

    // The data access recorded at each instruction (-1: none), over every
    // block's instructions in turn. Of two accesses recorded at one
    // instruction the later one wins.
    std::vector<std::size_t> first_instr(n + 1, 0);
    for (std::size_t b = 0; b < n; ++b)
      first_instr[b + 1] = first_instr[b] + cfg_.blocks[b].instrs.size();
    std::vector<int> access_at(first_instr[n], -1);
    for (std::size_t a = 0; a < values_.accesses.size(); ++a) {
      const MemAccess& acc = values_.accesses[a];
      access_at[first_instr[static_cast<std::size_t>(acc.block)] +
                static_cast<std::size_t>(acc.index)] = static_cast<int>(a);
    }

    const mach::CacheConfig& icfg = cache_[0];
    const mach::CacheConfig& dcfg = cache_[1];
    for (std::size_t b = 0; b < n; ++b) {
      event_begin_[b] = static_cast<int>(events_.size());
      const MachineBlock& bb = cfg_.blocks[b];
      std::uint32_t prev_line = 0xFFFFFFFF;
      for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
        const std::uint32_t addr = bb.start + static_cast<std::uint32_t>(i) * 4;
        const std::uint32_t line = icfg.line_addr(addr);
        if (line != prev_line) {
          prev_line = line;
          Event ev;
          ev.space = 0;
          ev.precise = true;
          ev.line = line;
          ev.set = icfg.set_of(line);
          ev.iline_index = static_cast<int>(result_.ilines[b].size());
          ILineEvent ie;
          ie.line_addr = line;
          ie.first_instr = static_cast<int>(i);
          result_.ilines[b].push_back(ie);
          events_.push_back(ev);
        }
        const int access = access_at[first_instr[b] + i];
        if (access < 0) continue;
        const MemAccess& acc =
            values_.accesses[static_cast<std::size_t>(access)];
        Event ev;
        ev.space = 1;
        ev.daccess_index = access;
        if (auto c = acc.address.as_constant()) {
          ev.precise = true;
          ev.line = dcfg.line_addr(static_cast<std::uint32_t>(*c));
          ev.set = dcfg.set_of(ev.line);
        } else {
          const std::uint32_t lo = dcfg.line_addr(static_cast<std::uint32_t>(
              std::max<std::int64_t>(acc.address.lo(), 0)));
          const std::uint32_t hi = dcfg.line_addr(static_cast<std::uint32_t>(
              std::min<std::int64_t>(acc.address.hi(), 0xFFFFFFFFll)));
          ev.precise = false;
          ev.set = dcfg.set_of(lo);
          ev.span =
              (static_cast<std::uint64_t>(hi) - lo) / dcfg.line_bytes + 1;
        }
        events_.push_back(ev);
      }
    }
    event_begin_[n] = static_cast<int>(events_.size());
  }

  [[nodiscard]] const Event* events_begin(std::size_t b) const {
    return events_.data() + event_begin_[b];
  }
  [[nodiscard]] const Event* events_end(std::size_t b) const {
    return events_.data() + event_begin_[b + 1];
  }

  /// True if the imprecise event `ev` may touch cache set `set`.
  [[nodiscard]] bool touches(const Event& ev, std::uint32_t set) const {
    const std::uint32_t sets = cache_[ev.space].sets;
    if (ev.span >= sets) return true;
    return (set + sets - ev.set) % sets < ev.span;
  }

  void transfer_event(const Event& ev, MustState* s) const {
    const std::uint32_t ways = cache_[ev.space].ways;
    MustCache& cache = s->lines[ev.space];
    if (!ev.precise) {
      // Imprecise access: every possibly-touched set ages by one, and a
      // line whose age reaches the associativity is evicted.
      std::size_t out = 0;
      for (LineAge e : cache) {
        if (touches(ev, e.set) && ++e.age >= ways) continue;
        cache[out++] = e;
      }
      cache.erase(cache.begin() + static_cast<std::ptrdiff_t>(out),
                  cache.end());
      return;
    }
    // The accessed line's set is one run of the sorted buffer.
    const std::size_t first = position(cache, LineAge::key_of(ev.set, 0));
    std::size_t last = first;
    std::size_t hit = cache.size();
    for (; last < cache.size() && cache[last].set == ev.set; ++last)
      if (cache[last].line == ev.line) hit = last;
    const std::uint32_t old_age = hit != cache.size() ? cache[hit].age : ways;
    // Lines of the set younger than the accessed line age by one; the
    // accessed line becomes the youngest. Compact the run over evictions,
    // then insert a missing line at its sorted place (into the capacity an
    // eviction freed, if any).
    std::size_t out = first;
    std::size_t insert_at = first;
    for (std::size_t i = first; i < last; ++i) {
      LineAge e = cache[i];
      if (i == hit)
        e.age = 0;
      else if (e.age < old_age && ++e.age >= ways)
        continue;
      if (e.line < ev.line) insert_at = out + 1;
      cache[out++] = e;
    }
    const bool missing = hit == cache.size();
    cache.erase(cache.begin() + static_cast<std::ptrdiff_t>(out),
                cache.begin() + static_cast<std::ptrdiff_t>(last));
    if (missing)
      cache.insert(cache.begin() + static_cast<std::ptrdiff_t>(insert_at),
                   LineAge{ev.set, ev.line, 0});
  }

  /// Worklist fixpoint: only a block whose in-state changed is transferred
  /// again, lowest block index first. The transfer is monotone over a
  /// finite lattice, so the least fixpoint, and with it every class, does
  /// not depend on the visit order.
  void fixpoint() {
    const std::size_t n = cfg_.blocks.size();
    in_.assign(n, MustState{});
    if (n == 0) return;
    in_[0].reachable = true;
    std::vector<char> pending(n, 0);
    pending[0] = 1;
    std::size_t b = 0;
    while (true) {
      while (b < n && pending[b] == 0) ++b;
      if (b == n) break;
      pending[b] = 0;
      out_ = in_[b];
      for (const Event* ev = events_begin(b); ev != events_end(b); ++ev)
        transfer_event(*ev, &out_);
      std::size_t resume = b + 1;
      for (int succ : cfg_.blocks[b].succs) {
        const auto s = static_cast<std::size_t>(succ);
        if (join_into(&in_[s], out_)) {
          pending[s] = 1;
          resume = std::min(resume, s);
        }
      }
      b = resume;
    }
  }

  void classify() {
    for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
      if (!in_[b].reachable) continue;
      out_ = in_[b];
      for (const Event* ev = events_begin(b); ev != events_end(b); ++ev) {
        const bool hit =
            ev->precise && contains(out_.lines[ev->space], ev->set, ev->line);
        AccessClass cls;
        cls.cls = hit ? CacheClass::AlwaysHit : CacheClass::Miss;
        class_of(b, *ev) = cls;
        transfer_event(*ev, &out_);
      }
    }
  }

  AccessClass& class_of(std::size_t b, const Event& ev) {
    if (ev.space == 1)
      return result_.daccess[static_cast<std::size_t>(ev.daccess_index)];
    return result_.ilines[b][static_cast<std::size_t>(ev.iline_index)].cls;
  }

  /// The footprint of one scope (a loop, or every block for the function
  /// scope). Lines that only imprecise accesses may load are left out of
  /// the counts: their sets are polluted, which already fails the fit test.
  [[nodiscard]] ScopeFootprint footprint(const std::vector<int>& blocks) const {
    struct Touch {
      std::uint32_t set = 0;
      std::uint32_t line = 0;
      bool polluting = false;
      auto operator<=>(const Touch&) const = default;
    };
    ScopeFootprint fp;
    std::vector<Touch> touched[2];
    for (int b : blocks) {
      const auto block = static_cast<std::size_t>(b);
      for (const Event* ev = events_begin(block); ev != events_end(block);
           ++ev) {
        const std::uint32_t sets = cache_[ev->space].sets;
        if (ev->precise)
          touched[ev->space].push_back({ev->set, ev->line, false});
        else if (ev->span >= sets)
          fp.fully_polluted[ev->space] = true;
        else
          for (std::uint64_t k = 0; k < ev->span; ++k)
            touched[ev->space].push_back(
                {static_cast<std::uint32_t>((ev->set + k) % sets), 0, true});
      }
    }
    for (int space = 0; space < 2; ++space) {
      std::vector<Touch>& t = touched[space];
      std::sort(t.begin(), t.end());
      t.erase(std::unique(t.begin(), t.end()), t.end());
      for (const Touch& x : t) {
        auto& sets = fp.sets[space];
        if (sets.empty() || sets.back().set != x.set)
          sets.push_back({x.set, 0, false});
        if (x.polluting)
          sets.back().polluted = true;
        else
          ++sets.back().lines;
      }
    }
    return fp;
  }

  /// The classic fit test: `set` of `space` holds at most `ways` distinct
  /// lines within the scope, none of them possibly loaded imprecisely.
  [[nodiscard]] bool persistent_in(const ScopeFootprint& fp, int space,
                                   std::uint32_t set) const {
    if (fp.fully_polluted[space]) return false;
    const auto& sets = fp.sets[space];
    const auto it = std::lower_bound(
        sets.begin(), sets.end(), set,
        [](const SetFootprint& s, std::uint32_t v) { return s.set < v; });
    if (it == sets.end() || it->set != set) return true;
    return !it->polluted && it->lines <= cache_[space].ways;
  }

  void persistence() {
    // Footprints indexed by scope + 1: the function scope (-1) first, then
    // every loop.
    std::vector<ScopeFootprint> fp;
    fp.reserve(cfg_.loops.size() + 1);
    std::vector<int> all(cfg_.blocks.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    fp.push_back(footprint(all));
    for (const Loop& loop : cfg_.loops) fp.push_back(footprint(loop.blocks));

    // Upgrade Miss classifications to Persistent at the outermost fitting
    // scope along the access's loop-nest path.
    std::vector<int> path;  // innermost loop first, then -1 (function)
    for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
      path.clear();
      for (int l = cfg_.loop_of[b]; l != -1;
           l = cfg_.loops[static_cast<std::size_t>(l)].parent)
        path.push_back(l);
      path.push_back(-1);
      for (const Event* ev = events_begin(b); ev != events_end(b); ++ev) {
        if (!ev->precise) continue;
        AccessClass& cls = class_of(b, *ev);
        if (cls.cls != CacheClass::Miss) continue;
        for (auto scope = path.rbegin(); scope != path.rend(); ++scope) {
          if (persistent_in(fp[static_cast<std::size_t>(*scope + 1)],
                            ev->space, ev->set)) {
            cls.cls = CacheClass::Persistent;
            cls.scope = *scope;
            break;
          }
        }
      }
    }
  }

  const Cfg& cfg_;
  const ValueAnalysisResult& values_;
  mach::CacheConfig cache_[2];  // instruction, data
  CacheAnalysisResult result_;
  /// Every block's events in one buffer: block b's are
  /// events_[event_begin_[b] .. event_begin_[b + 1]).
  std::vector<Event> events_;
  std::vector<int> event_begin_;
  std::vector<MustState> in_;
  MustState out_;  // transfer buffer, reused across blocks
};

}  // namespace

CacheAnalysisResult analyze_caches(const Cfg& cfg,
                                   const ValueAnalysisResult& values,
                                   const mach::MachineConfig& config) {
  return CacheAnalyzer(cfg, values, config.icache, config.dcache).run();
}

}  // namespace vc::wcet
