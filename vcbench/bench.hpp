// Shared pieces of the vcflight benchmark: arguments, the node pool,
// small statistics helpers, the metric sink, and the in-memory span recorder
// of the traced run.
//
// The benchmark measures every layer from outside: it times its own calls
// into each layer's public functions (run_fleet, validated_compile,
// compile_program, Machine::call, analyze_wcet and its stages, the vccd
// socket). Nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/fleet.hpp"
#include "minic/ast.hpp"

namespace vcbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string vccd;     // daemon binary (service workload)
  std::string out_dir;  // scratch + trace output, inside the checkout
};

/// One generated flight-control node: the ACG program (type-checked), its
/// step function, and its printed mini-C source.
struct Node {
  std::string name;
  vc::minic::Program program;
  std::string entry;
  std::string source;
};

/// The workload's input pool plus what building it cost.
struct Pool {
  std::vector<Node> nodes;
  double setup_s = 0.0;     // median: generate + ACG + check + print
  double generate_s = 0.0;  // median: dataflow generator + ACG lowering
  int repeats = 0;
};

/// The seed of the node programs. They come from one fixed corpus, like a
/// benchmark suite's sources, while --seed picks the execution inputs and the
/// service's request stream. With programs drawn per seed, the few heaviest
/// nodes of a 30 s run differed from seed to seed and alone moved jobs/s by
/// about 12% and p99 by about 25%.
constexpr std::uint64_t kCorpusSeed = 1;

/// Generates the corpus's first `count` nodes `repeats` times (the last
/// build is kept) so set-up time is a median, not one sample.
Pool make_pool(int count, int repeats);

/// How many times each workload builds its pool. Set-up takes only
/// 0.03-0.3 s, so one build is at the mercy of a few slow milliseconds.
constexpr int kSetupRepeats = 9;

/// Fleet units for pool[begin, end) (indices wrap around the pool). Each
/// unit's input seed is pinned to its pool index, so chunking a campaign
/// never changes a record.
std::vector<vc::driver::FleetUnit> pool_units(const Pool& pool,
                                              std::uint64_t seed,
                                              std::size_t begin,
                                              std::size_t end);

/// The timed phase of every workload repeats one fixed pass and reports
/// medians over the passes; the medians need at least kMinPasses of them,
/// however slow the host.
constexpr int kMinPasses = 3;

/// Whether to start pass number `done` (0-based) of a timed phase that
/// began at `start`: only if, at the mean pass time so far, it ends within
/// --seconds.
bool another_pass(Clock::time_point start, int done, const Args& args);

// --- statistics -------------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);
/// Geometric mean of positive values (0 when empty).
double geomean(const std::vector<double>& values);

// --- metrics ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // observations behind the value
};

/// Metrics by name plus the operation counters of the final JSON line.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // output-check failures, first few kept

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  void fail(const std::string& what);
};

/// A record is a failed operation when it is not ok, carries an uncertified
/// IPET bound, has a bound below its observed cycles, or saw a monitor
/// violation. Returns the reason, or empty when the record passes.
std::string record_problem(const vc::driver::FleetRecord& record,
                           bool wcet_ran, bool ipet_ran);

/// Counts each record as an operation and fails the ones record_problem
/// rejects.
void check_records(const std::vector<vc::driver::FleetRecord>& records,
                   bool wcet_ran, Result* out);

// The generated-code quality ratios cover the pool's first kQualityNodes
// nodes on every workload, executed for kQualityCycles cold-cache cycles
// (enough to observe near-worst paths) and bounded by both WCET engines.
constexpr int kQualityNodes = 64;
constexpr int kQualityCycles = 30;

/// The four generated-code quality ratios (Table 1 / §3.3 shape) over
/// `records`, which hold every (unit, config) pair of a unit-major run over
/// `configs`: code size, observed cycles and WCET of verified over
/// O0-pattern, and IPET bound over observed cycles.
void quality_metrics(const std::vector<vc::driver::FleetRecord>& records,
                     const std::vector<vc::driver::Config>& configs,
                     Result* out);

/// Untimed: runs the quality nodes under O0-pattern and verified with the
/// quality settings on top of `base` (target, SSA, workers), checks the
/// records, and sets the quality ratios.
void quality_pass(const Pool& pool, std::uint64_t seed,
                  vc::driver::FleetOptions base, Result* out);

/// Peak resident set of this process, in MiB.
double self_peak_rss_mb();

// --- tracing ----------------------------------------------------------------

/// In-memory spans of the traced run, written as Chrome trace-event JSON at
/// exit. A span's self time is its duration minus what its children cover.
class Trace {
 public:
  struct Span {
    std::string name;
    std::string cat;  // "job", "layer", or "probe" (kept out of accounting)
    double start_us = 0.0;
    double dur_us = 0.0;
    int parent = -1;
    std::int64_t job = -1;
    int tid = 1;  // viewer track; probes always go to track 2
  };

  Trace() : origin_(Clock::now()) {}

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  /// Opens a span now; close it with end().
  int begin(std::string name, std::string cat, std::int64_t job,
            int parent = -1);
  void end(int id);
  /// A span whose interval was measured elsewhere (a pipeline-stats entry or
  /// a probe difference), placed inside `parent`.
  int add(std::string name, std::string cat, std::int64_t job, int parent,
          double start_us, double dur_us, int tid = 1);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double seconds(int id) const {
    return spans_[static_cast<std::size_t>(id)].dur_us * 1e-6;
  }
  /// Self seconds per span name; probe spans are left out.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  bool write_chrome(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The source layer a pass-pipeline step belongs to (rtl, opt, ssa,
/// regalloc, mach).
std::string layer_of_pass(const std::string& pass);

// --- workloads --------------------------------------------------------------

/// Each fills `out` with every end-to-end metric (trace off) or the per-layer
/// metrics it can measure (trace on), counting each operation it attempts
/// and each output check that fails.
bool is_campaign(const std::string& workload);
void run_campaign(const Args& args, Result* out);
void run_service(const Args& args, Result* out);

}  // namespace vcbench
