// The service workload: one vccd (--jobs=1, fresh cache directory) driven by
// one closed-loop client that waits for its reply before sending the next
// request, as `vcc --connect` does.
//
// One client, not two: vccd answers a batch only when the whole batch is
// done, so with two clients every request also waits for the other client's
// job. That coupling doubled the CPUs a request needs at once and made the
// latency percentiles swing with the load of the host's other tenants.
// One fleet worker, not two: a closed loop of one client hands vccd one job
// per batch, so a second worker never has work, and starting two pool
// threads (each with a fresh workspace) for every batch only added per-request
// cost and moved vccd's peak RSS between about 10.5 and 12.6 MB from run to
// run.
//
// The client draws a seeded request stream from the node pool, so which
// requests hit which cache is known in advance. The timed phase replays the
// same stream in whole passes, each on a fresh daemon and store, and the
// throughput is the median pass's. Every block of ten requests holds:
//   4 resubmissions of an earlier request    -> memo ("incremental")
//   2 earlier sources with a new input seed   -> artifact image hit
//   2 fresh nodes and 2 one-constant edits    -> cold compile and publish
// Jobs are ppc verified/O2-full, structural WCET, validation off: validated
// jobs bypass the artifact store, so with validation on the artifact layer
// would never run.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "bench.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "service/client.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace vcbench {

using namespace vc;

namespace {

constexpr int kDaemonJobs = 1;
constexpr int kPoolNodes = 160;
constexpr int kExecCycles = 20;
// Requests in one pass, about 6 s on a 4-vCPU VM; a pass draws
// 90 fresh nodes. The traced run makes two passes.
constexpr int kRequestsPerPass = 450;

struct Request {
  std::size_t node = 0;  // pool index
  int edit = 0;          // 0 = the generated source
  std::uint64_t input_seed = 0;
  driver::Config config = driver::Config::Verified;
  const char* expect = "miss";  // the cache outcome the stream implies
};

/// The source of `node` after `edit` one-constant edits: the first scalar
/// f64 global's initializer becomes edit/8 (exact in binary, so it prints
/// back unchanged). Every edit yields a distinct, still well-typed program.
std::string edited_source(const Node& node, int edit) {
  if (edit == 0) return node.source;
  char value[32];
  std::snprintf(value, sizeof value, "%.3f", edit / 8.0);
  std::string s = node.source;
  for (std::size_t at = 0; at < s.size();) {
    const std::size_t eol = std::min(s.find('\n', at), s.size());
    const std::string_view line(s.data() + at, eol - at);
    const std::size_t eq = line.find(" = ");
    if (line.rfind("global f64 ", 0) == 0 &&
        line.find('[') == std::string_view::npos &&
        eq != std::string_view::npos && line.back() == ';')
      return s.replace(at + eq + 3, line.size() - eq - 4, value);
    at = eol + 1;
  }
  return "global f64 vcbench_edit = " + std::string(value) + ";\n" + s;
}

std::string job_name(const Pool& pool, const Request& r) {
  const std::string& name = pool.nodes[r.node].name;
  return r.edit ? name + "-e" + std::to_string(r.edit) : name;
}

/// What makes two requests the same job (and one memo entry).
std::string job_key(const Pool& pool, const Request& r) {
  return job_name(pool, r) + "/" + std::to_string(r.input_seed) + "/" +
         driver::to_string(r.config);
}

service::JobRequest job_of(const Pool& pool, const Request& r,
                           std::int64_t id) {
  service::JobRequest job;
  job.id = id;
  job.name = job_name(pool, r);
  job.source = edited_source(pool.nodes[r.node], r.edit);
  job.entry = pool.nodes[r.node].entry;
  job.config = r.config;
  job.exec_cycles = kExecCycles;
  job.cold_caches = true;
  job.wcet = true;
  job.input_seed = r.input_seed;
  return job;
}

/// The client's seeded request stream over the pool.
/// Every block of ten requests holds exactly four resubmissions, two new
/// input seeds for an earlier source, two fresh nodes and two one-constant
/// edits, in seeded order, so the mix does not vary from seed to seed.
/// Edits and new input seeds walk the earlier requests in order rather than
/// drawing them: a seed that happened to edit its largest nodes again and
/// again would move the latency tail by itself.
class Stream {
 public:
  Stream(std::uint64_t seed, std::size_t pool_size)
      : rng_(seed ^ 0x5EEDull), pool_size_(pool_size) {}

  Request next() {
    if (block_.empty()) {
      block_ = {kResubmit, kResubmit, kResubmit, kResubmit, kNewSeed,
                kNewSeed,  kFresh,    kFresh,    kEdit,     kEdit};
      for (std::size_t i = block_.size() - 1; i > 0; --i)
        std::swap(block_[i], block_[rng_.next_below(i + 1)]);
    }
    Kind kind = block_.back();
    block_.pop_back();
    if (history_.empty()) kind = kFresh;
    if (kind == kFresh && next_fresh_ >= pool_size_) kind = kEdit;

    if (kind == kResubmit) {
      Request again = history_[rng_.next_below(history_.size())];
      again.expect = "incremental";
      return again;
    }
    Request req;
    if (kind == kNewSeed) {
      req = history_[next_image_++ % history_.size()];
      req.expect = "image";
    } else {
      if (kind == kFresh) {
        req.node = next_fresh_++;
        nodes_.push_back(req.node);
      } else {
        req.node = nodes_[next_edit_++ % nodes_.size()];
        req.edit = ++edits_[req.node];
      }
      req.config = (++compiles_ % 2) ? driver::Config::Verified
                                     : driver::Config::O2Full;
      req.expect = "miss";
    }
    req.input_seed = rng_.next_u64();
    history_.push_back(req);
    return req;
  }

 private:
  enum Kind { kResubmit, kNewSeed, kFresh, kEdit };

  Rng rng_;
  std::size_t pool_size_;
  std::size_t next_fresh_ = 0;  // the next pool node never submitted
  std::size_t next_image_ = 0;  // history_ index of the next new input seed
  std::size_t next_edit_ = 0;   // nodes_ index of the next edit
  std::size_t compiles_ = 0;    // alternates the configuration of misses
  std::vector<Kind> block_;
  std::vector<Request> history_;    // every distinct request so far
  std::vector<std::size_t> nodes_;  // pool nodes submitted so far
  std::map<std::size_t, int> edits_;
};

struct Reply {
  std::int64_t id = 0;
  Request request;
  double sent_us = 0.0;
  double latency_s = 0.0;
  double daemon_s = 0.0;  // the reply's "seconds": enqueue to reply
  std::string cache;
  std::string record;  // record_core_json dump
  std::string problem;
};

/// A running vccd, drained (SIGTERM, then waited for) at scope exit unless
/// stop() drained it first.
struct Daemon {
  Daemon() = default;
  ~Daemon() {
    if (pid > 0) service::terminate_daemon(pid, 30.0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid = -1;
  std::string socket;
  double spawn_s = 0.0;  // spawn to first ping
};

/// Polls with a 1 ms period (the library helper sleeps 20 ms between tries,
/// too coarse to time start-up with).
bool ping_until_ready(const std::string& socket, double timeout_s) {
  json::Value ping;
  ping["op"] = json::Value("ping");
  const auto t0 = Clock::now();
  while (seconds_since(t0) < timeout_s) {
    service::ServiceClient client;
    if (client.connect(socket)) {
      const auto reply = client.call(ping);
      if (reply && reply->at("ok").as_bool()) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Drains the daemon; a healthy vccd exits 0 on SIGTERM.
void stop(Daemon* d, Result* out) {
  if (d->pid > 0 && service::terminate_daemon(d->pid, 60.0) != 0)
    out->fail("vccd drain did not exit 0");
  d->pid = -1;
}

/// Spawns vccd over a fresh cache directory and times it until it answers a
/// ping. False when the daemon would not start.
bool start_daemon(const Args& args, const std::string& tag, Daemon* daemon,
                  Result* out) {
  Daemon& d = *daemon;
  const std::filesystem::path dir =
      std::filesystem::path(args.out_dir) / ("vccd-" + tag);
  d.socket = (dir / "sock").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::fflush(nullptr);
  const auto t0 = Clock::now();
  d.pid = service::spawn_daemon(
      args.vccd, {"--socket=" + d.socket,
                  "--cache-dir=" + (dir / "store").string(),
                  "--jobs=" + std::to_string(kDaemonJobs)});
  if (d.pid <= 0 || !ping_until_ready(d.socket, 30.0)) {
    out->fail("cannot start " + args.vccd);
    return false;
  }
  d.spawn_s = seconds_since(t0);
  return true;
}

json::Value status_of(const Daemon& d) {
  service::ServiceClient client;
  json::Value request;
  request["op"] = json::Value("status");
  if (!client.connect(d.socket)) return {};
  const auto reply = client.call(request);
  return reply ? reply->at("status") : json::Value();
}

/// Peak resident set of `pid` (VmHWM), in MiB; 0 if unreadable.
double peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// Drives the closed loop: `requests` requests, each sent after the
/// previous reply arrived.
std::vector<Reply> drive(const Pool& pool, const Args& args,
                         const Daemon& daemon, const Trace& clock,
                         int requests) {
  std::vector<Reply> replies;
  Stream stream(args.seed, pool.nodes.size());
  service::ServiceClient client;
  if (!client.connect(daemon.socket)) {
    replies.push_back({});
    replies.back().problem = "cannot connect";
    return replies;
  }
  for (int n = 0; n < requests; ++n) {
    Reply reply;
    reply.request = stream.next();
    reply.id = n;
    const json::Value request =
        service::job_to_json(job_of(pool, reply.request, reply.id));
    reply.sent_us = clock.now_us();
    const auto t_send = Clock::now();
    std::optional<json::Value> doc;
    if (client.send(request)) doc = client.recv();
    reply.latency_s = seconds_since(t_send);
    if (!doc) {
      reply.problem = "no reply";
      replies.push_back(std::move(reply));
      return replies;
    }
    const json::Value& record = doc->at("record");
    if (!doc->at("ok").as_bool(false) || doc->at("id").as_i64(-1) != reply.id)
      reply.problem = "error reply: " + doc->at("error").as_string();
    else if (!record.at("ok").as_bool(false))
      reply.problem = "record not ok: " + record.at("error").as_string();
    reply.daemon_s = doc->at("seconds").as_double();
    reply.cache = doc->at("cache").as_string();
    reply.record = record.dump();
    replies.push_back(std::move(reply));
  }
  return replies;
}

/// The output checks: envelope and record ok, the cache outcome the stream
/// implies, and every record byte-identical to an in-process run_fleet of
/// the same job.
void check_replies(const Pool& pool, const std::vector<Reply>& replies,
                   Result* out) {
  std::set<std::string> seen;
  std::deque<minic::Program> programs;  // stable addresses for the units
  std::map<driver::Config, std::vector<driver::FleetUnit>> units;
  std::map<driver::Config, std::vector<std::string>> unit_keys;
  for (const Reply& r : replies) {
    ++out->attempted;
    if (!r.problem.empty()) {
      out->fail(r.problem);
      continue;
    }
    if (r.cache != r.request.expect)
      out->fail("determinism: " + job_name(pool, r.request) + " expected " +
                r.request.expect + ", got " + r.cache);
    const std::string key = job_key(pool, r.request);
    if (!seen.insert(key).second) continue;
    const service::JobRequest job = job_of(pool, r.request, 0);
    programs.push_back(minic::parse_program(job.source, job.name));
    minic::type_check(programs.back());
    units[r.request.config].push_back(
        {job.name, &programs.back(), job.entry, job.input_seed});
    unit_keys[r.request.config].push_back(key);
  }
  std::map<std::string, std::string> reference;  // job key -> record dump
  for (const auto& [config, group] : units) {
    driver::FleetOptions o;
    o.jobs = 0;  // every core: the daemon is down by now
    o.configs = {config};
    o.exec_cycles = kExecCycles;
    o.cold_caches = true;
    o.wcet = true;
    const driver::FleetReport report = driver::run_fleet(group, o);
    for (std::size_t u = 0; u < group.size(); ++u)
      reference[unit_keys[config][u]] =
          driver::record_core_json(report.records[u]).dump();
  }
  for (const Reply& r : replies) {
    if (!r.problem.empty()) continue;
    const std::string key = job_key(pool, r.request);
    if (reference[key] != r.record)
      out->fail("reply differs from the in-process reference: " + key);
  }
}

void layer_metrics(const json::Value& status, const std::vector<Reply>& replies,
                   Result* out) {
  const json::Value& cache = status.at("cache");
  const double full = cache.at("full").as_double();
  const double image = cache.at("image").as_double();
  const double miss = cache.at("miss").as_double();
  const double lookups = full + image + miss;
  out->set("artifact.full_hits", full, "count");
  out->set("artifact.image_hits", image, "count");
  out->set("artifact.misses", miss, "count");
  out->set("artifact.hit_ratio", lookups > 0 ? (full + image) / lookups : 0.0,
           "ratio");
  out->set("artifact.publishes", cache.at("store").at("publishes").as_double(),
           "count");
  const double requests = status.at("job_requests").as_double();
  out->set("service.memo_hit_ratio",
           requests > 0 ? cache.at("incremental").as_double() / requests : 0.0,
           "ratio");
  // Memo hits do no work, so their daemon time is all queue and
  // gather-window wait.
  std::vector<double> wait_ms;
  for (const Reply& r : replies)
    if (r.cache == "incremental") wait_ms.push_back(r.daemon_s * 1e3);
  out->set("service.queue_wait_ms", median(wait_ms), "ms", wait_ms.size());
  const double batches = status.at("batches").as_double();
  const double completed = status.at("jobs_completed").as_double();
  out->set("service.jobs_per_batch", batches > 0 ? completed / batches : 0.0,
           "count");
  out->set("service.queue_peak", status.at("queue_peak").as_double(), "count");
}

void traced_service(const Pool& pool, const Args& args, Result* out) {
  // Untraced and traced passes over the same fixed request streams, each on
  // a fresh daemon and store, so their hit counts must agree exactly.
  Trace trace;
  Daemon plain;
  if (!start_daemon(args, "plain", &plain, out)) return;
  const auto t_plain = Clock::now();
  const std::vector<Reply> untraced =
      drive(pool, args, plain, trace, kRequestsPerPass);
  const double plain_wall = seconds_since(t_plain);
  const json::Value plain_status = status_of(plain);
  stop(&plain, out);

  Daemon traced;
  if (!start_daemon(args, "traced", &traced, out)) return;
  const auto t_traced = Clock::now();
  const std::vector<Reply> replies =
      drive(pool, args, traced, trace, kRequestsPerPass);
  const double traced_wall = seconds_since(t_traced);
  const json::Value status = status_of(traced);
  stop(&traced, out);

  check_replies(pool, replies, out);
  Fnv128 digest;
  for (const Reply& r : replies) digest.update(r.record);
  std::fprintf(stderr, "vcbench: record digest %s over %zu records\n",
               digest.digest().hex().c_str(), replies.size());
  if (plain_status.at("cache").dump() != status.at("cache").dump())
    out->fail("determinism: cache counts differ between two passes");
  // Spans are built after the loop from the clients' own timestamps: the
  // request span on the client's track, the daemon's share of it at its
  // end. The request's self time is framing, socket and parse.
  double parse_s = 0.0, bytes = 0.0;
  double daemon_s = 0.0, total_s = 0.0;
  for (const Reply& r : replies) {
    const int tid = 10;
    const int span = trace.add("service.request", "job", r.id, -1, r.sent_us,
                               r.latency_s * 1e6, tid);
    const double d = std::min(r.daemon_s, r.latency_s);
    trace.add("service.daemon", "layer", r.id, span,
              r.sent_us + (r.latency_s - d) * 1e6, d * 1e6, tid);
    daemon_s += d;
    total_s += r.latency_s;
    if (r.cache == "miss") {
      const service::JobRequest job = job_of(pool, r.request, r.id);
      const int p = trace.begin("probe.minic_parse", "probe", r.id);
      const minic::Program program = minic::parse_program(job.source, job.name);
      minic::type_check(program);
      trace.end(p);
      parse_s += trace.seconds(p);
      bytes += job.source.size();
    }
  }
  out->set("minic.parse_s", parse_s, "s");
  out->set("minic.bytes_per_s", parse_s > 0 ? bytes / parse_s : 0.0, "B/s");
  layer_metrics(status, replies, out);
  out->set("trace.overhead", traced_wall / plain_wall, "ratio");
  double self_s = 0.0;
  for (const auto& [name, seconds] : trace.self_seconds()) self_s += seconds;
  out->set("trace.accounted_share", total_s > 0 ? self_s / total_s : 0.0,
           "ratio");
  out->set("trace.jobs", replies.size(), "count");
  std::fprintf(stderr,
               "vcbench: service_edit_loop traced %zu requests: %.3fs in the "
               "daemon, %.3fs outside it\n",
               replies.size(), daemon_s, total_s - daemon_s);
  const std::string path = args.out_dir + "/trace-service_edit_loop-" +
                           std::to_string(args.seed) + ".json";
  if (trace.write_chrome(path))
    std::fprintf(stderr, "vcbench: wrote %s\n", path.c_str());
  else
    out->fail("cannot write " + path);
}

}  // namespace

void run_service(const Args& args, Result* out) {
  const Pool pool = make_pool(kPoolNodes, kSetupRepeats);
  out->set("dataflow.generate_s", pool.generate_s, "s", pool.repeats);
  if (args.trace) {
    traced_service(pool, args, out);
    return;
  }
  std::vector<Reply> replies;
  std::vector<double> latency_ms, spawn_s, rss_mb, pass_jobs_per_s;
  const Trace clock;
  const auto t_run = Clock::now();
  for (int pass = 0; pass < kMinPasses || another_pass(t_run, pass, args);
       ++pass) {
    Daemon daemon;
    if (!start_daemon(args, "timed", &daemon, out)) return;
    spawn_s.push_back(daemon.spawn_s);
    const auto t0 = Clock::now();
    std::vector<Reply> pass_replies =
        drive(pool, args, daemon, clock, kRequestsPerPass);
    pass_jobs_per_s.push_back(static_cast<double>(pass_replies.size()) /
                              seconds_since(t0));
    rss_mb.push_back(peak_rss_mb(daemon.pid));
    stop(&daemon, out);
    for (Reply& r : pass_replies) {
      latency_ms.push_back(r.latency_s * 1e3);
      replies.push_back(std::move(r));
    }
  }
  std::fprintf(stderr, "vcbench: pool set-up %.4fs; vccd spawn to ready:",
               pool.setup_s);
  for (double t : spawn_s) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, "\n");
  out->set("setup_s", pool.setup_s + median(spawn_s), "s", pool.repeats);
  out->set("peak_rss_mb", median(rss_mb), "MB", rss_mb.size());
  out->set("jobs_per_s", median(pass_jobs_per_s), "1/s",
           pass_jobs_per_s.size());
  out->set("job_p50_ms", percentile(latency_ms, 0.50), "ms",
           latency_ms.size());
  out->set("job_p99_ms", percentile(latency_ms, 0.99), "ms",
           latency_ms.size());
  std::fprintf(stderr,
               "vcbench: service_edit_loop: %zu passes of %d requests in "
               "%.2fs; requests/s by pass:",
               pass_jobs_per_s.size(), kRequestsPerPass,
               seconds_since(t_run));
  for (double rate : pass_jobs_per_s) std::fprintf(stderr, " %.1f", rate);
  std::fprintf(stderr, "\n");
  std::map<std::string, std::vector<double>> by_cache;
  for (const Reply& r : replies) by_cache[r.cache].push_back(r.latency_s * 1e3);
  for (const auto& [cache, ms] : by_cache)
    std::fprintf(stderr, "  %-12s n=%-5zu p10 %.2f  p50 %.2f  p99 %.2f ms\n",
                 cache.c_str(), ms.size(), percentile(ms, 0.10),
                 percentile(ms, 0.50), percentile(ms, 0.99));
  check_replies(pool, replies, out);

  driver::FleetOptions quality;
  quality.jobs = 2;
  quality_pass(pool, args.seed, quality, out);
}

}  // namespace vcbench
