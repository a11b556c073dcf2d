// vccd — the long-running compile/WCET service daemon.
//
//   vccd --socket=PATH [--jobs=N] [--shards=N] [--cache-dir=DIR]
//        [--cache-budget-mb=N] [--shard-index=I]
//
// Single-process mode (the default) serves the framed protocol directly;
// --shards=N forks N worker vccd processes behind a supervisor that owns
// the public socket and restarts dead shards. SIGTERM/SIGINT drain
// gracefully: in-flight jobs finish, stats flush to stderr, exit 0.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "service/server.hpp"
#include "service/supervisor.hpp"
#include "tools/vccd_cli.hpp"

namespace {

vc::service::ServiceServer* g_server = nullptr;
vc::service::ShardSupervisor* g_supervisor = nullptr;

void handle_terminate(int) {
  // Async-signal-safe: both paths only write one byte to a wake pipe.
  if (g_server != nullptr) g_server->request_drain();
  if (g_supervisor != nullptr) g_supervisor->request_drain();
}

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_terminate;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [--jobs=N] [--shards=N]\n"
               "          [--cache-dir=DIR] [--cache-budget-mb=N]\n"
               "          [--shard-index=I]\n",
               argv0);
  return 2;
}

std::string self_exe_path(const char* argv0) {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) {
    buffer[n] = '\0';
    return buffer;
  }
  return argv0;
}

}  // namespace

int main(int argc, char** argv) {
  const vc::tools::VccdOptions opts = vc::flags::parse_flags_or_exit(
      vc::tools::vccd_flag_table(), argc, argv, "vccd");
  if (opts.help) {
    usage(argv[0]);
    return 0;
  }
  if (opts.socket_path.empty()) {
    std::fprintf(stderr, "vccd: error: --socket=PATH is required\n");
    return usage(argv[0]);
  }
  if (opts.shards > 0 && opts.shard_index >= 0) {
    std::fprintf(stderr,
                 "vccd: error: --shards and --shard-index are exclusive\n");
    return 2;
  }

  if (opts.shards > 0) {
    vc::service::SupervisorOptions options;
    options.socket_path = opts.socket_path;
    options.shards = opts.shards;
    options.vccd_path = self_exe_path(argv[0]);
    if (opts.jobs > 0) {
      options.shard_args.push_back("--jobs=" + std::to_string(opts.jobs));
    }
    if (!opts.cache_dir.empty()) {
      options.shard_args.push_back("--cache-dir=" + opts.cache_dir);
    }
    if (opts.cache_budget_mb > 0) {
      options.shard_args.push_back("--cache-budget-mb=" +
                                   std::to_string(opts.cache_budget_mb));
    }
    vc::service::ShardSupervisor supervisor(options);
    std::string error;
    if (!supervisor.start(&error)) {
      std::fprintf(stderr, "vccd: error: %s\n", error.c_str());
      return 1;
    }
    g_supervisor = &supervisor;
    install_signal_handlers();
    std::fprintf(stderr, "vccd: supervising %d shards on %s\n", opts.shards,
                 opts.socket_path.c_str());
    const int code = supervisor.serve();
    g_supervisor = nullptr;
    return code;
  }

  vc::service::ServerOptions options = opts;
  options.cache_budget_bytes = opts.cache_budget_mb * 1024 * 1024;
  vc::service::ServiceServer server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "vccd: error: %s\n", error.c_str());
    return 1;
  }
  g_server = &server;
  install_signal_handlers();
  if (opts.shard_index < 0) {
    std::fprintf(stderr, "vccd: serving on %s\n", opts.socket_path.c_str());
  }
  const int code = server.serve();
  g_server = nullptr;
  return code;
}
