// vccd's command line: its options and flag table (support/flags.hpp), in
// a header so tests/flags_test.cpp checks the table vccd really parses.
#pragma once

#include <cstdint>

#include "service/server.hpp"
#include "support/flags.hpp"

namespace vc::tools {

/// The server options plus the supervisor's. An omitted --jobs (0) means
/// one worker per hardware thread.
struct VccdOptions : service::ServerOptions {
  int shards = 0;  // 0 = single-process mode
  std::uint64_t cache_budget_mb = 0;  // 0 = unlimited
  bool help = false;
};

inline flags::Table<VccdOptions> vccd_flag_table() {
  using O = VccdOptions;
  flags::Table<O> t;
  t.text("--socket", &O::socket_path)
      .count("--jobs", 1, flags::kMaxCount, &O::jobs)
      .count("--shards", 0, 64, &O::shards)
      .count("--shard-index", 0, flags::kMaxCount, &O::shard_index)
      .text("--cache-dir", &O::cache_dir)
      .count("--cache-budget-mb", 0, flags::kMaxCount, &O::cache_budget_mb)
      .boolean("--help", &O::help)
      .boolean("-h", &O::help);
  return t;
}

}  // namespace vc::tools
