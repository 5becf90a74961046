// met_server — standalone met::serve daemon (shard-per-core serving engine
// over the hybrid index, or the durable LSM with --durable).
//
//   met_server [--port N] [--shards N] [--queue-cap N] [--durable]
//              [--dir PATH] [--delay-target-us N] [--dedup-window N]
//              [--json PATH]
//
// --queue-cap is the per-shard admission bound in guard cost units,
// --delay-target-us the CoDel-style standing queue-delay target, and
// --dedup-window the per-shard idempotency window for retried writes (see
// src/guard/). MET_NET_FAULT=<spec> in the environment arms network fault
// injection on every socket (src/guard/net_fault.h has the grammar).
//
// Prints "met_server listening port=<p> shards=<n>" on stdout once ready
// (line-buffered, so scripts can wait for it), then serves until SIGINT or
// SIGTERM, which triggers a graceful drain: every admitted request
// executes, responses flush, then the process exits 0 with a counter
// summary on stdout. --json additionally writes a met.bench.v1 document
// whose obs dump carries the full met.serve.* / met.guard.* families.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "flags.h"
#include "guard/metrics.h"
#include "serve/server.h"

namespace {

using met::tools::FlagBool;
using met::tools::FlagStr;
using met::tools::FlagU64;

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  met::bench::Reporter& reporter = met::bench::Reporter::Get();
  reporter.ParseArgs(&argc, argv);

  met::serve::ServerOptions opts;
  opts.port = static_cast<uint16_t>(FlagU64(argc, argv, "--port", 7777));
  opts.num_shards = FlagU64(argc, argv, "--shards", 0);
  opts.queue_capacity = FlagU64(argc, argv, "--queue-cap", 4096);
  opts.durable = FlagBool(argc, argv, "--durable");
  opts.dir = FlagStr(argc, argv, "--dir", "/tmp/met_serve");
  opts.delay_target_us = FlagU64(argc, argv, "--delay-target-us", 5000);
  opts.dedup_window = FlagU64(argc, argv, "--dedup-window", 4096);

  met::serve::Server server(std::move(opts));
  if (met::io::Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "met_server: start failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("met_server listening port=%u shards=%zu\n",
              static_cast<unsigned>(server.port()), server.num_shards());
  std::fflush(stdout);

  struct sigaction sa{};
  sa.sa_handler = HandleStop;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  while (g_stop == 0) usleep(50 * 1000);

  server.Shutdown();

  const auto& m = met::serve::ServeObsMetrics::Get();
  const auto& g = met::guard::GuardObsMetrics::Get();
  std::printf(
      "met_server drained: requests=%llu conns_accepted=%llu "
      "proto_errors=%llu\n"
      "  guard: shed=%llu shed_cost=%llu deadline_admission=%llu "
      "deadline_exec=%llu dedup_hits=%llu net_faults=%llu\n",
      static_cast<unsigned long long>(m.requests->Value()),
      static_cast<unsigned long long>(m.accepted->Value()),
      static_cast<unsigned long long>(m.proto_errors->Value()),
      static_cast<unsigned long long>(g.shed->Value()),
      static_cast<unsigned long long>(g.shed_cost->Value()),
      static_cast<unsigned long long>(g.deadline_admission->Value()),
      static_cast<unsigned long long>(g.deadline_exec->Value()),
      static_cast<unsigned long long>(g.dedup_hits->Value()),
      static_cast<unsigned long long>(g.net_faults->Value()));

  reporter.Section("serve server");
  reporter.Row(
      {{"requests", static_cast<size_t>(m.requests->Value())},
       {"shed", static_cast<size_t>(g.shed->Value())},
       {"shed_cost", static_cast<size_t>(g.shed_cost->Value())},
       {"deadline_admission",
        static_cast<size_t>(g.deadline_admission->Value())},
       {"deadline_exec", static_cast<size_t>(g.deadline_exec->Value())},
       {"dedup_hits", static_cast<size_t>(g.dedup_hits->Value())},
       {"net_faults", static_cast<size_t>(g.net_faults->Value())}});
  reporter.WriteIfEnabled();
  return 0;
}
