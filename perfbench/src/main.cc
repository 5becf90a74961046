// metperf — the benchmark's own binary. Subcommands:
//   serve-load  load generator and output checker for a running met_server
//   replay      one ShardEngine driven in process, one span per call
//   index       the 10M-key FST / SuRF / ART / bitvec structure workload
// perfbench/run.py builds this binary and met_server and runs the workloads;
// see perfbench/README.md.
#include <cstdio>
#include <cstring>

namespace perfbench {
int ServeLoadMain(int argc, char** argv);
int ReplayMain(int argc, char** argv);
int IndexMain(int argc, char** argv);
}  // namespace perfbench

int main(int argc, char** argv) {
#if defined(MET_CHECK) || !defined(NDEBUG)
  // Checked and Debug builds run validators and asserts inside the
  // measured loops; their numbers would measure the checks.
  std::fprintf(stderr, "metperf: refusing to run a Debug or MET_CHECK build\n");
  return 3;
#endif
  if (argc < 2) {
    std::fprintf(stderr, "usage: metperf serve-load|replay|index [flags]\n");
    return 2;
  }
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "serve-load") == 0) return perfbench::ServeLoadMain(argc - 1, argv + 1);
  if (std::strcmp(cmd, "replay") == 0) return perfbench::ReplayMain(argc - 1, argv + 1);
  if (std::strcmp(cmd, "index") == 0) return perfbench::IndexMain(argc - 1, argv + 1);
  std::fprintf(stderr, "metperf: unknown subcommand %s\n", cmd);
  return 2;
}
