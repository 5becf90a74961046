// Command-line flags for the tools: `--name value` or `--name=value`, the
// first match wins, and an absent flag yields the default. Header-only so
// every tool (and a build that pulls met_server in as a subproject) gets it
// with a same-directory include.
#ifndef MET_TOOLS_FLAGS_H_
#define MET_TOOLS_FLAGS_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace met::tools {

inline const char* FlagStr(int argc, char** argv, const char* name,
                           const char* def) {
  size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) return argv[i + 1];
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
      return argv[i] + len + 1;
  }
  return def;
}

inline uint64_t FlagU64(int argc, char** argv, const char* name,
                        uint64_t def) {
  const char* v = FlagStr(argc, argv, name, nullptr);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : def;
}

inline double FlagDouble(int argc, char** argv, const char* name,
                         double def) {
  const char* v = FlagStr(argc, argv, name, nullptr);
  return v != nullptr ? std::atof(v) : def;
}

/// True when `name` appears as a bare switch.
inline bool FlagBool(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

}  // namespace met::tools

#endif  // MET_TOOLS_FLAGS_H_
