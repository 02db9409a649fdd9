#ifndef MIDAS_BENCH_BENCH_ENV_COMMON_H_
#define MIDAS_BENCH_BENCH_ENV_COMMON_H_

#include <cstdlib>
#include <string>

namespace midas {

/// The code version the benchmark binaries were built from, exported by
/// the scripts/bench_*.sh wrappers as MIDAS_GIT_COMMIT (`git describe
/// --always --dirty --abbrev=40`: the commit hash, suffixed "-dirty" when
/// the working tree had uncommitted changes). Every BENCH_*.json records
/// it so a results file can always be traced back to the code version it
/// measured; "unknown" when the binary is run outside the wrapper scripts.
inline std::string GitCommitOrUnknown() {
  const char* commit = std::getenv("MIDAS_GIT_COMMIT");
  return (commit != nullptr && *commit != '\0') ? std::string(commit)
                                                : std::string("unknown");
}

}  // namespace midas

#endif  // MIDAS_BENCH_BENCH_ENV_COMMON_H_
