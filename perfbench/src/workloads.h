#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // inputs and snapshots are written here
};

/// Each returns false when the workload could not run to the end; output
/// checks and failures are recorded in `report` either way.
bool RunBatchCold(const RunArgs& args, Report* report);
bool RunServeRead(const RunArgs& args, Report* report);
bool RunStreamMixed(const RunArgs& args, Report* report);

/// Runs `setup` `reps` times (it makes the same inputs every time: they
/// come from the seed alone), sets setup_s to the median duration, hands
/// freed memory back to the OS so that the timed phase's peak RSS is its
/// own, and flushes the files setup wrote (see FlushWrites).
void RunSetup(int reps, Report* report, const std::vector<std::string>& files,
              const std::function<void()>& setup);

/// Writes the dirty pages of `files` to disk and waits. Without it the
/// kernel writes them back later, on some CPU, in the middle of whatever
/// phase comes next: read tails then measured the flusher.
void FlushWrites(const std::vector<std::string>& files);

/// (traced - untraced) / untraced, in percent.
double OverheadPct(double traced, double untraced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
