// The four user paths the benchmark times, run in one process as four
// closed-loop phases: query_tab, churn, annotate_durable and restart.
#ifndef GRAPHITTI_E2EBENCH_PHASES_H_
#define GRAPHITTI_E2EBENCH_PHASES_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "harness.h"

namespace e2e {

/// Corpus sizes of one workload.
struct Sizes {
  size_t flu_annotations = 0;      // GenerateInfluenzaStudy
  size_t atlas_annotations = 0;    // GenerateBrainAtlas
  size_t durable_annotations = 0;  // annotate_durable seed corpus
  size_t restart_snapshot = 0;     // restart: annotations in the snapshot
  size_t restart_tail = 0;         // restart: annotations in the WAL tail
};

struct Options {
  uint64_t seed = 1;
  double seconds = 10;  // timed phases together
  bool trace = false;
  Sizes sizes;
  // WAL flush policy of the durable engines: false = kEveryRecord
  // (fdatasync per record), true = kInterval group commit (fdatasync at
  // most once per 10 ms).
  bool group_commit = false;
  std::string work_dir;   // durable directories live under it
  std::string trace_out;  // Chrome trace JSON (trace runs); empty = none
};

/// Sets up (several times, reporting the median as setup_s), runs the four
/// phases, checks every answer, and adds the end-to-end metrics (trace
/// off) or the per-layer metrics (trace on) to `report`.
void RunBenchmark(const Options& options, Report* report);

}  // namespace e2e

#endif  // GRAPHITTI_E2EBENCH_PHASES_H_
