// e2ebench: the end-to-end benchmark of Graphitti's user paths.
//
//   e2ebench --workload <every_record|group_commit|tiny> --seed <n> --seconds <s>
//            --trace <0|1> --work-dir <dir> [--trace-out <file.json>]
//
// Prints progress lines, then as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when an answer was wrong or an op failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "phases.h"

namespace {

/// Corpus sizes and WAL flush policy of `workload`. every_record and
/// group_commit run the same corpora and differ only in the flush policy.
bool Configure(const std::string& workload, e2e::Options* o) {
  if (workload == "every_record" || workload == "group_commit") {
    o->sizes = {2000, 1000, 20000, 18000, 2000};
    o->group_commit = workload == "group_commit";
  } else if (workload == "tiny") {
    o->sizes = {400, 100, 400, 360, 40};
  } else {
    return false;
  }
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <every_record|group_commit|tiny> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes one value");
  if (!Configure(workload, &options)) return Usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace || options.work_dir.empty()) {
    return Usage("--seed, --seconds, --trace and --work-dir are required");
  }

  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  e2e::Report report;
  e2e::RunBenchmark(options, &report);
  for (const std::string& e : report.errors()) std::fprintf(stderr, "FAILED: %s\n", e.c_str());

  const bool correct = report.failed() == 0 && report.attempted() > 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted()) +
                     ", \"failed\": " + std::to_string(report.failed()) + ", \"metrics\": {";
  char buf[256];
  bool first = true;
  for (const e2e::Metric& m : report.metrics()) {
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
