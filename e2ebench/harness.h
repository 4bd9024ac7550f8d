// Shared machinery of the end-to-end benchmark: clocks and order
// statistics, the in-memory span tracer, the counting persist::Env, the
// peak-RSS probe, the machine reference kernel, and the metric report.
#ifndef GRAPHITTI_E2EBENCH_HARNESS_H_
#define GRAPHITTI_E2EBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "persist/env.h"

namespace e2e {

namespace persist = graphitti::persist;
namespace util = graphitti::util;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100]; 0 when empty.
double Percentile(std::vector<double> v, double p);

// ---------------------------------------------------------------- tracing
//
// Spans live in per-thread in-memory buffers and are merged only after
// every benchmark thread has joined. Recording is off unless the run was
// started with --trace 1, and each ScopedSpan checks the switch once.

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // enclosing span on the same thread, 0 = none
  uint64_t request = 0;  // op id shared by the spans one op caused
  uint32_t thread = 0;
};

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();
  /// Every span recorded so far, from every thread, in start order.
  /// Call only while no other thread records.
  static std::vector<Span> Collect();
  /// Writes the spans as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto). False when the file cannot be written.
  static bool WriteChromeJson(const std::string& path);
};

/// Records one span from construction to destruction when tracing is on;
/// otherwise only reads the clock (so callers can time the same scope).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t request_;
  int64_t start_ns_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
};

/// Durations (ms) of every recorded span named `name`.
std::vector<double> SpanDurationsMs(const std::vector<Span>& spans, const char* name);

// ------------------------------------------------------------ counting env

/// persist::Env that delegates to another Env and counts what the
/// durability layer asks of the filesystem: bytes appended to WAL and to
/// snapshot files, fdatasync calls and their time, and whole-file reads.
/// Appends, syncs and reads also record "persist.*" spans when tracing.
class CountingEnv : public persist::Env {
 public:
  struct Counters {
    std::atomic<uint64_t> wal_bytes{0};
    std::atomic<uint64_t> wal_appends{0};
    std::atomic<uint64_t> wal_syncs{0};
    std::atomic<uint64_t> snapshot_bytes{0};
    std::atomic<uint64_t> file_syncs{0};  // every Sync, WAL or not
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> reads{0};
    std::atomic<int64_t> append_ns{0};
    std::atomic<int64_t> sync_ns{0};
    std::atomic<int64_t> read_ns{0};
  };

  explicit CountingEnv(persist::Env* base) : base_(base) {}

  Counters& counters() { return counters_; }
  /// Time spent inside this env's appends and syncs so far.
  int64_t io_ns() const { return counters_.append_ns.load() + counters_.sync_ns.load(); }

  util::Result<std::unique_ptr<persist::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  util::Result<std::string> ReadFileToString(const std::string& path) const override;
  bool FileExists(const std::string& path) const override { return base_->FileExists(path); }
  util::Result<std::vector<std::string>> ListDir(const std::string& dir) const override {
    return base_->ListDir(dir);
  }
  util::Status CreateDirs(const std::string& dir) override { return base_->CreateDirs(dir); }
  util::Status RemoveFile(const std::string& path) override { return base_->RemoveFile(path); }
  util::Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  util::Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  util::Status SyncDir(const std::string& dir) override { return base_->SyncDir(dir); }

 private:
  persist::Env* base_;
  mutable Counters counters_;
};

// ----------------------------------------------------------- machine probes

/// Resets the kernel's peak-RSS mark for this process (Linux
/// /proc/self/clear_refs). False when unsupported.
bool ResetPeakRss();
/// Peak resident set size since the last reset, in MiB (VmHWM).
double PeakRssMb();

/// A fixed CPU + memory reference kernel, timed in this process: the
/// median of five runs of a dependent walk over a 4 MiB table. It moves
/// with the machine (frequency, noisy neighbours), never with Graphitti,
/// so it separates a slow machine phase from a regression.
double RefKernelMs();
/// RefKernelMs() on an idle machine of the kind the benchmark was tuned on
/// (a 4-vCPU Xeon KVM guest). Scaled latencies are reported at this speed.
inline constexpr double kRefKernelNominalMs = 13.0;

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The run's metrics and its correctness tally.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Counts one attempted operation or check; a false `ok` counts it
  /// failed and keeps the first few messages for stderr.
  void Check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<Metric> metrics_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex errors_mu_;
  std::vector<std::string> errors_;  // guarded by errors_mu_
};

}  // namespace e2e

#endif  // GRAPHITTI_E2EBENCH_HARNESS_H_
