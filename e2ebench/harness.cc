#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>

namespace e2e {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  double lo = *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return (lo + hi) / 2;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

// ---------------------------------------------------------------- tracing

namespace {

std::atomic<bool> g_tracing{false};

struct ThreadSpans {
  uint32_t thread = 0;
  uint64_t next_id = 0;
  uint64_t current = 0;  // innermost open span
  std::vector<Span> spans;
};

std::mutex g_registry_mu;
// Owned here (not by the threads) so spans outlive the threads that
// recorded them. Guarded by g_registry_mu.
std::vector<std::unique_ptr<ThreadSpans>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<ThreadSpans>>();
  return *registry;
}

ThreadSpans& Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    auto owned = std::make_unique<ThreadSpans>();
    owned->thread = static_cast<uint32_t>(Registry().size());
    owned->spans.reserve(1 << 16);
    local = owned.get();
    Registry().push_back(std::move(owned));
  }
  return *local;
}

}  // namespace

void Tracer::SetEnabled(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracer::enabled() { return g_tracing.load(std::memory_order_relaxed); }

std::vector<Span> Tracer::Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& t : Registry()) all.insert(all.end(), t->spans.begin(), t->spans.end());
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return all;
}

bool Tracer::WriteChromeJson(const std::string& path) {
  std::vector<Span> spans = Collect();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char line[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                  i == 0 ? "" : ",\n", s.name, s.thread,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request)
    : name_(name), request_(request), start_ns_(0) {
  if (Tracer::enabled()) {
    ThreadSpans& local = Local();
    // Ids are unique across threads: thread index in the high bits.
    id_ = (static_cast<uint64_t>(local.thread + 1) << 40) | ++local.next_id;
    parent_ = local.current;
    local.current = id_;
  }
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  int64_t end = NowNs();
  ThreadSpans& local = Local();
  local.current = parent_;
  Span span;
  span.name = name_;
  span.start_ns = start_ns_;
  span.end_ns = end;
  span.id = id_;
  span.parent = parent_;
  span.request = request_;
  span.thread = local.thread;
  local.spans.push_back(span);
}

std::vector<double> SpanDurationsMs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  std::string_view want(name);
  for (const Span& s : spans) {
    if (want == s.name) out.push_back(NsToMs(s.end_ns - s.start_ns));
  }
  return out;
}

// ------------------------------------------------------------ counting env

namespace {

bool IsWalPath(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return path.compare(slash == std::string::npos ? 0 : slash + 1, 4, "wal-") == 0;
}

class CountingFile : public persist::WritableFile {
 public:
  CountingFile(std::unique_ptr<persist::WritableFile> base, bool wal,
               CountingEnv::Counters* counters)
      : base_(std::move(base)), wal_(wal), counters_(counters) {}

  util::Status Append(std::string_view data) override {
    ScopedSpan span(wal_ ? "persist.append" : "persist.file_append");
    int64_t t0 = NowNs();
    util::Status st = base_->Append(data);
    counters_->append_ns += NowNs() - t0;
    if (wal_) {
      counters_->wal_bytes += data.size();
      counters_->wal_appends += 1;
    } else {
      counters_->snapshot_bytes += data.size();
    }
    return st;
  }

  util::Status Sync() override {
    ScopedSpan span(wal_ ? "persist.sync" : "persist.file_sync");
    int64_t t0 = NowNs();
    util::Status st = base_->Sync();
    counters_->sync_ns += NowNs() - t0;
    counters_->file_syncs += 1;
    if (wal_) counters_->wal_syncs += 1;
    return st;
  }

  util::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<persist::WritableFile> base_;
  bool wal_;
  CountingEnv::Counters* counters_;
};

}  // namespace

util::Result<std::unique_ptr<persist::WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  auto file = base_->NewWritableFile(path, truncate);
  if (!file.ok()) return file.status();
  std::unique_ptr<persist::WritableFile> counted = std::make_unique<CountingFile>(
      std::move(file).ValueUnsafe(), IsWalPath(path), &counters_);
  return counted;
}

util::Result<std::string> CountingEnv::ReadFileToString(const std::string& path) const {
  ScopedSpan span("persist.read");
  int64_t t0 = NowNs();
  auto data = base_->ReadFileToString(path);
  counters_.read_ns += NowNs() - t0;
  counters_.reads += 1;
  if (data.ok()) counters_.read_bytes += data->size();
  return data;
}

// ----------------------------------------------------------- machine probes

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double RefKernelMs() {
  constexpr size_t kWords = (4u << 20) / sizeof(uint64_t);
  std::vector<uint64_t> table(kWords);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint64_t& w : table) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  std::vector<double> runs;
  volatile uint64_t sink = 0;
  for (int r = 0; r < 5; ++r) {
    int64_t t0 = NowNs();
    uint64_t idx = static_cast<uint64_t>(r);
    uint64_t acc = 0;
    for (size_t i = 0; i < kWords; ++i) {
      idx = (table[idx % kWords] ^ acc) + i;
      acc += idx * 0xbf58476d1ce4e5b9ULL;
    }
    sink = sink + acc;
    runs.push_back(NsToMs(NowNs() - t0));
  }
  return Median(runs);
}

// ------------------------------------------------------------------ report

void Report::Add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  attempted_ += 1;
  if (ok) return;
  failed_ += 1;
  std::lock_guard<std::mutex> lock(errors_mu_);
  if (errors_.size() < 20) errors_.push_back(what);
}

}  // namespace e2e
