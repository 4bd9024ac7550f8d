// Append-only write-ahead log of committed mutations.
//
// File layout:
//   header:  "GWAL" | u32 version (2) | u64 generation            (16 bytes)
//   record:  u32 len | u32 crc32c | u8 type | payload             (repeated)
// where len = 1 + payload size and the CRC covers type + payload. Everything
// is little-endian (persist/format.h).
//
// A record is durable once AppendRecord has returned OK under the
// kEveryRecord sync policy (or after the next interval sync / explicit
// Sync() under kInterval). A crash mid-append leaves a torn tail — short
// header, insane length, or CRC mismatch — which readers treat as a clean
// end-of-log and which WalWriter::Open truncates away before appending.
//
// Generations tie a WAL to its base snapshot: wal-<g> contains exactly the
// mutations applied after snapshot-<g> was taken (see persist/recovery.h).
#ifndef GRAPHITTI_PERSIST_WAL_H_
#define GRAPHITTI_PERSIST_WAL_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "persist/env.h"
#include "util/result.h"
#include "util/status.h"

namespace graphitti {
namespace persist {

inline constexpr char kWalMagic[4] = {'G', 'W', 'A', 'L'};
// Version 2 carries commit records as binary fields plus opaque content
// XML (core/durability.cc); version 1 carried the content XML alone, which
// replay had to parse. A WAL of any other version is refused as
// kUnsupported, never replayed.
inline constexpr uint32_t kWalVersion = 2;
inline constexpr size_t kWalHeaderSize = 16;
// Records larger than this are treated as torn (a length field of garbage
// bytes would otherwise make the reader try to swallow gigabytes).
inline constexpr uint32_t kWalMaxRecordLen = 1u << 30;

/// Every durable mutation of the Graphitti facade maps to one record type.
/// Payload encodings live next to their writers in core/durability.cc.
/// Values are unique and leave no gap: a retired type keeps its
/// enumerator and number, so an old WAL never replays its records as a
/// newer type (tools/lint/check_contracts.py checks this).
enum class WalRecordType : uint8_t {
  kCommitBatch = 1,          // one committed CommitBatch (the common case)
  kRemove = 2,               // RemoveAnnotation
  kObject = 3,               // RegisterObject (any Ingest* path)
  kCreateTable = 4,          // CreateTable
  kOntology = 5,             // LoadOntology
  kCoordSystem = 6,          // RegisterCoordinateSystem
  kDerivedCoordSystem = 7,   // RegisterDerivedCoordinateSystem
  kVacuum = 8,               // retired (table compaction); replays as a no-op
};

struct WalOptions {
  enum class SyncPolicy {
    kEveryRecord,  // fsync inside every AppendRecord (default; full durability)
    kInterval,     // group commit: fsync at most once per interval_ms
  };
  SyncPolicy sync_policy = SyncPolicy::kEveryRecord;
  int interval_ms = 10;
};

struct WalRecord {
  WalRecordType type;
  std::string payload;
};

struct WalContents {
  uint64_t generation = 0;
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;  // prefix length up to the last intact record
  bool truncated_tail = false;  // file had bytes past valid_bytes (torn tail)
};

/// Appender. Not thread-safe and deliberately mutex-free: the engine is
/// the only caller and reaches it exclusively through its `wal_` handle,
/// which is GUARDED_BY(commit_mu_) in core/graphitti.h — so the clang
/// thread-safety lane proves every append happens under the commit mutex
/// without this class owning a second (redundant) capability. Standalone
/// users (tests, tools) must provide their own serialization.
class WalWriter {
 public:
  /// Creates `path` with a fresh header (generation `generation`), or reopens
  /// an existing WAL — validating magic/version/generation and truncating any
  /// torn tail so appends continue from the last valid record.
  static util::Result<std::unique_ptr<WalWriter>> Open(Env* env, const std::string& path,
                                                       uint64_t generation,
                                                       const WalOptions& options);

  /// Reopens the existing WAL at `path` whose contents the caller has just
  /// read with ReadWal, so the file is neither read nor checksummed again:
  /// the generation is checked against `contents`, and a torn tail past
  /// contents.valid_bytes is truncated before the first append. The file
  /// must not have changed since it was read.
  static util::Result<std::unique_ptr<WalWriter>> Reopen(Env* env, const std::string& path,
                                                         uint64_t generation,
                                                         const WalContents& contents,
                                                         const WalOptions& options);

  /// Appends one record and applies the sync policy. On any error the WAL
  /// file may hold a torn tail; the caller must stop appending (the engine
  /// poisons itself) so recovery still sees a clean prefix.
  util::Status AppendRecord(WalRecordType type, std::string_view payload);

  /// Forces an fsync regardless of policy (used at checkpoint boundaries).
  util::Status Sync();

  const std::string& path() const { return path_; }
  uint64_t generation() const { return generation_; }

 private:
  WalWriter(Env* env, std::string path, uint64_t generation, const WalOptions& options,
            std::unique_ptr<WritableFile> file)
      : env_(env),
        path_(std::move(path)),
        generation_(generation),
        options_(options),
        file_(std::move(file)) {}

  Env* env_;
  std::string path_;
  uint64_t generation_;
  WalOptions options_;
  std::unique_ptr<WritableFile> file_;
  bool synced_since_append_ = true;
  std::chrono::steady_clock::time_point last_sync_ = std::chrono::steady_clock::now();
};

/// Reads a WAL, stopping cleanly at the first torn record. Fails with
/// kInternal only when the header itself is missing or malformed — a torn
/// *record* is normal crash debris, a torn *header* means this was never a
/// valid WAL — and with kUnsupported when it names another version.
util::Result<WalContents> ReadWal(const Env& env, const std::string& path);

}  // namespace persist
}  // namespace graphitti

#endif  // GRAPHITTI_PERSIST_WAL_H_
