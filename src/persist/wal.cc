#include "persist/wal.h"

#include <cstring>

#include "persist/format.h"
#include "util/crc32c.h"

namespace graphitti {
namespace persist {

using util::Result;
using util::Status;

namespace {

std::string EncodeHeader(uint64_t generation) {
  Encoder enc;
  enc.PutRaw(std::string_view(kWalMagic, 4));
  enc.PutU32(kWalVersion);
  enc.PutU64(generation);
  return enc.Take();
}

// Parses the 16-byte header: kInternal if it is short or its magic is
// wrong, kUnsupported if it names a version this build does not read.
Result<uint64_t> DecodeHeader(std::string_view data, const std::string& path) {
  if (data.size() < kWalHeaderSize) {
    return Status::Internal("WAL '" + path + "' shorter than its header");
  }
  if (std::memcmp(data.data(), kWalMagic, 4) != 0) {
    return Status::Internal("WAL '" + path + "' has bad magic");
  }
  Decoder dec(data.substr(4, 12));
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t version, dec.GetU32());
  if (version != kWalVersion) {
    return Status::Unsupported("WAL '" + path + "' has version " + std::to_string(version) +
                               "; this build reads only version " +
                               std::to_string(kWalVersion) +
                               "; open it with the release that wrote it and SaveTo a "
                               "new directory, whose snapshot this build reads");
  }
  return dec.GetU64();
}

// Scans records from `data` starting after the header. Returns the length of
// the valid prefix and appends intact records to `out` (when non-null).
uint64_t ScanRecords(std::string_view data, std::vector<WalRecord>* out) {
  size_t pos = kWalHeaderSize;
  while (true) {
    if (data.size() - pos < 8) break;  // torn or absent record header
    const auto* p = reinterpret_cast<const uint8_t*>(data.data()) + pos;
    uint32_t len = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
                   (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
    uint32_t crc = static_cast<uint32_t>(p[4]) | (static_cast<uint32_t>(p[5]) << 8) |
                   (static_cast<uint32_t>(p[6]) << 16) | (static_cast<uint32_t>(p[7]) << 24);
    if (len == 0 || len > kWalMaxRecordLen) break;       // garbage length
    if (data.size() - pos - 8 < len) break;              // torn payload
    std::string_view body = data.substr(pos + 8, len);   // type + payload
    if (util::Crc32c(body) != crc) break;                // torn / corrupt
    if (out != nullptr) {
      WalRecord rec;
      rec.type = static_cast<WalRecordType>(static_cast<uint8_t>(body[0]));
      rec.payload.assign(body.data() + 1, body.size() - 1);
      out->push_back(std::move(rec));
    }
    pos += 8 + len;
  }
  return pos;
}

// Parses a whole WAL image: the header, then records up to the first torn
// one. Intact records are copied out only when `keep_records` is set.
Result<WalContents> ParseWal(std::string_view data, const std::string& path,
                             bool keep_records) {
  WalContents contents;
  GRAPHITTI_ASSIGN_OR_RETURN(contents.generation, DecodeHeader(data, path));
  contents.valid_bytes = ScanRecords(data, keep_records ? &contents.records : nullptr);
  contents.truncated_tail = contents.valid_bytes < data.size();
  return contents;
}

}  // namespace

Result<std::unique_ptr<WalWriter>> WalWriter::Open(Env* env, const std::string& path,
                                                   uint64_t generation,
                                                   const WalOptions& options) {
  if (env->FileExists(path)) {
    GRAPHITTI_ASSIGN_OR_RETURN(std::string data, env->ReadFileToString(path));
    GRAPHITTI_ASSIGN_OR_RETURN(WalContents contents,
                               ParseWal(data, path, /*keep_records=*/false));
    return Reopen(env, path, generation, contents, options);
  }

  GRAPHITTI_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                             env->NewWritableFile(path, /*truncate=*/true));
  GRAPHITTI_RETURN_NOT_OK(file->Append(EncodeHeader(generation)));
  GRAPHITTI_RETURN_NOT_OK(file->Sync());
  // Pin the file's existence: without this a crash could lose the whole WAL
  // even after records inside it were fsynced.
  GRAPHITTI_RETURN_NOT_OK(env->SyncDir(ParentDir(path)));
  return std::unique_ptr<WalWriter>(
      new WalWriter(env, path, generation, options, std::move(file)));
}

Result<std::unique_ptr<WalWriter>> WalWriter::Reopen(Env* env, const std::string& path,
                                                     uint64_t generation,
                                                     const WalContents& contents,
                                                     const WalOptions& options) {
  if (contents.generation != generation) {
    return Status::Internal("WAL '" + path + "' is generation " +
                            std::to_string(contents.generation) + ", expected " +
                            std::to_string(generation));
  }
  if (contents.truncated_tail) {
    // Torn tail from a crash mid-append: cut it off so new records extend
    // a clean prefix instead of hiding behind garbage.
    GRAPHITTI_RETURN_NOT_OK(env->TruncateFile(path, contents.valid_bytes));
  }
  GRAPHITTI_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                             env->NewWritableFile(path, /*truncate=*/false));
  return std::unique_ptr<WalWriter>(
      new WalWriter(env, path, generation, options, std::move(file)));
}

Status WalWriter::AppendRecord(WalRecordType type, std::string_view payload) {
  // CRC covers type byte + payload (chained, no concat copy needed).
  uint32_t crc = util::Crc32cExtend(0, &type, 1);
  crc = util::Crc32cExtend(crc, payload.data(), payload.size());
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(1 + payload.size()));
  enc.PutU32(crc);
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutRaw(payload);
  GRAPHITTI_RETURN_NOT_OK(file_->Append(enc.buffer()));
  synced_since_append_ = false;

  switch (options_.sync_policy) {
    case WalOptions::SyncPolicy::kEveryRecord:
      return Sync();
    case WalOptions::SyncPolicy::kInterval: {
      auto now = std::chrono::steady_clock::now();
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(now - last_sync_);
      if (elapsed.count() >= options_.interval_ms) return Sync();
      return Status::OK();
    }
  }
  return Status::Internal("unknown WAL sync policy");
}

Status WalWriter::Sync() {
  if (synced_since_append_) return Status::OK();
  GRAPHITTI_RETURN_NOT_OK(file_->Sync());
  synced_since_append_ = true;
  last_sync_ = std::chrono::steady_clock::now();
  return Status::OK();
}

Result<WalContents> ReadWal(const Env& env, const std::string& path) {
  GRAPHITTI_ASSIGN_OR_RETURN(std::string data, env.ReadFileToString(path));
  return ParseWal(data, path, /*keep_records=*/true);
}

}  // namespace persist
}  // namespace graphitti
