// Recovery planning: interprets the contents of a durable directory and
// decides what the engine should load, without knowing anything about the
// engine's own state encoding.
//
// The generation protocol it enforces:
//   - snapshot-<g> holds complete state as of checkpoint g; wal-<g> holds
//     the mutations applied after it. Recovered state = snapshot-<g> +
//     replay(wal-<g>).
//   - Generation 0 has no snapshot by construction (a fresh durable engine
//     starts with wal-0 on top of an empty engine).
//   - Checkpoint ordering (snapshot g+1 written atomically BEFORE wal g+1 is
//     created, old files deleted last) means any wal-<h> implies the state
//     it builds on was durable: h == 0, or snapshot-<h> was fully written.
//     A wal newer than every valid snapshot (h > 0) therefore indicates
//     external deletion or corruption of its base snapshot — refused with
//     kInternal rather than silently recovering stale state.
//   - Older snapshot/wal pairs than the chosen generation are stale debris
//     from a crash mid-checkpoint-cleanup; they are listed for deletion.
//   - A directory holding a retired XML/TSV save and no snapshot-*/wal-*
//     files is refused with kUnsupported, so no caller starts a fresh
//     engine on top of old data.
#ifndef GRAPHITTI_PERSIST_RECOVERY_H_
#define GRAPHITTI_PERSIST_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "persist/env.h"
#include "util/result.h"

namespace graphitti {
namespace persist {

struct RecoveryPlan {
  enum class Kind {
    kFresh,   // empty (or nonexistent) directory: start a new engine
    kBinary,  // snapshot and/or WAL present: binary recovery
  };

  Kind kind = Kind::kFresh;

  /// The generation to recover (and to reopen the WAL at). 0 for kFresh.
  uint64_t generation = 0;

  /// Verified snapshot body for `generation` (empty when generation 0 or
  /// kFresh — the base state is then a newly constructed engine).
  std::string snapshot_body;
  bool has_snapshot = false;

  /// Full path of wal-<generation> when that file exists (it may not: a
  /// crash after the snapshot rename but before the new WAL's creation
  /// leaves a snapshot without its WAL, which is a complete, valid state).
  std::string wal_path;
  bool has_wal = false;

  /// Older-generation snapshot/wal files superseded by `generation`; safe
  /// to delete after recovery succeeds.
  std::vector<std::string> stale_files;
};

/// Scans `dir` and produces the plan. Fails with kInternal when the
/// directory's contents cannot be recovered faithfully (a WAL newer than
/// every valid snapshot, or every snapshot corrupt while a WAL depends on
/// one) — never silently falls back to stale state — and with kUnsupported
/// when it holds only a retired XML/TSV save.
util::Result<RecoveryPlan> PlanRecovery(const Env& env, const std::string& dir);

}  // namespace persist
}  // namespace graphitti

#endif  // GRAPHITTI_PERSIST_RECOVERY_H_
