#include "persist/recovery.h"

#include <algorithm>
#include <set>

#include "persist/snapshot.h"

namespace graphitti {
namespace persist {

using util::Result;
using util::Status;

Result<RecoveryPlan> PlanRecovery(const Env& env, const std::string& dir) {
  RecoveryPlan plan;
  Result<std::vector<std::string>> names_or = env.ListDir(dir);
  if (!names_or.ok()) return plan;  // no directory yet: fresh start

  std::set<uint64_t> snapshot_gens;
  std::set<uint64_t> wal_gens;
  bool has_manifest = false;
  for (const std::string& name : *names_or) {
    if (auto gen = ParseGeneration(name, "snapshot-")) snapshot_gens.insert(*gen);
    if (auto gen = ParseGeneration(name, "wal-")) wal_gens.insert(*gen);
    if (name == "manifest.txt") has_manifest = true;
  }

  if (snapshot_gens.empty() && wal_gens.empty()) {
    if (has_manifest) {
      return Status::Unsupported("'" + dir +
                                 "' holds a retired XML/TSV save (manifest.txt); only "
                                 "snapshot/WAL directories can be opened");
    }
    return plan;
  }
  plan.kind = RecoveryPlan::Kind::kBinary;

  // Newest valid snapshot wins. Invalid ones (torn by external causes — our
  // own writes are atomic) are skipped, but remembered: they constrain what
  // counts as a faithful recovery below.
  uint64_t chosen = 0;
  bool have_valid = false;
  std::set<uint64_t> invalid_gens;
  for (auto it = snapshot_gens.rbegin(); it != snapshot_gens.rend(); ++it) {
    Result<SnapshotContents> snap = ReadSnapshotFile(env, dir + "/" + SnapshotFileName(*it));
    if (snap.ok() && snap->generation == *it) {
      chosen = *it;
      have_valid = true;
      plan.snapshot_body = std::move(snap->body);
      plan.has_snapshot = true;
      break;
    }
    invalid_gens.insert(*it);
  }

  if (!have_valid) {
    if (!snapshot_gens.empty()) {
      return Status::Internal("no valid snapshot in '" + dir +
                              "': every snapshot file fails verification");
    }
    // WAL(s) with no snapshot: only generation 0 builds on an empty engine.
    uint64_t max_wal = *wal_gens.rbegin();
    if (max_wal > 0) {
      return Status::Internal("WAL generation " + std::to_string(max_wal) + " in '" + dir +
                              "' has no base snapshot (mismatched generations)");
    }
    chosen = 0;
  }

  // A WAL newer than the chosen snapshot implies its base snapshot was
  // durably written (checkpoint ordering) and has since been lost: refuse.
  uint64_t max_wal = wal_gens.empty() ? 0 : *wal_gens.rbegin();
  if (!wal_gens.empty() && max_wal > chosen) {
    return Status::Internal("WAL generation " + std::to_string(max_wal) +
                            " is newer than the newest valid snapshot (generation " +
                            std::to_string(chosen) + ") in '" + dir +
                            "': refusing mismatched snapshot/WAL generations");
  }

  plan.generation = chosen;
  plan.wal_path = dir + "/" + WalFileName(chosen);
  plan.has_wal = wal_gens.count(chosen) > 0;

  // An invalid snapshot NEWER than the chosen one means a later checkpoint's
  // state existed. With wal-<chosen> present the recovery is still complete
  // (the full WAL reproduces everything up to and past that checkpoint); the
  // corrupt file is stale junk. Without it, snapshot-<chosen> alone would
  // silently drop committed state — refuse.
  if (!invalid_gens.empty() && *invalid_gens.rbegin() > chosen && !plan.has_wal) {
    return Status::Internal(
        "snapshot generation " + std::to_string(*invalid_gens.rbegin()) + " in '" + dir +
        "' is corrupt and wal-" + std::to_string(chosen) +
        " is missing: recovery would lose committed state");
  }

  for (uint64_t gen : snapshot_gens) {
    if (gen != chosen) plan.stale_files.push_back(dir + "/" + SnapshotFileName(gen));
  }
  for (uint64_t gen : wal_gens) {
    if (gen != chosen) plan.stale_files.push_back(dir + "/" + WalFileName(gen));
  }
  return plan;
}

}  // namespace persist
}  // namespace graphitti
