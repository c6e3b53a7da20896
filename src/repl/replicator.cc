// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "repl/replicator.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "events/occurrence.h"
#include "txn/wal.h"

namespace sentinel {
namespace repl {

Replicator::Replicator(Database* db, ReplicatorOptions options)
    : db_(db),
      options_(std::move(options)),
      mirror_(options_.mirror_dir, options_.mirror_segment_bytes),
      epoch_(options_.initial_epoch) {
  MetricsRegistry* registry = db_->metrics();
  mirror_.SetMetrics(registry, "repl.mirror");
  m_ship_polls_ = registry->counter("repl.ship_polls");
  m_ship_empty_polls_ = registry->counter("repl.ship_empty_polls");
  m_wal_resets_ = registry->counter("repl.wal_resets");
}

Replicator::~Replicator() { Stop(); }

Status Replicator::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::OK();
  SENTINEL_RETURN_IF_ERROR(mirror_.Open());
  // Mirror every occurrence the moment it fans out. The observer runs on
  // the mutator thread; Append serializes internally, and the mirror's
  // append order is exactly the total order followers replay in. A mirror
  // write failure must not fail the raise that produced it — history has
  // flush-level durability by contract — so the status is dropped here and
  // surfaces, if persistent, as a stalled ship cursor.
  observer_ = db_->AddOccurrenceObserver(
      [this](const EventOccurrence& occ) { (void)mirror_.Append(occ); });
  db_->store()->SetWalRetentionFloor([this] { return RetentionFloor(); });
  started_ = true;
  return Status::OK();
}

Status Replicator::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_) return Status::OK();
  observer_.reset();  // Next fan-out prunes the slot.
  db_->store()->SetWalRetentionFloor(nullptr);
  {
    std::lock_guard<std::mutex> cursors(cursors_mu_);
    cursors_.clear();
  }
  started_ = false;
  return mirror_.Close();
}

void Replicator::TrackCursor(const std::shared_ptr<net::Session>& session,
                             uint64_t lsn) {
  std::lock_guard<std::mutex> lock(cursors_mu_);
  SessionCursor& cursor = cursors_[session->id()];
  cursor.session = session;
  cursor.lsn = lsn;
}

uint64_t Replicator::RetentionFloor() {
  std::lock_guard<std::mutex> lock(cursors_mu_);
  uint64_t floor = std::numeric_limits<uint64_t>::max();
  for (auto it = cursors_.begin(); it != cursors_.end();) {
    std::shared_ptr<const net::Session> session = it->second.session.lock();
    if (session == nullptr ||
        session->closed.load(std::memory_order_acquire)) {
      it = cursors_.erase(it);
      continue;
    }
    floor = std::min(floor, it->second.lsn);
    ++it;
  }
  return floor;
}

Status Replicator::HandleReplSubscribe(
    const std::shared_ptr<net::Session>& session,
    const net::ReplSubscribeMsg& msg, net::ReplBatchMsg* reply) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_) return Status::FailedPrecondition("replicator not started");
  SENTINEL_FAILPOINT("repl.subscribe");

  // Epoch fencing: a higher epoch in the request is a newer primary's
  // authority. Adopt it and step down before serving anything.
  uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (msg.epoch > epoch) {
    epoch_.store(msg.epoch, std::memory_order_release);
    epoch = msg.epoch;
    db_->Demote();
  }
  reply->epoch = epoch;
  reply->primary = db_->is_replica() ? 0 : 1;
  reply->mode = msg.mode;

  SENTINEL_RETURN_IF_ERROR(FillProbe(reply));

  const size_t max_items =
      msg.max_items != 0 ? msg.max_items : options_.default_max_items;
  switch (msg.mode) {
    case net::ReplSubscribeMsg::kProbe:
      return Status::OK();
    case net::ReplSubscribeMsg::kSnapshot:
      return FillSnapshot(session, msg, max_items, reply);
    case net::ReplSubscribeMsg::kTail:
      return FillTail(session, msg, max_items, reply);
    default:
      return Status::InvalidArgument("unknown replication mode");
  }
}

Status Replicator::FillProbe(net::ReplBatchMsg* reply) {
  WalManager* wal = db_->store()->wal();
  SENTINEL_ASSIGN_OR_RETURN(reply->wal_base_lsn, wal->BaseLsn());
  SENTINEL_ASSIGN_OR_RETURN(reply->wal_end_lsn, wal->CurrentLsn());
  reply->mirror_total = mirror_.TotalRecords();
  return Status::OK();
}

Status Replicator::FillSnapshot(const std::shared_ptr<net::Session>& session,
                                const net::ReplSubscribeMsg& msg,
                                size_t max_items, net::ReplBatchMsg* reply) {
  SENTINEL_FAILPOINT("repl.ship.snapshot");
  // Capture the WAL position *before* reading any image: a commit racing
  // this chunk either made it into the images below or sits in the WAL at
  // or past this LSN. Tailing from the first chunk's snapshot_lsn therefore
  // replays (idempotently) everything the fuzzy walk missed — so the first
  // chunk's LSN is also what this session will read the WAL from.
  SENTINEL_ASSIGN_OR_RETURN(reply->snapshot_lsn,
                            db_->store()->wal()->CurrentLsn());
  if (msg.after_oid == 0) TrackCursor(session, reply->snapshot_lsn);

  bool more = false;
  const std::vector<Oid> oids =
      db_->store()->OidsAfter(msg.after_oid, max_items, &more);
  reply->next_oid = oids.empty() ? msg.after_oid : oids.back();
  reply->snapshot_done = more ? 0 : 1;
  for (Oid oid : oids) {
    if (oid == kReplStateOid) continue;  // Follower-local bookkeeping.
    net::ReplBatchMsg::ObjectImage image;
    image.oid = oid;
    Status s = db_->store()->Get(nullptr, oid, &image.class_name,
                                 &image.state);
    if (s.IsNotFound()) continue;  // Deleted since the walk; WAL replays it.
    SENTINEL_RETURN_IF_ERROR(s);
    reply->objects.push_back(std::move(image));
  }
  return Status::OK();
}

Status Replicator::FillTail(const std::shared_ptr<net::Session>& session,
                            const net::ReplSubscribeMsg& msg,
                            size_t max_items, net::ReplBatchMsg* reply) {
  SENTINEL_FAILPOINT("repl.ship.tail");
  metrics::Add(m_ship_polls_);

  // WAL suffix.
  std::vector<WalRecord> records;
  uint64_t next_lsn = msg.next_lsn;
  Status rs = db_->store()->wal()->ReadFrom(msg.next_lsn, max_items,
                                            &records, &next_lsn);
  if (rs.IsOutOfRange()) {
    // A checkpoint truncated the requested position away — this follower
    // fell too far behind to tail; it must re-snapshot.
    reply->wal_reset = 1;
    reply->next_lsn = msg.next_lsn;
    metrics::Add(m_wal_resets_);
  } else {
    SENTINEL_RETURN_IF_ERROR(rs);
    // The request cursor becomes this session's retention floor once it is
    // known to be a record boundary: a CRC-valid record was read at it, or
    // it is the log end. A checkpoint truncating mid-record would corrupt
    // the log, so an unproven cursor keeps the session's previous one.
    if (!records.empty() || msg.next_lsn == reply->wal_end_lsn) {
      TrackCursor(session, msg.next_lsn);
    }
    reply->wal.reserve(records.size());
    for (WalRecord& rec : records) {
      net::ReplBatchMsg::WalEntry entry;
      entry.type = static_cast<uint8_t>(rec.type);
      entry.txn = rec.txn;
      entry.oid = rec.oid;
      entry.payload = std::move(rec.payload);
      reply->wal.push_back(std::move(entry));
    }
    reply->next_lsn = next_lsn;
  }

  // Occurrence mirror suffix: the CRC-checked record bodies exactly as the
  // mirror holds them (the follower decodes with
  // HistorySegmentStore::DecodeRecordBody).
  uint64_t next_ordinal = msg.after_ordinal;
  SENTINEL_RETURN_IF_ERROR(mirror_.ScanFrom(
      msg.after_ordinal, max_items, &reply->occ_records, &next_ordinal));
  reply->next_ordinal = next_ordinal;
  if (reply->wal.empty() && reply->occ_records.empty()) {
    metrics::Add(m_ship_empty_polls_);
  }
  return Status::OK();
}

}  // namespace repl
}  // namespace sentinel
