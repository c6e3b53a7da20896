// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "histlog/segment_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace sentinel {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSegPrefix = "seg-";
constexpr const char* kSegSuffix = ".hist";

std::string SegmentPath(const std::string& dir, uint64_t id) {
  return dir + "/" + kSegPrefix + std::to_string(id) + kSegSuffix;
}

/// splitmix64: cheap, well-mixed hash for the oid bloom filter.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Read-only handle for positional reads of one segment file.
class SegmentFile {
 public:
  explicit SegmentFile(const std::string& path)
      : path_(path), fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~SegmentFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  Result<uint64_t> Size() const {
    struct stat st;
    if (fd_ < 0 || ::fstat(fd_, &st) != 0) {
      return Status::IOError("cannot stat " + path_);
    }
    return static_cast<uint64_t>(st.st_size);
  }

  /// Reads exactly bytes [begin, end) into `*out`.
  Status Read(uint64_t begin, uint64_t end, std::string* out) const {
    if (fd_ < 0) return Status::IOError("cannot open " + path_);
    out->resize(end - begin);
    size_t got = 0;
    while (got < out->size()) {
      ssize_t n = ::pread(fd_, out->data() + got, out->size() - got,
                          static_cast<off_t>(begin + got));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("short read of " + path_);
      got += static_cast<size_t>(n);
    }
    return Status::OK();
  }

 private:
  const std::string path_;
  const int fd_;
};

}  // namespace

void HistorySegmentStore::SegmentStats::Observe(const EventOccurrence& occ) {
  ++record_count;
  min_seq = std::min(min_seq, occ.timestamp.seq);
  max_seq = std::max(max_seq, occ.timestamp.seq);
  min_micros = std::min(min_micros, occ.timestamp.micros);
  max_micros = std::max(max_micros, occ.timestamp.micros);
  BloomAdd(&bloom, occ.oid);
}

void HistorySegmentStore::BloomAdd(std::string* bloom, Oid oid) {
  uint64_t h = Mix64(oid);
  for (int k = 0; k < 4; ++k) {
    uint32_t bit = static_cast<uint32_t>(h >> (k * 16)) &
                   (kBloomBytes * 8 - 1);
    (*bloom)[bit / 8] |= static_cast<char>(1u << (bit % 8));
  }
}

bool HistorySegmentStore::BloomMayContain(const std::string& bloom, Oid oid) {
  uint64_t h = Mix64(oid);
  for (int k = 0; k < 4; ++k) {
    uint32_t bit = static_cast<uint32_t>(h >> (k * 16)) &
                   (kBloomBytes * 8 - 1);
    if ((bloom[bit / 8] & static_cast<char>(1u << (bit % 8))) == 0) {
      return false;
    }
  }
  return true;
}

std::string HistorySegmentStore::EncodeRecord(const EventOccurrence& occ) {
  Encoder body;
  body.PutU64(occ.oid);
  body.PutString(occ.class_name);
  body.PutString(occ.method);
  body.PutU8(static_cast<uint8_t>(occ.modifier));
  body.PutValueList(occ.params);
  body.PutI64(occ.timestamp.micros);
  body.PutU64(occ.timestamp.seq);

  Encoder framed;
  framed.PutU32(static_cast<uint32_t>(body.size()));
  framed.PutU32(Crc32c(body.buffer().data(), body.size()));
  framed.PutRaw(body.buffer().data(), body.size());
  return framed.Release();
}

Status HistorySegmentStore::DecodeRecordBody(const std::string& body,
                                             EventOccurrence* occ) {
  return DecodeRecordBody(body.data(), body.size(), occ);
}

Status HistorySegmentStore::DecodeRecordBody(const char* body, size_t len,
                                             EventOccurrence* occ) {
  Decoder dec(body, len);
  uint64_t oid = 0;
  uint8_t modifier = 0;
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&oid));
  occ->oid = oid;
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&occ->class_name));
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&occ->method));
  SENTINEL_RETURN_IF_ERROR(dec.GetU8(&modifier));
  occ->modifier = static_cast<EventModifier>(modifier);
  SENTINEL_RETURN_IF_ERROR(dec.GetValueList(&occ->params));
  SENTINEL_RETURN_IF_ERROR(dec.GetI64(&occ->timestamp.micros));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&occ->timestamp.seq));
  occ->txn = nullptr;
  return Status::OK();
}

template <typename Fn>
size_t HistorySegmentStore::WalkFrames(const char* data, size_t size,
                                       Fn&& fn) {
  size_t pos = 0;
  while (size - pos >= 8) {
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, data + pos, 4);
    if (len == kFooterSentinel) break;  // Footer reached: done.
    std::memcpy(&crc, data + pos + 4, 4);
    if (size - pos - 8 < len) break;  // Torn tail.
    const char* body = data + pos + 8;
    // Mid-file corruption would already have failed recovery; a bad CRC
    // is a torn tail.
    if (Crc32c(body, len) != crc) break;
    if (!fn(body, static_cast<size_t>(len))) break;
    pos += 8 + len;
  }
  return pos;
}

void HistorySegmentStore::SegmentInfo::Index(uint64_t seq,
                                             size_t frame_bytes) {
  if (records % kBlockRecords == 0) {
    Block block;
    block.offset = bytes;
    block.first = records;
    blocks.push_back(block);
  }
  Block& block = blocks.back();
  block.min_seq = std::min(block.min_seq, seq);
  block.max_seq = std::max(block.max_seq, seq);
  ++records;
  bytes += frame_bytes;
}

std::string HistorySegmentStore::EncodeFooter(const SegmentStats& stats) {
  Encoder body;
  body.PutU64(stats.record_count);
  body.PutU64(stats.min_seq);
  body.PutU64(stats.max_seq);
  body.PutI64(stats.min_micros);
  body.PutI64(stats.max_micros);
  body.PutRaw(stats.bloom.data(), stats.bloom.size());

  Encoder footer;
  footer.PutU32(kFooterSentinel);
  footer.PutRaw(body.buffer().data(), body.size());
  footer.PutU32(Crc32c(body.buffer().data(), body.size()));
  footer.PutRaw(kFooterMagic, 4);
  return footer.Release();
}

size_t HistorySegmentStore::FooterSize() {
  // sentinel + 5 u64-wide stats + bloom + crc + magic.
  return 4 + 40 + kBloomBytes + 4 + 4;
}

bool HistorySegmentStore::DecodeFooter(const std::string& tail,
                                       SegmentStats* stats) {
  const size_t size = FooterSize();
  if (tail.size() < size) return false;
  const char* p = tail.data() + (tail.size() - size);
  if (std::memcmp(tail.data() + tail.size() - 4, kFooterMagic, 4) != 0) {
    return false;
  }
  Decoder dec(p, size - 4);
  uint32_t sentinel = 0;
  if (!dec.GetU32(&sentinel).ok() || sentinel != kFooterSentinel) {
    return false;
  }
  const char* body = p + 4;
  const size_t body_len = 40 + kBloomBytes;
  uint32_t want_crc = 0;
  std::memcpy(&want_crc, p + 4 + body_len, 4);
  if (Crc32c(body, body_len) != want_crc) return false;
  Decoder bd(body, body_len);
  bd.GetU64(&stats->record_count).ok();
  bd.GetU64(&stats->min_seq).ok();
  bd.GetU64(&stats->max_seq).ok();
  bd.GetI64(&stats->min_micros).ok();
  bd.GetI64(&stats->max_micros).ok();
  stats->bloom.assign(body + 40, kBloomBytes);
  return true;
}

HistorySegmentStore::HistorySegmentStore(std::string dir,
                                         size_t segment_bytes)
    : dir_(std::move(dir)),
      segment_bytes_(segment_bytes == 0 ? 1 : segment_bytes) {}

HistorySegmentStore::~HistorySegmentStore() { Close().ok(); }

Status HistorySegmentStore::Open() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (open_) return Status::OK();
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create history dir " + dir_ + ": " +
                           ec.message());
  }
  segments_.clear();
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSegPrefix, 0) != 0) continue;
    const size_t suffix_at = name.find(kSegSuffix);
    if (suffix_at == std::string::npos) continue;
    SegmentInfo info;
    info.path = entry.path().string();
    info.id = std::strtoull(name.c_str() + 4, nullptr, 10);
    segments_.push_back(std::move(info));
  }
  if (ec) {
    return Status::IOError("cannot list history dir " + dir_ + ": " +
                           ec.message());
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              return a.id < b.id;
            });
  next_id_ = segments_.empty() ? 0 : segments_.back().id + 1;
  for (SegmentInfo& info : segments_) {
    SENTINEL_RETURN_IF_ERROR(InspectSegment(&info));
  }
  // Resume appending into an unsealed tail segment; a sealed tail (or an
  // empty store) starts a fresh segment lazily at the first Append.
  active_ = nullptr;
  torn_ = false;
  if (!segments_.empty() && !segments_.back().sealed) {
    SENTINEL_RETURN_IF_ERROR(RecoverActiveLocked(&segments_.back()));
  }
  open_ = true;
  return Status::OK();
}

Status HistorySegmentStore::InspectSegment(SegmentInfo* info) const {
  SegmentFile file(info->path);
  SENTINEL_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  std::string tail;
  SENTINEL_RETURN_IF_ERROR(
      file.Read(size - std::min<uint64_t>(size, FooterSize()), size, &tail));
  info->sealed = DecodeFooter(tail, &info->stats);
  return Status::OK();
}

Status HistorySegmentStore::IndexLocked(SegmentInfo* info) const {
  if (info->indexed) return Status::OK();
  SegmentFile file(info->path);
  SENTINEL_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  std::string bytes;
  SENTINEL_RETURN_IF_ERROR(file.Read(0, size, &bytes));
  WalkFrames(bytes.data(), bytes.size(), [&](const char* body, size_t len) {
    EventOccurrence occ;
    if (!DecodeRecordBody(body, len, &occ).ok()) return false;
    info->Index(occ.timestamp.seq, 8 + len);
    return true;
  });
  metrics::Add(m_scan_bytes_, bytes.size());
  metrics::Add(m_scan_records_, info->records);
  info->indexed = true;
  return Status::OK();
}

Status HistorySegmentStore::RecoverActiveLocked(SegmentInfo* info) {
  // Walk the records, rebuilding the footer stats and the block index; a
  // torn tail (crash mid append) is truncated so the resumed segment stays
  // well-formed.
  std::string bytes;
  {
    SegmentFile file(info->path);
    SENTINEL_ASSIGN_OR_RETURN(uint64_t size, file.Size());
    SENTINEL_RETURN_IF_ERROR(file.Read(0, size, &bytes));
  }
  info->stats = SegmentStats();
  const size_t pos = WalkFrames(
      bytes.data(), bytes.size(), [&](const char* body, size_t len) {
        EventOccurrence occ;
        if (!DecodeRecordBody(body, len, &occ).ok()) return false;
        info->stats.Observe(occ);
        info->Index(occ.timestamp.seq, 8 + len);
        return true;
      });
  info->indexed = true;
  if (pos < bytes.size()) {
    SENTINEL_WARN << "history segment " << info->path << " torn at " << pos
                  << " of " << bytes.size() << " bytes; truncating";
    std::error_code ec;
    fs::resize_file(info->path, pos, ec);
    if (ec) {
      return Status::IOError("cannot truncate " + info->path + ": " +
                             ec.message());
    }
  }
  active_ = std::fopen(info->path.c_str(), "ab");
  if (active_ == nullptr) {
    return Status::IOError("cannot reopen history segment " + info->path);
  }
  return Status::OK();
}

Status HistorySegmentStore::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_ && active_ == nullptr) return Status::OK();
  if (active_ != nullptr) {
    if (FailPoints::AnyActive() && FailPoints::Instance().crashed()) {
      // Simulated crash: drop buffered appends instead of letting fclose
      // flush them (same idiom as WalManager/DiskManager).
      ::close(fileno(active_));
    } else {
      std::fflush(active_);
    }
    std::fclose(active_);
    active_ = nullptr;
  }
  open_ = false;
  return Status::OK();
}

Status HistorySegmentStore::OpenActiveLocked() {
  SegmentInfo info;
  info.id = next_id_++;
  info.path = SegmentPath(dir_, info.id);
  info.sealed = false;
  info.indexed = true;
  active_ = std::fopen(info.path.c_str(), "wb");
  if (active_ == nullptr) {
    return Status::IOError("cannot create history segment " + info.path);
  }
  segments_.push_back(std::move(info));
  return Status::OK();
}

Status HistorySegmentStore::SealActiveLocked() {
  if (FailPoints::AnyActive()) {
    SENTINEL_RETURN_IF_ERROR(FailPoints::Instance().Check("histlog.rotate"));
  }
  SegmentInfo& info = segments_.back();
  const std::string footer = EncodeFooter(info.stats);
  if (std::fwrite(footer.data(), 1, footer.size(), active_) !=
      footer.size()) {
    return Status::IOError("history segment seal failed");
  }
  std::fflush(active_);
  std::fclose(active_);
  active_ = nullptr;
  info.sealed = true;  // The block index stays as built by Append.
  ++segments_sealed_;
  metrics::Add(m_rotations_);
  return Status::OK();
}

Status HistorySegmentStore::Append(const EventOccurrence& occ) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_) return Status::FailedPrecondition("history store not open");
  if (torn_) {
    return Status::IOError("history segment torn by a partial append");
  }
  const std::string framed = EncodeRecord(occ);
  if (active_ != nullptr &&
      segments_.back().bytes + framed.size() > segment_bytes_ &&
      segments_.back().records > 0) {
    SENTINEL_RETURN_IF_ERROR(SealActiveLocked());
  }
  if (active_ == nullptr) {
    SENTINEL_RETURN_IF_ERROR(OpenActiveLocked());
  }
  if (FailPoints::AnyActive()) {
    size_t partial = 0;
    Status fp = FailPoints::Instance().Check("histlog.append", &partial);
    if (!fp.ok()) {
      if (partial > 0) {
        // Torn write: a prefix of the frame reaches the file.
        std::fwrite(framed.data(), 1, std::min(partial, framed.size()),
                    active_);
        std::fflush(active_);
        torn_ = true;
      }
      return fp;
    }
  }
  if (std::fwrite(framed.data(), 1, framed.size(), active_) !=
      framed.size()) {
    return Status::IOError("history append failed");
  }
  SegmentInfo& info = segments_.back();
  info.stats.Observe(occ);
  info.Index(occ.timestamp.seq, framed.size());
  ++appended_total_;
  metrics::Add(m_appends_);
  return Status::OK();
}

Status HistorySegmentStore::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_ != nullptr) std::fflush(active_);
  return Status::OK();
}

Status HistorySegmentStore::ScanFrom(uint64_t after_ordinal,
                                     size_t max_rows,
                                     std::vector<std::string>* bodies,
                                     uint64_t* next_ordinal) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_) return Status::FailedPrecondition("history store not open");
  *next_ordinal = after_ordinal;
  uint64_t room = max_rows == 0 ? UINT64_MAX : max_rows;  // Rows left.
  uint64_t base = 0;  // Ordinal of the record before this segment's first.
  for (SegmentInfo& info : segments_) {
    if (room == 0) break;
    const uint64_t count = info.stats.record_count;
    if (base + count <= after_ordinal) {
      base += count;  // Wholly behind the cursor.
      continue;
    }
    SENTINEL_RETURN_IF_ERROR(IndexLocked(&info));
    // Segment-local index of the first record to ship; records the index
    // does not cover (a corrupt sealed segment) are never skipped over.
    const uint64_t skip = after_ordinal > base ? after_ordinal - base : 0;
    if (skip >= info.records) break;
    const uint64_t want = std::min(info.records - skip, room);
    const size_t first_block = skip / kBlockRecords;
    const size_t last_block = (skip + want - 1) / kBlockRecords;
    if (active_ != nullptr) std::fflush(active_);
    std::string bytes;
    SENTINEL_RETURN_IF_ERROR(SegmentFile(info.path).Read(
        info.blocks[first_block].offset, info.BlockEnd(last_block), &bytes));
    metrics::Add(m_scan_bytes_, bytes.size());
    const uint64_t begin = info.blocks[first_block].first;
    const uint64_t stop = skip + want;
    uint64_t local = begin;
    WalkFrames(bytes.data(), bytes.size(), [&](const char* body, size_t len) {
      if (local >= skip) bodies->emplace_back(body, len);
      return ++local < stop;
    });
    metrics::Add(m_scan_records_, local - begin);
    if (local > skip) {
      *next_ordinal = base + local;
      room -= local - skip;
    }
    if (local < count) break;  // Row cap, or an unreadable suffix.
    base += count;
  }
  return Status::OK();
}

Status HistorySegmentStore::Scan(const HistoryQuery& query,
                                 std::vector<EventOccurrence>* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_) return Status::FailedPrecondition("history store not open");
  if (active_ != nullptr) std::fflush(active_);
  for (SegmentInfo& info : segments_) {
    if (info.sealed) {
      // Footer pruning: skip the whole segment when the stats prove no
      // record can match.
      const SegmentStats& st = info.stats;
      if (st.max_seq < query.min_seq || st.max_seq <= query.after_seq ||
          st.min_seq > query.max_seq ||
          st.max_micros < query.min_micros ||
          st.min_micros > query.max_micros ||
          (query.oid != kInvalidOid &&
           !BloomMayContain(st.bloom, query.oid))) {
        metrics::Add(m_scan_skipped_);
        continue;
      }
    }
    SENTINEL_RETURN_IF_ERROR(IndexLocked(&info));
    std::optional<SegmentFile> file;  // Opened at the first unpruned block.
    for (size_t b = 0; b < info.blocks.size(); ++b) {
      // Block pruning by seq range only: a resumed active segment may hold
      // seqs from before a restart, so seqs are not monotone in a segment.
      const Block& block = info.blocks[b];
      if (block.max_seq < query.min_seq || block.max_seq <= query.after_seq ||
          block.min_seq > query.max_seq) {
        continue;
      }
      if (!file) file.emplace(info.path);
      std::string bytes;
      SENTINEL_RETURN_IF_ERROR(
          file->Read(block.offset, info.BlockEnd(b), &bytes));
      metrics::Add(m_scan_bytes_, bytes.size());
      bool done = false;
      uint64_t walked = 0;
      const size_t pos = WalkFrames(
          bytes.data(), bytes.size(), [&](const char* body, size_t len) {
            ++walked;
            EventOccurrence occ;
            if (!DecodeRecordBody(body, len, &occ).ok()) return false;
            if (query.Matches(occ)) {
              out->push_back(std::move(occ));
              done = query.limit != 0 && out->size() >= query.limit;
            }
            return !done;
          });
      metrics::Add(m_scan_records_, walked);
      if (done) return Status::OK();
      if (pos < bytes.size()) break;  // Unreadable record: rest of segment.
    }
  }
  return Status::OK();
}

uint64_t HistorySegmentStore::TotalRecords() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const SegmentInfo& info : segments_) total += info.stats.record_count;
  return total;
}

uint64_t HistorySegmentStore::appended_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_total_;
}

uint64_t HistorySegmentStore::segments_sealed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_sealed_;
}

size_t HistorySegmentStore::segment_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_.size();
}

void HistorySegmentStore::SetMetrics(MetricsRegistry* registry,
                                     const std::string& prefix) {
  m_appends_ = registry->counter(prefix + ".appends");
  m_rotations_ = registry->counter(prefix + ".rotations");
  m_scan_skipped_ = registry->counter(prefix + ".scan_segments_skipped");
  m_scan_bytes_ = registry->counter(prefix + ".scan_bytes_read");
  m_scan_records_ = registry->counter(prefix + ".scan_records_read");
}

}  // namespace sentinel
