// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// HistorySegmentStore: append/scan round trips, rotation + footers,
// footer-based scan pruning, torn-tail recovery, reopen-resume, and the
// block index behind ScanFrom and paged Scan (checked against reference
// walks on sealed, active, lazily indexed and torn segments).

#include "histlog/segment_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../test_util.h"
#include "common/failpoint.h"
#include "common/metrics.h"

namespace sentinel {
namespace {

using testing_util::MakeOccurrence;
using testing_util::TempDir;

TEST(SegmentStoreTest, AppendScanRoundTrip) {
  TempDir dir("hist");
  HistorySegmentStore store(dir.path(), 1 << 20);
  ASSERT_TRUE(store.Open().ok());

  std::vector<EventOccurrence> written;
  for (int i = 0; i < 20; ++i) {
    EventOccurrence occ = MakeOccurrence(
        100 + i, "Stock", "SetPrice", EventModifier::kEnd,
        {Value(static_cast<double>(i))});
    ASSERT_TRUE(store.Append(occ).ok());
    written.push_back(occ);
  }
  EXPECT_EQ(store.appended_total(), 20u);

  std::vector<EventOccurrence> got;
  ASSERT_TRUE(store.Scan({}, &got).ok());
  ASSERT_EQ(got.size(), written.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].oid, written[i].oid);
    EXPECT_EQ(got[i].class_name, "Stock");
    EXPECT_EQ(got[i].method, "SetPrice");
    EXPECT_EQ(got[i].modifier, EventModifier::kEnd);
    ASSERT_EQ(got[i].params.size(), 1u);
    EXPECT_EQ(got[i].params[0].AsDouble(), static_cast<double>(i));
    EXPECT_EQ(got[i].timestamp.seq, written[i].timestamp.seq);
    EXPECT_EQ(got[i].timestamp.micros, written[i].timestamp.micros);
  }
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, QueryFiltersSeqOidAndLimit) {
  TempDir dir("hist");
  HistorySegmentStore store(dir.path(), 1 << 20);
  ASSERT_TRUE(store.Open().ok());

  std::vector<EventOccurrence> written;
  for (int i = 0; i < 10; ++i) {
    // Alternate between two generating objects.
    EventOccurrence occ = MakeOccurrence(i % 2 == 0 ? 7 : 8, "S", "M");
    ASSERT_TRUE(store.Append(occ).ok());
    written.push_back(occ);
  }

  // Seq range: drop the first three and the last three.
  HistoryQuery range;
  range.min_seq = written[3].timestamp.seq;
  range.max_seq = written[6].timestamp.seq;
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(store.Scan(range, &got).ok());
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got.front().timestamp.seq, written[3].timestamp.seq);
  EXPECT_EQ(got.back().timestamp.seq, written[6].timestamp.seq);

  // Oid filter.
  HistoryQuery by_oid;
  by_oid.oid = 7;
  got.clear();
  ASSERT_TRUE(store.Scan(by_oid, &got).ok());
  ASSERT_EQ(got.size(), 5u);
  for (const EventOccurrence& occ : got) EXPECT_EQ(occ.oid, 7u);

  // Limit stops the scan early, keeping the oldest matches.
  HistoryQuery limited;
  limited.limit = 3;
  got.clear();
  ASSERT_TRUE(store.Scan(limited, &got).ok());
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].timestamp.seq, written[0].timestamp.seq);
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, RotationSealsSegments) {
  TempDir dir("hist");
  // Tiny rotation threshold: nearly every record lands in its own segment.
  HistorySegmentStore store(dir.path(), 64);
  ASSERT_TRUE(store.Open().ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(store.Append(MakeOccurrence(i, "Stock", "SetPrice")).ok());
  }
  EXPECT_GT(store.segments_sealed(), 4u);
  EXPECT_GT(store.segment_count(), 4u);

  // Every record survives rotation, in append order.
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(store.Scan({}, &got).ok());
  ASSERT_EQ(got.size(), 12u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_GT(got[i].timestamp.seq, got[i - 1].timestamp.seq);
  }
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, FooterPrunesSealedSegments) {
  TempDir dir("hist");
  MetricsRegistry metrics;
  HistorySegmentStore store(dir.path(), 64);
  store.SetMetrics(&metrics);
  ASSERT_TRUE(store.Open().ok());
  std::vector<EventOccurrence> written;
  for (int i = 0; i < 12; ++i) {
    EventOccurrence occ = MakeOccurrence(100 + i, "Stock", "SetPrice");
    ASSERT_TRUE(store.Append(occ).ok());
    written.push_back(occ);
  }
  ASSERT_GT(store.segments_sealed(), 4u);

  // A narrow seq window only touches the segments whose footer range
  // intersects it; the rest are skipped without reading a record.
  HistoryQuery narrow;
  narrow.min_seq = written[9].timestamp.seq;
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(store.Scan(narrow, &got).ok());
  EXPECT_EQ(got.size(), 3u);
  uint64_t skipped =
      metrics.Snapshot().counters.at("histlog.scan_segments_skipped");
  EXPECT_GT(skipped, 0u);

  // An oid no record carries: the bloom filter rejects every sealed
  // segment.
  HistoryQuery absent;
  absent.oid = 999999;
  got.clear();
  ASSERT_TRUE(store.Scan(absent, &got).ok());
  EXPECT_TRUE(got.empty());
  uint64_t skipped2 =
      metrics.Snapshot().counters.at("histlog.scan_segments_skipped");
  EXPECT_GE(skipped2, skipped + store.segments_sealed());
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, ReopenResumesActiveSegmentAndIds) {
  TempDir dir("hist");
  uint64_t first_seq = 0;
  {
    HistorySegmentStore store(dir.path(), 1 << 20);
    ASSERT_TRUE(store.Open().ok());
    EventOccurrence occ = MakeOccurrence(1, "S", "A");
    first_seq = occ.timestamp.seq;
    ASSERT_TRUE(store.Append(occ).ok());
    ASSERT_TRUE(store.Close().ok());
  }
  {
    // The unsealed tail is recovered and appending resumes into it.
    HistorySegmentStore store(dir.path(), 1 << 20);
    ASSERT_TRUE(store.Open().ok());
    EXPECT_EQ(store.segment_count(), 1u);
    ASSERT_TRUE(store.Append(MakeOccurrence(2, "S", "B")).ok());
    std::vector<EventOccurrence> got;
    ASSERT_TRUE(store.Scan({}, &got).ok());
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].timestamp.seq, first_seq);
    EXPECT_EQ(got[0].method, "A");
    EXPECT_EQ(got[1].method, "B");
    ASSERT_TRUE(store.Close().ok());
  }
}

TEST(SegmentStoreTest, TornTailIsTruncatedOnReopen) {
  TempDir dir("hist");
  {
    HistorySegmentStore store(dir.path(), 1 << 20);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Append(MakeOccurrence(1, "S", "Whole")).ok());
    ASSERT_TRUE(store.Close().ok());
  }
  // Simulate a crash mid-append: a length prefix with only part of a body.
  std::string seg0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    seg0 = entry.path().string();
  }
  ASSERT_FALSE(seg0.empty());
  {
    std::ofstream out(seg0, std::ios::binary | std::ios::app);
    uint32_t bogus_len = 500;
    out.write(reinterpret_cast<const char*>(&bogus_len), 4);
    out.write("torn", 4);
  }
  {
    HistorySegmentStore store(dir.path(), 1 << 20);
    ASSERT_TRUE(store.Open().ok());
    std::vector<EventOccurrence> got;
    ASSERT_TRUE(store.Scan({}, &got).ok());
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].method, "Whole");
    // The torn bytes were cut away; new appends extend a clean tail.
    ASSERT_TRUE(store.Append(MakeOccurrence(2, "S", "After")).ok());
    got.clear();
    ASSERT_TRUE(store.Scan({}, &got).ok());
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[1].method, "After");
    ASSERT_TRUE(store.Close().ok());
  }
}

TEST(SegmentStoreTest, CrcCatchesRecordCorruption) {
  EventOccurrence occ = MakeOccurrence(5, "S", "M");
  std::string framed = HistorySegmentStore::EncodeRecord(occ);
  // Corrupt one body byte; the body starts after [len][crc].
  std::string body = framed.substr(8);
  body[2] ^= 0x40;
  EventOccurrence decoded;
  EXPECT_TRUE(
      HistorySegmentStore::DecodeRecordBody(body, &decoded).ok());
  // DecodeRecordBody itself doesn't checksum — the store's scan does; feed
  // a malformed (truncated) body and decoding must refuse.
  EXPECT_TRUE(HistorySegmentStore::DecodeRecordBody(body.substr(0, 4),
                                                    &decoded)
                  .IsCorruption());
}

TEST(SegmentStoreTest, AppendFailpointSurfacesIOError) {
  TempDir dir("hist");
  HistorySegmentStore store(dir.path(), 1 << 20);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Append(MakeOccurrence(1, "S", "A")).ok());

  FailPoints::Instance().Reset();
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("histlog.append=ioerror@hit(1)")
          .ok());
  EXPECT_TRUE(store.Append(MakeOccurrence(2, "S", "B")).IsIOError());
  FailPoints::Instance().Reset();

  // Unlike the WAL, history appends are not sticky — the store is a cache.
  ASSERT_TRUE(store.Append(MakeOccurrence(3, "S", "C")).ok());
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(store.Scan({}, &got).ok());
  ASSERT_EQ(got.size(), 2u);
  ASSERT_TRUE(store.Close().ok());
}

/// Record bodies exactly as ScanFrom ships them, in append order.
std::vector<std::string> Bodies(const std::vector<EventOccurrence>& occs) {
  std::vector<std::string> out;
  for (const EventOccurrence& occ : occs) {
    out.push_back(HistorySegmentStore::EncodeRecord(occ).substr(8));
  }
  return out;
}

/// ScanFrom at every cursor 0..N, with and without a row cap, equals the
/// matching slice of the reference walk.
void ExpectScanFromMatches(const HistorySegmentStore& store,
                           const std::vector<std::string>& reference) {
  const uint64_t n = reference.size();
  for (size_t max_rows : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                          size_t{100}}) {
    for (uint64_t cursor = 0; cursor <= n; ++cursor) {
      std::vector<std::string> got;
      uint64_t next = 12345;
      ASSERT_TRUE(store.ScanFrom(cursor, max_rows, &got, &next).ok());
      const uint64_t want =
          max_rows == 0 ? n - cursor
                        : std::min<uint64_t>(max_rows, n - cursor);
      ASSERT_EQ(got.size(), want)
          << "cursor " << cursor << " max_rows " << max_rows;
      EXPECT_EQ(next, cursor + want) << "cursor " << cursor;
      for (uint64_t i = 0; i < want; ++i) {
        ASSERT_EQ(got[i], reference[cursor + i])
            << "cursor " << cursor << " row " << i;
      }
    }
  }
}

uint64_t CounterValue(MetricsRegistry* metrics, const std::string& name) {
  const auto counters = metrics->Snapshot().counters;
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

TEST(SegmentStoreTest, ScanFromEveryCursorMatchesReferenceWalk) {
  TempDir dir("hist");
  std::vector<EventOccurrence> written;
  // 16 KB segments: sealed segments of a few blocks each, and an active
  // one with a partial last block.
  constexpr size_t kSegmentBytes = 16384;
  {
    MetricsRegistry metrics;
    HistorySegmentStore store(dir.path(), kSegmentBytes);
    store.SetMetrics(&metrics);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 700; ++i) {
      EventOccurrence occ = MakeOccurrence(
          1000 + i % 7, "Stock", "SetPrice", EventModifier::kEnd,
          {Value(static_cast<int64_t>(i))});
      ASSERT_TRUE(store.Append(occ).ok());
      written.push_back(occ);
    }
    ASSERT_GE(store.segments_sealed(), 2u);
    ExpectScanFromMatches(store, Bodies(written));

    // A cursor at the end returns without touching a file.
    const uint64_t bytes_before =
        CounterValue(&metrics, "histlog.scan_bytes_read");
    std::vector<std::string> got;
    uint64_t next = 0;
    ASSERT_TRUE(store.ScanFrom(written.size(), 16, &got, &next).ok());
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(next, written.size());
    EXPECT_EQ(CounterValue(&metrics, "histlog.scan_bytes_read"), bytes_before);
    // One row behind the end reads only the last block, not the segment.
    ASSERT_TRUE(store.ScanFrom(written.size() - 1, 16, &got, &next).ok());
    ASSERT_EQ(got.size(), 1u);
    EXPECT_LT(CounterValue(&metrics, "histlog.scan_bytes_read") - bytes_before,
              kSegmentBytes / 2);
    ASSERT_TRUE(store.Close().ok());
  }
  {
    // Reopen: sealed segments are indexed lazily on first touch, the
    // active one during recovery; appends resume into it.
    HistorySegmentStore store(dir.path(), kSegmentBytes);
    ASSERT_TRUE(store.Open().ok());
    ExpectScanFromMatches(store, Bodies(written));
    for (int i = 0; i < 40; ++i) {
      EventOccurrence occ = MakeOccurrence(2000 + i, "Stock", "Resumed");
      ASSERT_TRUE(store.Append(occ).ok());
      written.push_back(occ);
    }
    ExpectScanFromMatches(store, Bodies(written));
    ASSERT_TRUE(store.Close().ok());
  }
  // Torn tail: a length prefix with part of a body after the last record.
  std::string last_segment;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().string() > last_segment) {
      last_segment = entry.path().string();
    }
  }
  {
    std::ofstream out(last_segment, std::ios::binary | std::ios::app);
    uint32_t bogus_len = 500;
    out.write(reinterpret_cast<const char*>(&bogus_len), 4);
    out.write("torn", 4);
  }
  {
    HistorySegmentStore store(dir.path(), kSegmentBytes);
    ASSERT_TRUE(store.Open().ok());
    EXPECT_EQ(store.TotalRecords(), written.size());
    ExpectScanFromMatches(store, Bodies(written));
    ASSERT_TRUE(store.Close().ok());
  }
}

TEST(SegmentStoreTest, PartialAppendStaysInvisibleUntilReopen) {
  TempDir dir("hist");
  std::vector<EventOccurrence> written;
  {
    HistorySegmentStore store(dir.path(), 1 << 20);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 70; ++i) {
      EventOccurrence occ = MakeOccurrence(i, "S", "M");
      ASSERT_TRUE(store.Append(occ).ok());
      written.push_back(occ);
    }
    FailPoints::Instance().Reset();
    ASSERT_TRUE(FailPoints::Instance()
                    .EnableFromSpec("histlog.append=partial(11)@once")
                    .ok());
    EXPECT_FALSE(store.Append(MakeOccurrence(99, "S", "Torn")).ok());
    FailPoints::Instance().Reset();
    // The torn bytes sit past the indexed records: reads never see them,
    // and appends refuse until a reopen truncates them.
    ExpectScanFromMatches(store, Bodies(written));
    EXPECT_FALSE(store.Append(MakeOccurrence(100, "S", "Refused")).ok());
    ASSERT_TRUE(store.Close().ok());
  }
  HistorySegmentStore store(dir.path(), 1 << 20);
  ASSERT_TRUE(store.Open().ok());
  EventOccurrence after = MakeOccurrence(101, "S", "After");
  ASSERT_TRUE(store.Append(after).ok());
  written.push_back(after);
  ExpectScanFromMatches(store, Bodies(written));
  ASSERT_TRUE(store.Close().ok());
}

/// Paged Scan with `after_seq` (plus seq bounds and limits) equals the
/// reference rows filtered the same way, in append order.
void ExpectPagedScanMatches(const HistorySegmentStore& store,
                            const std::vector<EventOccurrence>& reference) {
  std::vector<uint64_t> cuts = {0};
  for (const EventOccurrence& occ : reference) {
    cuts.push_back(occ.timestamp.seq);
  }
  for (size_t limit : {size_t{0}, size_t{1}, size_t{65}}) {
    for (size_t i = 0; i < cuts.size(); i += 3) {
      HistoryQuery q;
      q.after_seq = cuts[i];
      q.limit = limit;
      std::vector<EventOccurrence> got;
      ASSERT_TRUE(store.Scan(q, &got).ok());
      std::vector<EventOccurrence> want;
      for (const EventOccurrence& occ : reference) {
        if (limit != 0 && want.size() >= limit) break;
        if (q.Matches(occ)) want.push_back(occ);
      }
      ASSERT_EQ(got.size(), want.size())
          << "after_seq " << q.after_seq << " limit " << limit;
      for (size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].timestamp.seq, want[r].timestamp.seq)
            << "after_seq " << q.after_seq << " row " << r;
        ASSERT_EQ(got[r].oid, want[r].oid);
      }
    }
  }
  // A seq window that lies inside the data.
  HistoryQuery window;
  window.min_seq = reference[reference.size() / 3].timestamp.seq;
  window.max_seq = reference[reference.size() / 2].timestamp.seq;
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(store.Scan(window, &got).ok());
  size_t want = 0;
  for (const EventOccurrence& occ : reference) want += window.Matches(occ);
  EXPECT_EQ(got.size(), want);
}

TEST(SegmentStoreTest, PagedScanMatchesFilteredFullScan) {
  TempDir dir("hist");
  MetricsRegistry metrics;
  std::vector<EventOccurrence> written;
  // The logical clock restarts from a lower seq after a reopen, so the
  // resumed active segment holds seqs that go backwards: blocks must be
  // pruned by their own min/max, not by position.
  auto append = [&](HistorySegmentStore* store, uint64_t seq) {
    EventOccurrence occ = MakeOccurrence(seq % 5, "S", "M");
    occ.timestamp.seq = seq;
    ASSERT_TRUE(store->Append(occ).ok());
    written.push_back(occ);
  };
  {
    HistorySegmentStore store(dir.path(), 8192);
    ASSERT_TRUE(store.Open().ok());
    for (uint64_t seq = 5000; seq < 5300; ++seq) append(&store, seq);
    ASSERT_TRUE(store.Close().ok());
  }
  HistorySegmentStore store(dir.path(), 8192);
  store.SetMetrics(&metrics);
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t seq = 1; seq <= 200; ++seq) append(&store, seq);
  ExpectPagedScanMatches(store, written);

  // A page past every seq but the last few reads a block or two, not the
  // store: block pruning skips the rest.
  const uint64_t records_before =
      CounterValue(&metrics, "histlog.scan_records_read");
  HistoryQuery late;
  late.after_seq = 5295;
  late.limit = 10;
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(store.Scan(late, &got).ok());
  EXPECT_EQ(got.size(), 4u);
  EXPECT_LE(CounterValue(&metrics, "histlog.scan_records_read") -
                records_before,
            2 * HistorySegmentStore::kBlockRecords);
  ASSERT_TRUE(store.Close().ok());
}

}  // namespace
}  // namespace sentinel
