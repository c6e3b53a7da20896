// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "txn/wal.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <fstream>

#include "../test_util.h"
#include "common/codec.h"
#include "common/failpoint.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

TEST(WalTest, AppendAndReadRoundTrip) {
  TempDir dir("wal");
  WalManager wal;
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());

  ASSERT_TRUE(wal.Append({WalRecordType::kBegin, 7, 0, ""}).ok());
  ASSERT_TRUE(wal.Append({WalRecordType::kPut, 7, 101, "payload-a"}).ok());
  ASSERT_TRUE(wal.Append({WalRecordType::kDelete, 7, 102, ""}).ok());
  ASSERT_TRUE(wal.Append({WalRecordType::kCommit, 7, 0, ""}).ok());
  ASSERT_TRUE(wal.Sync().ok());

  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].type, WalRecordType::kBegin);
  EXPECT_EQ(records[1].type, WalRecordType::kPut);
  EXPECT_EQ(records[1].oid, 101u);
  EXPECT_EQ(records[1].payload, "payload-a");
  EXPECT_EQ(records[2].type, WalRecordType::kDelete);
  EXPECT_EQ(records[2].oid, 102u);
  EXPECT_EQ(records[3].type, WalRecordType::kCommit);
  for (const WalRecord& rec : records) EXPECT_EQ(rec.txn, 7u);
}

TEST(WalTest, AppendAfterReadContinuesAtEnd) {
  TempDir dir("wal");
  WalManager wal;
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
  ASSERT_TRUE(wal.Append({WalRecordType::kBegin, 1, 0, ""}).ok());
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_TRUE(wal.Append({WalRecordType::kCommit, 1, 0, ""}).ok());
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  EXPECT_EQ(records.size(), 2u);
}

TEST(WalTest, LogSurvivesReopen) {
  TempDir dir("wal");
  std::string path = dir.path() + "/wal.log";
  {
    WalManager wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append({WalRecordType::kPut, 3, 55, "x"}).ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  WalManager wal;
  ASSERT_TRUE(wal.Open(path).ok());
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].oid, 55u);
}

TEST(WalTest, TornTailIsTruncatedSilently) {
  TempDir dir("wal");
  std::string path = dir.path() + "/wal.log";
  {
    WalManager wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append({WalRecordType::kPut, 3, 55, "full record"}).ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Simulate a crash mid-append: tack on a length prefix with no body.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    uint32_t bogus_len = 1000;
    out.write(reinterpret_cast<const char*>(&bogus_len), 4);
    out.write("abc", 3);  // Far less than claimed.
  }
  WalManager wal;
  ASSERT_TRUE(wal.Open(path).ok());
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 1u);  // The torn record is dropped.
  EXPECT_EQ(records[0].payload, "full record");
}

TEST(WalTest, ResetEmptiesLog) {
  TempDir dir("wal");
  WalManager wal;
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
  ASSERT_TRUE(wal.Append({WalRecordType::kPut, 1, 2, "data"}).ok());
  auto size = wal.SizeBytes();
  ASSERT_TRUE(size.ok());
  EXPECT_GT(size.value(), 0u);
  ASSERT_TRUE(wal.Reset().ok());
  size = wal.SizeBytes();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 0u);
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  EXPECT_TRUE(records.empty());
  // Still usable after reset.
  ASSERT_TRUE(wal.Append({WalRecordType::kBegin, 9, 0, ""}).ok());
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  EXPECT_EQ(records.size(), 1u);
}

TEST(WalTest, CrcCatchesMidLogCorruption) {
  TempDir dir("wal");
  std::string path = dir.path() + "/wal.log";
  {
    WalManager wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(
        wal.Append({WalRecordType::kPut, 1, 10, "first payload"}).ok());
    ASSERT_TRUE(
        wal.Append({WalRecordType::kPut, 1, 11, "second payload"}).ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Flip one byte inside the FIRST record's body (not the tail): this is
  // mid-log rot, which replay must refuse — unlike a torn tail, silently
  // dropping it would lose a committed suffix behind it.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    // 24-byte header, then [len][crc], then body; corrupt body byte 3.
    f.seekp(24 + 8 + 3);
    f.put('\xFF');
  }
  WalManager wal;
  ASSERT_TRUE(wal.Open(path).ok());
  std::vector<WalRecord> records;
  Status s = wal.ReadAll(&records);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(WalTest, SyncFailureIsSticky) {
  TempDir dir("wal");
  WalManager wal;
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
  ASSERT_TRUE(wal.Append({WalRecordType::kPut, 1, 2, "x"}).ok());

  FailPoints::Instance().Reset();
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("wal.sync=ioerror@hit(1)").ok());
  EXPECT_TRUE(wal.Sync().IsIOError());
  FailPoints::Instance().Reset();

  // The injection is gone, but the failure poisons the log: the kernel may
  // have dropped dirty pages without saying which, so every later sync
  // refuses until the log is reopened.
  EXPECT_TRUE(wal.sync_failed());
  EXPECT_TRUE(wal.Sync().IsIOError());
  // Appends stay best-effort (the abort-record neutralization path).
  EXPECT_TRUE(wal.Append({WalRecordType::kAbort, 1, 0, ""}).ok());
}

TEST(WalTest, TruncateToDropsPrefixAndLsnsStayMonotone) {
  TempDir dir("wal");
  std::string path = dir.path() + "/wal.log";
  WalManager wal;
  ASSERT_TRUE(wal.Open(path).ok());
  ASSERT_TRUE(wal.Append({WalRecordType::kPut, 1, 10, "old-a"}).ok());
  ASSERT_TRUE(wal.Append({WalRecordType::kPut, 1, 11, "old-b"}).ok());
  auto stable = wal.CurrentLsn();
  ASSERT_TRUE(stable.ok());
  ASSERT_TRUE(wal.Append({WalRecordType::kPut, 2, 12, "new-c"}).ok());
  auto end_before = wal.CurrentLsn();
  ASSERT_TRUE(end_before.ok());

  ASSERT_TRUE(wal.TruncateTo(*stable).ok());

  // Only the suffix survives, and the LSN space did not rewind.
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "new-c");
  auto end_after = wal.CurrentLsn();
  ASSERT_TRUE(end_after.ok());
  EXPECT_EQ(*end_after, *end_before);

  // Truncating below the base is a no-op; beyond the end is an error.
  EXPECT_TRUE(wal.TruncateTo(0).ok());
  EXPECT_TRUE(wal.TruncateTo(*end_after + 1000).IsInvalidArgument());

  // LSNs keep climbing across a reopen.
  ASSERT_TRUE(wal.Close().ok());
  WalManager wal2;
  ASSERT_TRUE(wal2.Open(path).ok());
  auto reopened = wal2.CurrentLsn();
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*reopened, *end_after);
  ASSERT_TRUE(wal2.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "new-c");
}

// Writes a log holding `n` synced records and returns its path.
std::string WriteLog(const TempDir& dir, int n) {
  std::string path = dir.path() + "/wal.log";
  WalManager wal;
  EXPECT_TRUE(wal.Open(path).ok());
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(
        wal.Append({WalRecordType::kPut, 1, static_cast<uint64_t>(i), "x"})
            .ok());
  }
  EXPECT_TRUE(wal.Sync().ok());
  EXPECT_TRUE(wal.Close().ok());
  return path;
}

// One flipped bit in the magic must not turn a log of acked commits into
// an "empty" one: Open refuses it as Corruption.
TEST(WalTest, FlippedMagicBitIsCorruption) {
  TempDir dir("wal");
  std::string path = WriteLog(dir, 9);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    char c = 0;
    f.seekg(0);
    f.get(c);
    f.seekp(0);
    f.put(static_cast<char>(c ^ 0x01));
  }
  WalManager wal;
  Status s = wal.Open(path);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// A file that holds records but no header at all (the retired headerless
// format) is Corruption too, never an empty log.
TEST(WalTest, HeaderlessLogWithRecordsIsCorruption) {
  TempDir dir("wal");
  std::string path = dir.path() + "/wal.log";
  {
    Encoder body;
    body.PutU8(static_cast<uint8_t>(WalRecordType::kPut));
    body.PutU64(42);  // txn
    body.PutU64(77);  // oid
    body.PutString("headerless payload");
    Encoder framed;
    framed.PutU32(static_cast<uint32_t>(body.size()));
    framed.PutRaw(body.buffer().data(), body.size());
    std::ofstream out(path, std::ios::binary);
    out.write(framed.buffer().data(),
              static_cast<std::streamsize>(framed.size()));
  }
  WalManager wal;
  Status s = wal.Open(path);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// A file shorter than the 24-byte header can only be a crash while the log
// was being created: it holds no records and reopens as a fresh empty log.
TEST(WalTest, TornHeaderReopensAsFreshLog) {
  for (size_t torn : {1u, 3u, 4u, 16u, 23u}) {
    TempDir dir("wal");
    std::string path = WriteLog(dir, 0);
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(torn)), 0);

    WalManager wal;
    Status s = wal.Open(path);
    ASSERT_TRUE(s.ok()) << "torn at " << torn << ": " << s.ToString();
    std::vector<WalRecord> records;
    ASSERT_TRUE(wal.ReadAll(&records).ok());
    EXPECT_TRUE(records.empty());
    EXPECT_EQ(*wal.CurrentLsn(), 0u);
    // The rewritten header holds: appends survive another reopen.
    ASSERT_TRUE(wal.Append({WalRecordType::kPut, 1, 5, "after"}).ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Close().ok());
    WalManager reopened;
    ASSERT_TRUE(reopened.Open(path).ok()) << "torn at " << torn;
    ASSERT_TRUE(reopened.ReadAll(&records).ok());
    ASSERT_EQ(records.size(), 1u) << "torn at " << torn;
    EXPECT_EQ(records[0].payload, "after");
  }
}

TEST(WalTest, OperationsOnClosedWalFail) {
  WalManager wal;
  EXPECT_TRUE(wal.Append({}).IsFailedPrecondition());
  EXPECT_TRUE(wal.Sync().IsFailedPrecondition());
  std::vector<WalRecord> records;
  EXPECT_TRUE(wal.ReadAll(&records).IsFailedPrecondition());
}

}  // namespace
}  // namespace sentinel
