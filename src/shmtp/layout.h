// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Shared-memory transport (shmtp) segment layout.
//
// One gateway host process owns a POSIX shm segment; local producer
// processes ("handles") attach and claim one ring slot each. Every byte
// both sides touch concurrently lives in this file's structs, so the
// cross-process protocol is auditable in one place:
//
//   Superblock | RingHeader[ring_count] | per-ring { job ring | cpl ring }
//
// Job ring: an SPSC byte ring of length-prefixed wire frames, produced by
// the handle and consumed by the host. The producer writes a batch of
// records fully, *then* publishes them all by storing job_tail once — so a
// handle that dies mid-batch leaves records past the committed tail that
// the host, by construction, never reads ("truncate torn tail" is a cursor
// reset, not a repair). Completion ring: the mirror-image SPSC byte stream
// of reply frames (the same kStatusReply / ranged kBatchStatusReply
// encodings TCP peers receive), produced by the host and consumed by the
// handle.
//
// Wakeup is futex-based: a producer's commit wakes the host through the
// superblock doorbell only on an empty->non-empty edge while the host is
// parked — at most one wake per committed batch (DESIGN.md §14 walks the
// Dekker-style handshake); the host wakes one handle through its ring's
// cpl_seq word. Futexes are non-PRIVATE because the waiter and waker are
// different processes mapping the same physical page.
//
// All cross-process atomics are lock-free u32/u64 specializations, which
// glibc/Linux implement address-free — required, since the segment maps at
// different addresses in each process.

#ifndef SENTINEL_SHMTP_LAYOUT_H_
#define SENTINEL_SHMTP_LAYOUT_H_

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <ctime>

namespace sentinel {
namespace shmtp {

/// First superblock word; doubles as an endianness/ABI sentinel.
constexpr uint64_t kSegmentMagic = 0x53484d5450303141ull;  // "SHMTP01A"

/// Bumped on any incompatible change to the structs below. A handle whose
/// layout_version differs from the mapped segment's must refuse to attach.
constexpr uint32_t kLayoutVersion = 1;

/// Ring-slot lifecycle, owned jointly: handles CAS kFree -> kAttaching and
/// store kAttached / kClosed; only the host stores kFree (after reclaim).
enum RingState : uint32_t {
  kRingFree = 0,       ///< Claimable by any handle.
  kRingAttaching = 1,  ///< A handle won the CAS and is filling in pid/epoch.
  kRingAttached = 2,   ///< Live: host serves it, pid-liveness applies.
  kRingClosed = 3,     ///< Handle detached cleanly; host reclaims.
};

/// Host lifecycle, published for handles.
enum HostState : uint32_t {
  kHostStarting = 0,
  kHostServing = 1,
  kHostShutdown = 2,  ///< Attaches refused; pending acks may still drain.
};

/// Doorbell values (a futex word in the superblock).
constexpr uint32_t kDoorbellParked = 0;
constexpr uint32_t kDoorbellAwake = 1;

struct Superblock {
  uint64_t magic = 0;
  uint32_t layout_version = 0;
  uint32_t ring_count = 0;
  uint64_t segment_bytes = 0;
  uint64_t job_ring_bytes = 0;  ///< Per ring, power-of-two not required.
  uint64_t cpl_ring_bytes = 0;  ///< Per ring.
  uint32_t max_frame_body = 0;  ///< Host's frame-body ceiling.
  uint32_t host_pid = 0;
  std::atomic<uint32_t> host_state{kHostStarting};
  /// The host's sleeping-barber word: kDoorbellAwake while the host is
  /// scanning rings, kDoorbellParked once it has armed a futex park.
  /// A producer that flips it Parked -> Awake owns the FutexWake.
  std::atomic<uint32_t> doorbell{kDoorbellAwake};
  /// Monotonic attach counter; each claimed ring records its value, so a
  /// ring slot's reuse is distinguishable from its previous tenancy.
  std::atomic<uint64_t> attach_epoch{0};
};

/// One ring slot's shared header. Cursors are monotonically increasing
/// byte counts (never wrapped; positions reduce mod the ring size), so
/// `tail - head` is always the exact number of unconsumed bytes.
struct RingHeader {
  std::atomic<uint32_t> state{kRingFree};
  std::atomic<uint32_t> pid{0};      ///< Producer pid while attached.
  std::atomic<uint64_t> epoch{0};    ///< attach_epoch at claim time.

  // Job ring (producer: handle, consumer: host).
  std::atomic<uint64_t> job_head{0};  ///< Host's read cursor.
  std::atomic<uint64_t> job_tail{0};  ///< Handle's commit cursor.

  // Completion ring (producer: host, consumer: handle).
  std::atomic<uint64_t> cpl_head{0};  ///< Handle's read cursor.
  std::atomic<uint64_t> cpl_tail{0};  ///< Host's commit cursor.
  /// Futex word the handle parks on; the host bumps it after every
  /// cpl_tail advance (the value carries no meaning beyond "changed").
  std::atomic<uint32_t> cpl_seq{0};
  /// Host sets this when a completion did not fit even an empty ring or
  /// the stream fell irrecoverably behind; fatal for the handle.
  std::atomic<uint32_t> cpl_overflow{0};
};

static_assert(std::atomic<uint32_t>::is_always_lock_free,
              "shmtp requires address-free u32 atomics");
static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "shmtp requires address-free u64 atomics");

/// Bytes of length prefix before each job-ring record's frame bytes.
constexpr size_t kJobRecordPrefix = sizeof(uint32_t);

constexpr uint64_t AlignUp(uint64_t v, uint64_t a) {
  return (v + a - 1) / a * a;
}

constexpr uint64_t kCacheLine = 64;
/// RingHeader stride: two cache lines so neighbouring producers' cursor
/// traffic does not false-share.
constexpr uint64_t kRingHeaderStride = AlignUp(sizeof(RingHeader), 128);

/// Byte offsets of every region, derived purely from the three sizing
/// parameters so host and handle compute identical maps.
struct SegmentLayout {
  uint32_t ring_count = 0;
  uint64_t job_ring_bytes = 0;
  uint64_t cpl_ring_bytes = 0;

  uint64_t headers_offset() const {
    return AlignUp(sizeof(Superblock), kCacheLine);
  }
  uint64_t header_offset(uint32_t i) const {
    return headers_offset() + uint64_t{i} * kRingHeaderStride;
  }
  uint64_t data_offset() const {
    return AlignUp(header_offset(ring_count), kCacheLine);
  }
  uint64_t ring_data_stride() const {
    return AlignUp(job_ring_bytes, kCacheLine) +
           AlignUp(cpl_ring_bytes, kCacheLine);
  }
  uint64_t job_offset(uint32_t i) const {
    return data_offset() + uint64_t{i} * ring_data_stride();
  }
  uint64_t cpl_offset(uint32_t i) const {
    return job_offset(i) + AlignUp(job_ring_bytes, kCacheLine);
  }
  uint64_t total_bytes() const {
    return data_offset() + uint64_t{ring_count} * ring_data_stride();
  }
};

/// Copies `n` bytes into a byte ring of capacity `cap` at monotonic
/// position `pos`, splitting across the wrap when needed. The caller is
/// responsible for having checked free space.
inline void RingWriteBytes(char* ring, uint64_t cap, uint64_t pos,
                           const void* src, size_t n) {
  uint64_t at = pos % cap;
  size_t first = static_cast<size_t>(std::min<uint64_t>(n, cap - at));
  std::memcpy(ring + at, src, first);
  if (first < n) {
    std::memcpy(ring, static_cast<const char*>(src) + first, n - first);
  }
}

/// Mirror of RingWriteBytes for the consumer side.
inline void RingReadBytes(const char* ring, uint64_t cap, uint64_t pos,
                          void* dst, size_t n) {
  uint64_t at = pos % cap;
  size_t first = static_cast<size_t>(std::min<uint64_t>(n, cap - at));
  std::memcpy(dst, ring + at, first);
  if (first < n) {
    std::memcpy(static_cast<char*>(dst) + first, ring, n - first);
  }
}

/// FUTEX_WAIT on `*word` while it equals `expected`, up to `timeout`
/// (nullptr = forever). Returns 0 on wake, -1 with errno on
/// EAGAIN (value already changed) / ETIMEDOUT / EINTR — all of which the
/// callers treat as "recheck state".
inline int FutexWait(std::atomic<uint32_t>* word, uint32_t expected,
                     const struct timespec* timeout) {
  return static_cast<int>(syscall(SYS_futex, reinterpret_cast<uint32_t*>(word),
                                  FUTEX_WAIT, expected, timeout, nullptr, 0));
}

/// Wakes up to `count` waiters parked on `*word`.
inline int FutexWake(std::atomic<uint32_t>* word, int count) {
  return static_cast<int>(syscall(SYS_futex, reinterpret_cast<uint32_t*>(word),
                                  FUTEX_WAKE, count, nullptr, nullptr, 0));
}

}  // namespace shmtp
}  // namespace sentinel

#endif  // SENTINEL_SHMTP_LAYOUT_H_
