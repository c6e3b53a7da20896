// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// ShmHandle: the producer-side end of the shared-memory local transport.
//
// A handle attaches to a host's segment, claims one job/completion ring
// pair, and pushes fully-encoded wire frames (the same bytes a TCP client
// would write to its socket). Acks come back as wire frames too — decode
// them with the ordinary framing machinery. The hot path (AppendFrame with
// ring space, Commit onto a non-empty ring or an awake host, ReadAckFrame
// with bytes pending) performs no syscalls and no allocation beyond the
// caller's buffers.
//
// Not thread safe: one handle per producer thread, like a Connection.

#ifndef SENTINEL_SHMTP_HANDLE_H_
#define SENTINEL_SHMTP_HANDLE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/wire.h"
#include "shmtp/layout.h"

namespace sentinel {
namespace shmtp {

class ShmHandle {
 public:
  /// Maps `segment` and claims a free ring. Fails (without side effects)
  /// when the segment does not exist, was built by an incompatible layout
  /// version, the host is not serving (or its process died), or every
  /// ring slot is taken — callers treat any failure as "use TCP".
  static Result<std::unique_ptr<ShmHandle>> Attach(const std::string& segment);

  /// Clean detach: marks the ring kRingClosed (the host reclaims it) —
  /// unless AbandonForTest() was called, in which case the mapping just
  /// drops dead, exactly like a crash.
  ~ShmHandle();

  ShmHandle(const ShmHandle&) = delete;
  ShmHandle& operator=(const ShmHandle&) = delete;

  /// Writes one complete wire frame (header + body, pre-encoded) past the
  /// committed tail. The record stays invisible to the host until the next
  /// Commit, so a crash before it never exposes any appended frame.
  /// ResourceExhausted when the ring lacks space (appended frames count as
  /// used) — commit, drain acks and retry; FailedPrecondition once the host
  /// stopped serving.
  Status AppendFrame(std::string_view frame);

  /// Publishes every frame appended since the last commit with one
  /// job_tail store, and rings the doorbell at most once (only on the
  /// ring's empty -> non-empty edge while the host is parked). A no-op
  /// when nothing is appended.
  void Commit();

  /// AppendFrame + Commit: one frame, published at once.
  Status PushFrame(std::string_view frame);

  /// Decodes the next reply frame from the completion stream, waiting up
  /// to `timeout`. Busy on timeout (with the host still alive), IOError
  /// when the host process died or the completion region overflowed,
  /// Aborted when the host shut down with nothing left to read.
  Status ReadAckFrame(net::Frame* frame, std::chrono::milliseconds timeout);

  /// Ring slot this handle claimed (stable for its lifetime).
  uint32_t ring_index() const { return ring_; }
  /// Host's frame-body ceiling, from the superblock.
  uint32_t max_frame_body() const { return sb_->max_frame_body; }
  /// Job ring capacity in bytes (bounds the largest pushable frame).
  uint64_t job_ring_bytes() const { return sb_->job_ring_bytes; }

  // --- Test hooks ------------------------------------------------------------

  /// Writes `frame`'s length prefix and only the first half of its bytes
  /// past the appended tail, *without* committing — the exact footprint
  /// of a producer killed mid-AppendFrame.
  void TearFrameForTest(std::string_view frame);

  /// Disables the clean detach in the destructor, so tearing the handle
  /// down in-process looks to the host like a vanished producer (the ring
  /// stays kRingAttached with this process's pid).
  void AbandonForTest() { abandon_ = true; }

 private:
  ShmHandle() = default;

  Superblock* sb_ = nullptr;
  RingHeader* rh_ = nullptr;
  char* base_ = nullptr;
  char* job_ = nullptr;        ///< This ring's job-byte region.
  char* cpl_ = nullptr;        ///< This ring's completion-byte region.
  uint64_t map_bytes_ = 0;
  uint64_t job_cap_ = 0;
  uint64_t cpl_cap_ = 0;
  uint32_t ring_ = 0;
  uint64_t appended_ = 0;      ///< Record bytes past job_tail, uncommitted.
  bool abandon_ = false;
  std::string inbuf_;          ///< Completion bytes past the last frame.
};

}  // namespace shmtp
}  // namespace sentinel

#endif  // SENTINEL_SHMTP_HANDLE_H_
