// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "shmtp/handle.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace sentinel {
namespace shmtp {

namespace {

bool PidDead(uint32_t pid) {
  return pid != 0 && kill(static_cast<pid_t>(pid), 0) < 0 && errno == ESRCH;
}

}  // namespace

Result<std::unique_ptr<ShmHandle>> ShmHandle::Attach(
    const std::string& segment) {
  int fd = shm_open(segment.c_str(), O_RDWR, 0);
  if (fd < 0) {
    return Status::NotFound("shm_open(" + segment +
                            "): " + std::strerror(errno));
  }
  struct stat st;
  if (fstat(fd, &st) != 0 ||
      static_cast<uint64_t>(st.st_size) < sizeof(Superblock)) {
    close(fd);
    return Status::Corruption("shmtp segment too small: " + segment);
  }
  uint64_t map_bytes = static_cast<uint64_t>(st.st_size);
  void* mapped =
      mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (mapped == MAP_FAILED) {
    return Status::IOError("mmap(shm): " + std::string(std::strerror(errno)));
  }
  char* base = static_cast<char*>(mapped);
  Superblock* sb = reinterpret_cast<Superblock*>(base);

  Status reject = Status::OK();
  SegmentLayout layout;
  if (sb->magic != kSegmentMagic) {
    reject = Status::Corruption("shmtp segment magic mismatch");
  } else if (sb->layout_version != kLayoutVersion) {
    reject = Status::FailedPrecondition(
        "shmtp layout version " + std::to_string(sb->layout_version) +
        " != supported " + std::to_string(kLayoutVersion));
  } else if (sb->host_state.load(std::memory_order_acquire) !=
             kHostServing) {
    reject = Status::FailedPrecondition("shmtp host is not serving");
  } else if (PidDead(sb->host_pid)) {
    reject = Status::FailedPrecondition("shmtp host process is gone");
  } else {
    layout = SegmentLayout{sb->ring_count, sb->job_ring_bytes,
                           sb->cpl_ring_bytes};
    if (layout.total_bytes() > map_bytes ||
        sb->segment_bytes != layout.total_bytes()) {
      reject = Status::Corruption("shmtp segment size inconsistent");
    }
  }
  if (!reject.ok()) {
    munmap(mapped, map_bytes);
    return reject;
  }

  for (uint32_t i = 0; i < sb->ring_count; ++i) {
    RingHeader* rh =
        reinterpret_cast<RingHeader*>(base + layout.header_offset(i));
    uint32_t expect = kRingFree;
    if (!rh->state.compare_exchange_strong(expect, kRingAttaching,
                                           std::memory_order_acq_rel)) {
      continue;
    }
    rh->pid.store(static_cast<uint32_t>(getpid()),
                  std::memory_order_relaxed);
    rh->epoch.store(
        sb->attach_epoch.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    // The host resets all cursors before releasing a slot to kRingFree,
    // so this tenancy starts from a clean stream on both directions.
    rh->state.store(kRingAttached, std::memory_order_release);

    auto handle = std::unique_ptr<ShmHandle>(new ShmHandle());
    handle->sb_ = sb;
    handle->rh_ = rh;
    handle->base_ = base;
    handle->job_ = base + layout.job_offset(i);
    handle->cpl_ = base + layout.cpl_offset(i);
    handle->map_bytes_ = map_bytes;
    handle->job_cap_ = sb->job_ring_bytes;
    handle->cpl_cap_ = sb->cpl_ring_bytes;
    handle->ring_ = i;
    return handle;
  }
  munmap(mapped, map_bytes);
  return Status::ResourceExhausted("shmtp: every producer ring is claimed");
}

ShmHandle::~ShmHandle() {
  if (base_ == nullptr) return;
  if (!abandon_) {
    rh_->state.store(kRingClosed, std::memory_order_release);
    // Ring the doorbell so an idle host reclaims the slot promptly.
    if (sb_->doorbell.exchange(kDoorbellAwake, std::memory_order_seq_cst) ==
        kDoorbellParked) {
      FutexWake(&sb_->doorbell, 1);
    }
  }
  munmap(base_, map_bytes_);
}

Status ShmHandle::AppendFrame(std::string_view frame) {
  if (sb_->host_state.load(std::memory_order_acquire) != kHostServing) {
    return Status::FailedPrecondition("shmtp host is not serving");
  }
  const uint64_t need = kJobRecordPrefix + frame.size();
  if (need > job_cap_) {
    return Status::InvalidArgument("frame larger than the shmtp job ring");
  }
  const uint64_t at =
      rh_->job_tail.load(std::memory_order_relaxed) + appended_;
  // Acquire pairs with the host's post-decode head advance: space at
  // positions < head is no longer being read.
  const uint64_t head = rh_->job_head.load(std::memory_order_acquire);
  if (job_cap_ - (at - head) < need) {
    return Status::ResourceExhausted("shmtp job ring full");
  }
  const uint32_t len = static_cast<uint32_t>(frame.size());
  RingWriteBytes(job_, job_cap_, at, &len, sizeof(len));
  RingWriteBytes(job_, job_cap_, at + kJobRecordPrefix, frame.data(),
                 frame.size());
  appended_ += need;
  return Status::OK();
}

void ShmHandle::Commit() {
  if (appended_ == 0) return;
  const uint64_t tail = rh_->job_tail.load(std::memory_order_relaxed);
  // The commit: everything before it is invisible to the host, so a crash
  // up to here leaves only unreachable records. seq_cst so the doorbell
  // check below cannot be reordered ahead of the publication (the host's
  // park runs the same store-then-recheck from the other side —
  // DESIGN.md §14.3).
  rh_->job_tail.store(tail + appended_, std::memory_order_seq_cst);
  appended_ = 0;
  if (rh_->job_head.load(std::memory_order_seq_cst) == tail) {
    // Empty -> non-empty edge: the host may be parked (or mid-park). Only
    // the producer that flips the doorbell back to Awake owns the wake
    // syscall; everyone else sees Awake and stays syscall-free.
    if (sb_->doorbell.load(std::memory_order_seq_cst) == kDoorbellParked &&
        sb_->doorbell.exchange(kDoorbellAwake,
                               std::memory_order_seq_cst) ==
            kDoorbellParked) {
      FutexWake(&sb_->doorbell, 1);
    }
  }
}

Status ShmHandle::PushFrame(std::string_view frame) {
  SENTINEL_RETURN_IF_ERROR(AppendFrame(frame));
  Commit();
  return Status::OK();
}

Status ShmHandle::ReadAckFrame(net::Frame* frame,
                               std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    if (!inbuf_.empty()) {
      size_t consumed = 0;
      Status error;
      net::DecodeProgress prog = net::TryDecodeFrame(
          inbuf_, sb_->max_frame_body, frame, &consumed, &error);
      if (prog == net::DecodeProgress::kFrame) {
        inbuf_.erase(0, consumed);
        return Status::OK();
      }
      if (prog == net::DecodeProgress::kError) return error;
    }
    const uint64_t head = rh_->cpl_head.load(std::memory_order_relaxed);
    const uint64_t tail = rh_->cpl_tail.load(std::memory_order_acquire);
    if (tail != head) {
      const size_t n = static_cast<size_t>(tail - head);
      const size_t old = inbuf_.size();
      inbuf_.resize(old + n);
      RingReadBytes(cpl_, cpl_cap_, head, inbuf_.data() + old, n);
      rh_->cpl_head.store(tail, std::memory_order_release);
      continue;
    }
    if (rh_->cpl_overflow.load(std::memory_order_acquire) != 0) {
      return Status::IOError(
          "shmtp completion region overflowed (handle fell behind)");
    }
    if (sb_->host_state.load(std::memory_order_acquire) == kHostShutdown) {
      return Status::Aborted("shmtp host shut down");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      if (PidDead(sb_->host_pid)) {
        return Status::IOError("shmtp host process died");
      }
      return Status::Busy("timed out waiting for a shmtp completion");
    }
    const uint32_t seq = rh_->cpl_seq.load(std::memory_order_acquire);
    // Recheck after capturing the futex value: the host stores cpl_tail
    // before bumping cpl_seq, so either the new bytes are visible here or
    // the bump makes the wait below return immediately.
    if (rh_->cpl_tail.load(std::memory_order_seq_cst) != head) continue;
    auto remain = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    const uint64_t wait_ms =
        std::min<uint64_t>(static_cast<uint64_t>(remain.count()) + 1, 100);
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_ms / 1000);
    ts.tv_nsec = static_cast<long>(wait_ms % 1000) * 1000000L;
    FutexWait(&rh_->cpl_seq, seq, &ts);
  }
}

void ShmHandle::TearFrameForTest(std::string_view frame) {
  const uint64_t tail =
      rh_->job_tail.load(std::memory_order_relaxed) + appended_;
  const uint32_t len = static_cast<uint32_t>(frame.size());
  RingWriteBytes(job_, job_cap_, tail, &len, sizeof(len));
  RingWriteBytes(job_, job_cap_, tail + kJobRecordPrefix, frame.data(),
                 frame.size() / 2);
  // Not counted in appended_ and no job_tail store: the record stays past
  // the committed tail, exactly as if the producer died mid-copy.
}

}  // namespace shmtp
}  // namespace sentinel
