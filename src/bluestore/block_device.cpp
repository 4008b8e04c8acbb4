#include "bluestore/block_device.h"

#include <algorithm>
#include <cstring>

#include "dbg/cond_var.h"
#include "sim/time_keeper.h"

namespace doceph::bluestore {

void DeviceBacking::write(std::uint64_t off, const BufferList& data) {
  const dbg::LockGuard lk(mutex_);
  std::uint64_t pos = 0;
  while (pos < data.length()) {
    const std::uint64_t abs = off + pos;
    const std::uint64_t chunk = abs / kChunk;
    const std::uint64_t in_chunk = abs % kChunk;
    const std::uint64_t n = std::min<std::uint64_t>(kChunk - in_chunk,
                                                    data.length() - pos);
    auto& bytes = chunks_[chunk];
    if (bytes.empty()) bytes.assign(kChunk, '\0');
    data.copy_out(pos, n, bytes.data() + in_chunk);
    pos += n;
  }
}

void DeviceBacking::read(std::uint64_t off, std::uint64_t len, char* out) const {
  const dbg::LockGuard lk(mutex_);
  std::uint64_t pos = 0;
  while (pos < len) {
    const std::uint64_t abs = off + pos;
    const std::uint64_t chunk = abs / kChunk;
    const std::uint64_t in_chunk = abs % kChunk;
    const std::uint64_t n = std::min<std::uint64_t>(kChunk - in_chunk, len - pos);
    auto it = chunks_.find(chunk);
    if (it == chunks_.end()) {
      std::memset(out + pos, 0, n);
    } else {
      std::memcpy(out + pos, it->second.data() + in_chunk, n);
    }
    pos += n;
  }
}

void DeviceBacking::discard(std::uint64_t off, std::uint64_t len) {
  const std::uint64_t first = (off + kChunk - 1) / kChunk;
  const std::uint64_t last = (off + len) / kChunk;  // exclusive
  if (first >= last) return;
  const dbg::LockGuard lk(mutex_);
  chunks_.erase(chunks_.lower_bound(first), chunks_.lower_bound(last));
}

BlockDevice::BlockDevice(sim::Env& env, BlockDeviceConfig cfg,
                         std::shared_ptr<DeviceBacking> backing)
    : env_(env),
      cfg_(cfg),
      backing_(backing ? std::move(backing) : std::make_shared<DeviceBacking>()) {}

void BlockDevice::fault_adjust(sim::Time& done, bool& fail) {
  auto& faults = env_.faults();
  if (!faults.any_armed()) return;
  const sim::Time now = env_.now();
  fail = faults.should_fire("bdev.io_error", now, cfg_.name);
  const fault::FaultHit spike = faults.hit("bdev.latency_spike", now, cfg_.name);
  if (spike.fired)
    done += static_cast<sim::Duration>(spike.delay_ns != 0 ? spike.delay_ns
                                                           : 10'000'000);
}

void BlockDevice::schedule_io(sim::Time done, std::function<void()> work) {
  env_.keeper().call_at(done, [alive = std::weak_ptr<int>(alive_),
                               work = std::move(work)] {
    if (!alive.expired()) work();  // else the device died with this IO in flight
  });
}

void BlockDevice::aio_write(std::uint64_t off, BufferList data, IoCb cb) {
  if (!in_range(off, data.length())) {
    if (cb) cb(Status(Errc::range_error, "write past device end"));
    return;
  }
  bytes_written_.fetch_add(data.length(), std::memory_order_relaxed);
  sim::Time done =
      channel_.reserve(env_.now(), sim::transfer_time(data.length(), cfg_.write_bw)) +
      cfg_.write_latency;
  bool fail = false;
  fault_adjust(done, fail);
  const bool retain = should_retain(off) && !fail;
  schedule_io(done, [this, off, data = std::move(data), cb = std::move(cb), retain,
                     fail] {
    // A failed IO spends the device time but leaves the media untouched.
    if (retain) backing_->write(off, data);
    if (cb) cb(fail ? Status(Errc::io_error, "fault injected: bdev.io_error")
                    : Status::OK());
  });
}

void BlockDevice::aio_read(std::uint64_t off, std::uint64_t len, ReadCb cb) {
  if (!in_range(off, len)) {
    if (cb) cb(Status(Errc::range_error, "read past device end"));
    return;
  }
  bytes_read_.fetch_add(len, std::memory_order_relaxed);
  sim::Time done =
      channel_.reserve(env_.now(), sim::transfer_time(len, cfg_.read_bw)) +
      cfg_.read_latency;
  bool fail = false;
  fault_adjust(done, fail);
  schedule_io(done, [this, off, len, cb = std::move(cb), fail] {
    if (fail) {
      cb(Status(Errc::io_error, "fault injected: bdev.io_error"));
      return;
    }
    Slice s = Slice::allocate(len);
    backing_->read(off, len, s.mutable_data());
    BufferList bl;
    bl.append(std::move(s));
    cb(std::move(bl));
  });
}

Result<BufferList> BlockDevice::read(std::uint64_t off, std::uint64_t len) {
  dbg::Mutex m{"bluestore.bdev_wait"};
  dbg::CondVar cv(env_.keeper(), "bluestore.bdev_wait");
  bool done = false;
  Result<BufferList> result = BufferList{};
  aio_read(off, len, [&](Result<BufferList> r) {
    const dbg::LockGuard lk(m);
    result = std::move(r);
    done = true;
    cv.notify_all();
  });
  dbg::UniqueLock lk(m);
  cv.wait(lk, [&] { return done; });
  return result;
}

Status BlockDevice::write(std::uint64_t off, BufferList data) {
  dbg::Mutex m{"bluestore.bdev_wait"};
  dbg::CondVar cv(env_.keeper(), "bluestore.bdev_wait");
  bool done = false;
  Status st;
  aio_write(off, std::move(data), [&](Status s) {
    const dbg::LockGuard lk(m);
    st = s;
    done = true;
    cv.notify_all();
  });
  dbg::UniqueLock lk(m);
  cv.wait(lk, [&] { return done; });
  return st;
}

void BlockDevice::flush(IoCb cb) {
  // Everything already booked on the channel is durable once the channel
  // drains; model flush as a zero-length barrier IO.
  const sim::Time done = channel_.reserve(env_.now(), 0);
  schedule_io(done, [cb = std::move(cb)] {
    if (cb) cb(Status::OK());
  });
}

}  // namespace doceph::bluestore
