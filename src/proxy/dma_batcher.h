#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/perf_counters.h"
#include "common/trace.h"
#include "dbg/cond_var.h"
#include "dbg/mutex.h"
#include "dpu/dpu_device.h"
#include "proxy/fallback.h"
#include "proxy/rpc_channel.h"
#include "proxy/slot_pool.h"
#include "sim/thread.h"

namespace doceph::proxy {

struct ProxyConfig;

/// Knobs for the DPU-side segment coalescer. Disabled by default: each
/// segment then flushes alone on its write worker's thread (the paper's
/// one-DMA-job-per-segment path, which Table 3's calibration encodes);
/// the production cluster profile turns it on (cluster/profiles.h).
struct DmaBatchConfig {
  bool enabled = false;
  int max_segments = 16;  ///< flush once this many segments queue
  /// Deadline doorbell: a queued segment never waits longer than this
  /// (virtual ns) for companions before its batch flushes.
  sim::Duration flush_delay = 150'000;
};

/// The one code path that stages and DMAs a write segment: a flush copies
/// a batch of segments into one staging slot, moves them with one
/// scatter-gather DMA pass and hands them to the host with one stage_batch
/// RPC. With batching on, a coalescing thread packs small segments from
/// concurrent requests into one flush, amortizing the per-job DMA setup
/// latency and the per-message comch doorbell across the batch (the
/// small-IO analogue of the paper's segmentation pipeline, which only
/// helps large writes). The thread waits out its flush deadline, then
/// acquires the slot, and only then closes the batch: segments that queue
/// while every slot is busy ride the next flush together instead of
/// waiting one more slot hold each. With batching off, and for fallback
/// probes, the caller's thread acquires a slot and flushes its segment as
/// a batch of one.
class DmaBatcher {
 public:
  /// Per-segment stamps for Table 3: hand-off -> `acquired` (the flush got
  /// its slot) is the segment's DMA-wait; `submit` is when the DMA was
  /// issued; `dma_done` when the engine finished it (the end of the DMA
  /// phase). On a slot-acquire timeout only `enqueued`/`acquired` are set.
  struct Stamps {
    sim::Time enqueued = 0;
    sim::Time acquired = 0;
    sim::Time submit = -1;
    sim::Time dma_done = -1;
  };
  /// Fires once per segment, when the host acked the staged copy (or on
  /// failure: the DMA error, or Errc::throttled when no slot freed up
  /// within ProxyConfig::slot_acquire_timeout).
  using DoneCb = std::function<void(Status, const Stamps&)>;

  /// `cfg` is the owning proxy's configuration and must outlive the
  /// batcher.
  DmaBatcher(sim::Env& env, dpu::DpuDevice& dpu, SlotPool& slots,
             RpcChannel& rpc, FallbackManager& fallback,
             perf::PerfCountersRef counters, const ProxyConfig& cfg,
             std::string name);
  ~DmaBatcher();

  DmaBatcher(const DmaBatcher&) = delete;
  DmaBatcher& operator=(const DmaBatcher&) = delete;

  /// Starts the coalescing thread when batching is enabled.
  void start();
  /// Drains queued segments (flushing them without further coalescing),
  /// then joins the coalescing thread. Call after the write workers have
  /// joined and before the RPC channel detaches.
  void stop();

  /// Stage and DMA one segment (at most a slot long) of request `token`;
  /// `done` fires exactly once. With batching on and `solo` false the
  /// segment queues for the coalescing thread; otherwise the caller's
  /// thread flushes it as a batch of one before returning.
  void enqueue(BufferList seg, std::uint64_t token, std::uint32_t seg_index,
               const trace::TraceContext& ctx, bool solo, DoneCb done);

 private:
  struct Entry {
    BufferList seg;
    std::uint64_t token = 0;
    std::uint32_t seg_index = 0;
    std::uint32_t off_in_slot = 0;
    trace::TraceContext trace;
    DoneCb done;
    Stamps stamps;
  };
  /// Shared fan-in state of one in-flight batch: per-extent statuses
  /// collected from the scatter-gather job, then the single stage_batch
  /// ack resolves every member.
  struct BatchState;

  void loop();
  /// A free slot, waiting at most ProxyConfig::slot_acquire_timeout when
  /// one is set; nullopt when that deadline passed.
  std::optional<int> acquire_slot();
  /// Stage, DMA and hand off `batch` through slot `got`; with no slot (an
  /// acquire timeout) every member completes as Errc::throttled.
  void flush(std::vector<Entry> batch, std::optional<int> got);
  void finish_batch(const std::shared_ptr<BatchState>& bs);

  sim::Env& env_;
  dpu::DpuDevice& dpu_;
  SlotPool& slots_;
  RpcChannel& rpc_;
  FallbackManager& fallback_;
  perf::PerfCountersRef counters_;
  const ProxyConfig& cfg_;
  std::string name_;

  dbg::Mutex m_{"proxy.dma_batcher"};
  dbg::CondVar cv_;
  std::deque<Entry> q_ DOCEPH_GUARDED_BY(m_);
  std::size_t q_bytes_ DOCEPH_GUARDED_BY(m_) = 0;
  bool stopping_ DOCEPH_GUARDED_BY(m_) = true;

  sim::Thread thread_;
  bool started_ = false;  // lifecycle thread only
};

}  // namespace doceph::proxy
