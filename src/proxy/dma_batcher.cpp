#include "proxy/dma_batcher.h"

#include <cassert>
#include <optional>

#include "common/logger.h"
#include "proxy/proxy_object_store.h"
#include "proxy/proxy_protocol.h"

namespace doceph::proxy {

struct DmaBatcher::BatchState {
  explicit BatchState(trace::Span sp) : span(std::move(sp)) {}
  std::vector<Entry> entries;
  std::vector<Status> statuses;
  std::size_t remaining = 0;
  int slot = -1;
  trace::Span span;
};

DmaBatcher::DmaBatcher(sim::Env& env, dpu::DpuDevice& dpu, SlotPool& slots,
                       RpcChannel& rpc, FallbackManager& fallback,
                       perf::PerfCountersRef counters, const ProxyConfig& cfg,
                       std::string name)
    : env_(env),
      dpu_(dpu),
      slots_(slots),
      rpc_(rpc),
      fallback_(fallback),
      counters_(std::move(counters)),
      cfg_(cfg),
      name_(std::move(name)),
      cv_(env.keeper(), "proxy.dma_batcher_cv") {}

DmaBatcher::~DmaBatcher() { stop(); }  // NOLINT(bugprone-exception-escape): teardown must complete; a throw terminates, by design

void DmaBatcher::start() {
  if (started_ || !cfg_.dma_batch.enabled) return;
  {
    const dbg::LockGuard lk(m_);
    stopping_ = false;
  }
  thread_ = sim::Thread(env_.keeper(), env_.stats(), "dpu-dma-batch",
                        &dpu_.cpu(), [this] { loop(); });
  started_ = true;
}

void DmaBatcher::stop() {
  if (!started_) return;
  {
    const dbg::LockGuard lk(m_);
    stopping_ = true;
    cv_.notify_all();
  }
  thread_.join();
  started_ = false;
}

void DmaBatcher::enqueue(BufferList seg, std::uint64_t token,
                         std::uint32_t seg_index,
                         const trace::TraceContext& ctx, bool solo,
                         DoneCb done) {
  assert(!seg.empty() && seg.length() <= slots_.slot_size());
  Entry e;
  e.seg = std::move(seg);
  e.token = token;
  e.seg_index = seg_index;
  e.trace = ctx;
  e.done = std::move(done);
  e.stamps.enqueued = env_.now();
  if (solo || !cfg_.dma_batch.enabled) {
    std::vector<Entry> one;
    one.push_back(std::move(e));
    flush(std::move(one), acquire_slot());
    return;
  }
  const dbg::LockGuard lk(m_);
  q_bytes_ += e.seg.length();
  q_.push_back(std::move(e));
  cv_.notify_all();
}

void DmaBatcher::loop() {
  while (true) {
    {
      dbg::UniqueLock lk(m_);
      cv_.wait(lk, [&] {
        m_.assert_held();  // predicate runs as a separate function
        return stopping_ || !q_.empty();
      });
      if (q_.empty()) return;  // stopping with nothing left to drain
      if (!stopping_) {
        // Deadline coalescing: hold the oldest segment at most flush_delay,
        // flushing early once the batch fills a slot or max_segments.
        const sim::Time deadline =
            q_.front().stamps.enqueued + cfg_.dma_batch.flush_delay;
        (void)cv_.wait_until(lk, deadline, [&] {
          m_.assert_held();
          return stopping_ ||
                 static_cast<int>(q_.size()) >= cfg_.dma_batch.max_segments ||
                 q_bytes_ >= slots_.slot_size();
        });
      }
    }

    // Chaos hook: a fired stall defers this flush by the fault's delay
    // before proceeding (segments keep their completion guarantees, just
    // later — the drill asserts the pipeline survives the hiccup).
    const fault::FaultHit stall =
        env_.faults().hit("dpu.batch_flush_stall", env_.now(), name_);
    if (stall.fired) {
      counters_->inc(l_dpu_batch_stalls);
      const sim::Time until =
          env_.now() + (stall.delay_ns > 0 ? stall.delay_ns
                                        : cfg_.dma_batch.flush_delay);
      dbg::UniqueLock lk(m_);
      (void)cv_.wait_until(lk, until, [&] {
        m_.assert_held();
        return stopping_;
      });
    }

    // Slot first, batch second: segments that queue while the slot is
    // busy join this batch instead of waiting out one more slot hold.
    const std::optional<int> slot = acquire_slot();
    std::vector<Entry> batch;
    {
      const dbg::LockGuard lk(m_);
      // Greedy prefix that shares one slot (order-preserving).
      std::size_t bytes = 0;
      while (!q_.empty() &&
             static_cast<int>(batch.size()) < cfg_.dma_batch.max_segments) {
        const std::size_t n = q_.front().seg.length();
        if (!batch.empty() && bytes + n > slots_.slot_size()) break;
        bytes += n;
        q_bytes_ -= n;
        batch.push_back(std::move(q_.front()));
        q_.pop_front();
      }
    }
    assert(!batch.empty());  // only this thread pops the queue
    flush(std::move(batch), slot);
  }
}

std::optional<int> DmaBatcher::acquire_slot() {
  // With a deadline configured, starvation throttles the batch instead of
  // wedging this thread behind a saturated DMA pipeline.
  return cfg_.slot_acquire_timeout > 0
             ? slots_.acquire_for(cfg_.slot_acquire_timeout)
             : std::optional<int>(slots_.acquire());
}

void DmaBatcher::flush(std::vector<Entry> batch, std::optional<int> got) {
  // One slot hosts the whole batch; the time from hand-off to `got` counts
  // toward each member's DMA-wait. No slot means the acquire timed out:
  // every member is throttled.
  const sim::Time acquired = env_.now();
  for (auto& e : batch) e.stamps.acquired = acquired;
  if (!got) {
    const Status throttled(Errc::throttled,
                           "DPU staging slots exhausted past deadline");
    for (auto& e : batch) e.done(throttled, e.stamps);
    return;
  }
  const int slot = *got;

  if (!cfg_.mr_cache) {
    // Without the MR cache each transfer renegotiates its memory region
    // over the CommChannel: one round trip, holding the slot.
    BufferList ping;
    encode(ProxyOp::ping, ping);
    const auto r = rpc_.call(std::move(ping), cfg_.rpc_timeout);
    if (!r.ok() && r.status().code() == Errc::timed_out)
      counters_->inc(l_dpu_rpc_timeout);
  }

  std::size_t total = 0;
  for (auto& e : batch) total += e.seg.length();

  // The batch span parents every member's doca.dma_job span; the first
  // sampled member donates the parent context (members of an unsampled-only
  // batch record nothing, as usual).
  trace::TraceContext parent;
  for (const auto& e : batch) {
    if (e.trace.sampled()) {
      parent = e.trace;
      break;
    }
  }
  auto bs = std::make_shared<BatchState>(
      env_.tracer().span("dpu.batch", "dpu." + name_, parent,
                         batch.front().stamps.enqueued, batch.size()));

  // Stage every payload at its running offset in the slot and describe the
  // layout as scatter-gather extents (one engine pass for the lot).
  const doca::Buf src_base = slots_.dpu_buf(slot, total);
  const doca::Buf dst_base = slots_.host_buf(slot, total);
  std::vector<doca::DmaExtent> extents;
  extents.reserve(batch.size());
  std::size_t off = 0;
  for (auto& e : batch) {
    const std::size_t n = e.seg.length();
    e.off_in_slot = static_cast<std::uint32_t>(off);
    const doca::Buf src{src_base.mmap, src_base.off + off, n};
    const doca::Buf dst{dst_base.mmap, dst_base.off + off, n};
    e.seg.copy_out(0, n, src.data());
    dpu_.cpu().charge(static_cast<sim::Duration>(cfg_.stage_copy_ns_per_byte *
                                                 static_cast<double>(n)));
    extents.push_back(doca::DmaExtent{src, dst});
    off += n;
  }

  counters_->inc(l_dpu_batch_flushes);
  counters_->inc(l_dpu_batch_segments, batch.size());
  counters_->inc(l_dpu_batch_bytes, total);
  counters_->rec(l_dpu_batch_fill, batch.size());

  const sim::Time submit = env_.now();
  for (auto& e : batch) e.stamps.submit = submit;
  bs->statuses.assign(batch.size(), Status::OK());
  bs->remaining = batch.size();
  bs->slot = slot;
  bs->entries = std::move(batch);

  const Status submitted = dpu_.dma().submit_sg(
      extents, doca::DmaDir::dpu_to_host,
      [this, bs](std::size_t index, Status st) {
        // Timer fiber; per-pass fan-out arrives serially.
        bs->statuses[index] = std::move(st);
        if (--bs->remaining == 0) finish_batch(bs);
      },
      bs->span.context());
  if (!submitted.ok()) {
    // The whole batch never reached the engine; members fall back to the
    // RPC path via their owners' any_failed machinery.
    const sim::Time now = env_.now();
    fallback_.on_dma_failure(now);
    slots_.release(slot);
    bs->span.end(now);
    for (auto& e : bs->entries) {
      e.stamps.dma_done = now;
      e.done(submitted, e.stamps);
    }
  }
}

void DmaBatcher::finish_batch(const std::shared_ptr<BatchState>& bs) {
  // A batch fits one slot, hence one engine pass: every extent finished
  // now. Per-extent failures resolve their members now; survivors ride one
  // stage_batch RPC and resolve on its ack (the host acks the batch as a
  // unit, so an ack error fails every surviving member).
  const sim::Time now = env_.now();
  StageBatch msg;
  msg.slot = static_cast<std::uint32_t>(bs->slot);
  std::vector<std::size_t> ok_members;
  for (std::size_t i = 0; i < bs->entries.size(); ++i) {
    Entry& e = bs->entries[i];
    e.stamps.dma_done = now;
    if (!bs->statuses[i].ok()) {
      fallback_.on_dma_failure(now);
      e.done(bs->statuses[i], e.stamps);
      continue;
    }
    msg.entries.push_back(StageBatchEntry{
        .token = e.token,
        .seg_index = e.seg_index,
        .off = e.off_in_slot,
        .len = static_cast<std::uint32_t>(e.seg.length())});
    ok_members.push_back(i);
  }
  if (ok_members.empty()) {
    slots_.release(bs->slot);
    bs->span.end(now);
    return;
  }

  BufferList request;
  encode(ProxyOp::stage_batch, request);
  msg.encode(request);
  rpc_.call_async(
      std::move(request),
      [this, bs, ok_members = std::move(ok_members)](Result<BufferList> r) {
        Status st = r.ok() ? Status::OK() : r.status();
        if (r.ok()) {
          BufferList::Cursor cur(*r);
          std::int32_t res = 0;
          if (!decode(res, cur))
            st = Status(Errc::corrupt, "bad stage_batch ack");
          else if (res != 0)
            st = Status(static_cast<Errc>(-res), "stage_batch host error");
        }
        slots_.release(bs->slot);
        bs->span.end(env_.now());
        for (const std::size_t i : ok_members) {
          Entry& e = bs->entries[i];
          e.done(st, e.stamps);
        }
      },
      bs->span.context());
}

}  // namespace doceph::proxy
