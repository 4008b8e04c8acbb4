#include "proxy/proxy_object_store.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/logger.h"
#include "common/shard.h"

namespace doceph::proxy {

ProxyObjectStore::ProxyObjectStore(sim::Env& env, dpu::DpuDevice& dpu, ProxyConfig cfg)
    : env_(env),
      dpu_(dpu),
      cfg_(cfg),
      rpc_(env, dpu.dpu_comch()),
      center_(env),
      slots_(env, cfg.slots, cfg.segment_size),
      fallback_(cfg.cooldown),
      counters_(perf::Builder("dpu", l_dpu_first, l_dpu_last)
                    .add_counter(l_dpu_writes, "writes")
                    .add_counter(l_dpu_dma_bytes, "dma_bytes")
                    .add_counter(l_dpu_rpc_fallback_bytes, "rpc_fallback_bytes")
                    .add_counter(l_dpu_rpc_timeout, "rpc_timeout")
                    .add_histogram(l_dpu_write_lat, "write_lat")
                    .add_histogram(l_dpu_dma_wait, "dma_wait")
                    .add_counter(l_dpu_batch_flushes, "batch_flushes")
                    .add_counter(l_dpu_batch_segments, "batch_segments")
                    .add_counter(l_dpu_batch_bytes, "batch_bytes")
                    .add_counter(l_dpu_batch_stalls, "batch_stalls")
                    .add_histogram(l_dpu_batch_fill, "batch_fill")
                    .add_counter(l_dpu_throttle_queue, "throttle_queue")
                    .add_counter(l_dpu_throttle_slot, "throttle_slot")
                    .add_gauge(l_dpu_worker_queue_depth, "worker_queue_depth")
                    .add_gauge(l_dpu_worker_queue_depth_hw, "worker_queue_depth_hw")
                    .add_counter(l_dpu_dma_transfer_ns, "dma_transfer_ns")
                    .add_counter(l_dpu_host_write_ns, "host_write_ns")
                    .create()) {
  queues_.reserve(static_cast<std::size_t>(cfg_.write_workers));
  for (int i = 0; i < cfg_.write_workers; ++i) {
    auto q = std::make_unique<WorkerQueue>();
    q->cv = std::make_unique<dbg::CondVar>(env.keeper(), "proxy.queue_cv");
    queues_.push_back(std::move(q));
  }
  perf_.add(counters_);
}

ProxyObjectStore::~ProxyObjectStore() {  // NOLINT(bugprone-exception-escape): teardown must complete; a throw terminates, by design
  if (mounted_) (void)umount();
}

Status ProxyObjectStore::mount() {
  rpc_.set_batch_config(cfg_.rpc_batch);
  rpc_.start(center_);
  batcher_ = std::make_unique<DmaBatcher>(env_, dpu_, slots_, rpc_, fallback_,
                                          counters_, cfg_, dpu_.name());
  batcher_->start();
  stopping_ = false;
  pump_thread_ = sim::Thread(env_.keeper(), env_.stats(), "dpu-proxy-ch",
                             &dpu_.cpu(), [this] { center_.run(); });
  for (int i = 0; i < cfg_.write_workers; ++i) {
    workers_.emplace_back(env_.keeper(), env_.stats(),
                          "dpu-dma-pipe-" + std::to_string(i), &dpu_.cpu(),
                          [this, i] { write_worker(i); });
  }
  mounted_ = true;
  // Verify the channel end-to-end.
  auto r = control_call(ProxyOp::ping, {});
  if (!r.ok()) {
    (void)umount();
    return r.status();
  }
  admin_.register_command("perf dump", "dump all perf-counter blocks as JSON",
                          [this](const auto&) { return perf_.dump_json(); });
  admin_.register_command("perf reset", "zero every counter and histogram",
                          [this](const auto&) {
                            perf_.reset_all();
                            return std::string("{}");
                          });
  admin_.register_command(
      "fault", "fault set <point> [k=v ...] | fault list | fault clear [point]",
      [this](const auto& args) { return env_.faults().admin_command(args); });
  return Status::OK();
}

Status ProxyObjectStore::umount() {
  if (!mounted_) return Status::OK();
  mounted_ = false;
  std::vector<WriteReq> orphans;
  for (auto& q : queues_) {
    const dbg::LockGuard lk(q->m);
    for (auto& req : q->q) orphans.push_back(std::move(req));
    q->q.clear();
  }
  queued_writes_.fetch_sub(static_cast<std::int64_t>(orphans.size()),
                           std::memory_order_relaxed);
  stopping_ = true;
  for (auto& q : queues_) {
    const dbg::LockGuard lk(q->m);
    q->cv->notify_all();
  }
  workers_.clear();
  // The batcher outlives the workers (their in-flight segments complete
  // through it) but must stop while the channel pump can still deliver
  // stage_batch acks.
  batcher_->stop();
  batcher_.reset();
  rpc_.detach();  // stop channel -> center dispatches before the center dies
  center_.stop();
  pump_thread_.join();
  for (auto& req : orphans) {
    if (req.on_commit) req.on_commit(Status(Errc::shutting_down, "proxy umount"));
  }
  admin_.unregister_all();
  return Status::OK();
}

// ---- write path -----------------------------------------------------------------

void ProxyObjectStore::queue_transaction(os::Transaction txn, OnCommit on_commit) {
  if (!mounted_) {
    if (on_commit) on_commit(Status(Errc::shutting_down, "proxy not mounted"));
    return;
  }
  // Per-collection ordering: requests for one PG always land on one worker.
  // Uses the same PG hash as the OSD op lanes (common::shard_of_pg), so a
  // PG's proxy worker and its OSD lane agree across the offload boundary.
  const os::coll_t cid = txn.ops().empty() ? os::coll_t{} : txn.ops().front().cid;
  const std::size_t idx = common::shard_of_pg(cid.pool, cid.pg_seed, queues_.size());
  auto& q = *queues_[idx];
  bool bounced = false;
  {
    const dbg::LockGuard lk(q.m);
    if (cfg_.max_worker_queue > 0 && q.q.size() >= cfg_.max_worker_queue) {
      bounced = true;  // complete below, outside the queue lock
    } else {
      q.q.push_back(WriteReq{std::move(txn), std::move(on_commit), env_.now()});
      q.cv->notify_one();
    }
  }
  if (bounced) {
    counters_->inc(l_dpu_throttle_queue);
    if (on_commit) on_commit(Status(Errc::throttled, "DPU worker queue full"));
    return;
  }
  const auto depth = static_cast<std::uint64_t>(
      queued_writes_.fetch_add(1, std::memory_order_relaxed) + 1);
  counters_->set(l_dpu_worker_queue_depth, depth);
  if (depth > counters_->get(l_dpu_worker_queue_depth_hw))
    counters_->set(l_dpu_worker_queue_depth_hw, depth);
}

void ProxyObjectStore::write_worker(int idx) {
  auto& q = *queues_[static_cast<std::size_t>(idx)];
  while (true) {
    WriteReq req;
    {
      dbg::UniqueLock lk(q.m);
      q.cv->wait(lk, [&] {
        q.m.assert_held();  // predicate runs as a separate function
        return stopping_.load() || !q.q.empty();
      });
      if (stopping_.load()) return;
      req = std::move(q.q.front());
      q.q.pop_front();
    }
    counters_->set(
        l_dpu_worker_queue_depth,
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            queued_writes_.fetch_sub(1, std::memory_order_relaxed) - 1, 0)));
    process_write(std::move(req));
  }
}

DataRef ProxyObjectStore::move_segment(BufferList seg,
                                       const std::shared_ptr<SegCtx>& ctx) {
  const auto path = fallback_.choose(env_.now());
  const auto seg_len = static_cast<std::uint32_t>(seg.length());
  if (path == FallbackManager::Path::rpc) {
    rpc_fallback_bytes_.fetch_add(seg_len, std::memory_order_relaxed);
    counters_->inc(l_dpu_rpc_fallback_bytes, seg_len);
    DataRef ref;
    ref.kind = DataRef::Kind::inline_;
    ref.len = seg_len;
    ref.data = std::move(seg);
    return ref;
  }

  // Hand the segment to the batcher's flush: one slot, one DMA pass and
  // one stage_batch RPC, shared with companions from concurrent requests
  // when batching is on. A probe flushes alone on this thread so its
  // outcome is its own. The done callback folds the segment's Table-3
  // stamps into the request: DMA-wait runs from hand-off to slot
  // acquisition, and the DMA phase ends at DMA completion.
  const bool probing = path == FallbackManager::Path::probe;
  const std::uint32_t seg_index = ctx->next_seg++;
  {
    const dbg::LockGuard lk(ctx->m);
    ++ctx->outstanding;
  }
  auto done = [this, ctx, seg_len, probing](Status st,
                                            const DmaBatcher::Stamps& s) {
    const dbg::LockGuard lk(ctx->m);
    ctx->dma_wait += s.acquired - s.enqueued;
    if (st.code() == Errc::throttled) {
      // slot_acquire_timeout expired: process_write aborts the request.
      counters_->inc(l_dpu_throttle_slot);
      ctx->slot_timed_out = true;
    } else {
      dma_bytes_.fetch_add(seg_len, std::memory_order_relaxed);
      counters_->inc(l_dpu_dma_bytes, seg_len);
      // A clean probe re-enables DMA; the flush already reported a failed
      // one to the fallback manager.
      if (probing && st.ok()) fallback_.on_dma_success();
      if (!st.ok()) ctx->any_failed = true;
      if (ctx->first_submit < 0 || s.submit < ctx->first_submit)
        ctx->first_submit = s.submit;
      ctx->last_complete = std::max(ctx->last_complete, s.dma_done);
    }
    --ctx->outstanding;
    ctx->cv.notify_all();
  };
  batcher_->enqueue(std::move(seg), ctx->token, seg_index, ctx->trace, probing,
                    std::move(done));
  if (!cfg_.pipelining) {
    // Ablation: strictly serial -- wait out this transfer (and its staging
    // handoff) before touching the next segment.
    dbg::UniqueLock lk(ctx->m);
    ctx->cv.wait(lk, [&] {
      ctx->m.assert_held();
      return ctx->outstanding == 0;
    });
  }

  DataRef ref;
  ref.kind = DataRef::Kind::staged;
  ref.index = seg_index;
  ref.len = seg_len;
  return ref;
}

void ProxyObjectStore::process_write(WriteReq req) {
  const sim::Time t_start = req.enqueued;
  WireTxn wire;

  // Detach bulk payloads from the transaction metadata.
  std::vector<BufferList> payloads(req.txn.ops().size());
  for (std::size_t i = 0; i < req.txn.ops().size(); ++i) {
    payloads[i] = std::move(req.txn.ops()[i].data);
    req.txn.ops()[i].data = BufferList{};
  }
  wire.meta = std::move(req.txn);
  wire.parts.resize(payloads.size());
  wire.token = next_token_.fetch_add(1);

  std::uint64_t total_bytes = 0;
  for (const auto& p : payloads) total_bytes += p.length();
  std::uint64_t dma_bytes_this_request = 0;

  auto ctx = std::make_shared<SegCtx>(env_.keeper());
  ctx->token = wire.token;
  ctx->trace = wire.meta.trace();
  // The request-level DPU span: covers segmentation, DMA, and the host
  // commit round trip (open during the crash window, so a hard kill leaves
  // it partial in the flight recorder).
  auto write_span = env_.tracer().span("dpu.write", "dpu." + dpu_.name(),
                                       ctx->trace, t_start);

  for (std::size_t i = 0; i < payloads.size(); ++i) {
    BufferList& payload = payloads[i];
    if (payload.empty()) continue;
    if (total_bytes <= cfg_.inline_write_max) {
      // Tiny request: not worth a DMA round; ride the control channel.
      DataRef ref;
      ref.kind = DataRef::Kind::inline_;
      ref.len = static_cast<std::uint32_t>(payload.length());
      ref.data = std::move(payload);
      wire.parts[i].push_back(std::move(ref));
      continue;
    }
    std::size_t off = 0;
    while (off < payload.length()) {
      const std::size_t n =
          std::min<std::size_t>(cfg_.segment_size, payload.length() - off);
      DataRef ref = move_segment(payload.substr(off, n), ctx);
      if (ref.kind == DataRef::Kind::staged) dma_bytes_this_request += n;
      wire.parts[i].push_back(std::move(ref));
      off += n;
    }
  }

  // Drain in-flight segments (DMA + staging handoff), then snapshot the
  // callback-shared state — nothing mutates it once outstanding hits zero.
  bool any_failed = false;
  bool slot_timed_out = false;
  sim::Time first_submit = -1;
  sim::Time last_complete = -1;
  sim::Duration dma_wait = 0;
  {
    dbg::UniqueLock lk(ctx->m);
    ctx->cv.wait(lk, [&] {
      ctx->m.assert_held();
      return ctx->outstanding == 0;
    });
    any_failed = ctx->any_failed;
    slot_timed_out = ctx->slot_timed_out;
    first_submit = ctx->first_submit;
    last_complete = ctx->last_complete;
    dma_wait = ctx->dma_wait;
  }

  if (slot_timed_out) {
    // Staging starved past slot_acquire_timeout: give up on the whole
    // request with a typed throttle (the OSD/client retry machinery takes
    // it from here) instead of wedging this worker. Oneway abort so the
    // host drops any segments already staged under this token.
    BufferList abort_req;
    encode(ProxyOp::abort_txn, abort_req);
    encode(wire.token, abort_req);
    (void)rpc_.notify(std::move(abort_req), ctx->trace);
    write_span.end(env_.now());
    if (req.on_commit)
      req.on_commit(Status(Errc::throttled,
                           "DPU staging slots exhausted past deadline"));
    return;
  }

  if (any_failed) {
    // Fallback (paper §4): staged segments whose transfer or handoff
    // failed are unusable; conservatively re-send every staged chunk inline
    // over RPC (the cooldown routes subsequent traffic there anyway).
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      std::size_t off = 0;
      for (auto& ref : wire.parts[i]) {
        if (ref.kind == DataRef::Kind::staged) {
          ref.kind = DataRef::Kind::inline_;
          ref.data = payloads[i].substr(off, ref.len);
          rpc_fallback_bytes_.fetch_add(ref.len, std::memory_order_relaxed);
          counters_->inc(l_dpu_rpc_fallback_bytes, ref.len);
        }
        off += ref.len;
      }
    }
  }

  // Ship the transaction (metadata + refs) and wait for the host commit.
  // The RPC span's context travels in the fragment headers, so the host
  // backend parents its commit span under this one.
  BufferList request;
  encode(ProxyOp::submit_txn, request);
  wire.encode(request);
  auto rpc_span = env_.tracer().span("dpu.rpc.submit_txn", "dpu." + dpu_.name(),
                                     write_span.context(), env_.now());
  auto response = timed_call(std::move(request), rpc_span.context());
  rpc_span.end(env_.now());

  Status st;
  TxnReply reply;
  if (!response.ok()) {
    st = response.status();
  } else {
    BufferList::Cursor cur(*response);
    if (!reply.decode(cur)) {
      st = Status(Errc::corrupt, "bad txn reply");
    } else {
      host_fullness_permille_.store(reply.fullness_permille,
                                    std::memory_order_relaxed);
      if (reply.result != 0)
        st = Status(static_cast<Errc>(-reply.result), "host backend error");
    }
  }

  // Table 3 tracks client *write* requests; metadata-only transactions
  // (collection creates etc.) are not part of the taxonomy. The DMA phase
  // splits into transfer time (job setup + bytes/bandwidth, the paper's
  // "actual data transfer time") and DMA-wait (slot acquisition + the
  // serialization remainder of the phase's wall time).
  if (total_bytes > 0) {
    const auto& dma_cfg = dpu_.dma().config();
    std::uint64_t dma_transfer = 0;
    if (first_submit >= 0) {
      dma_transfer = static_cast<std::uint64_t>(dma_cfg.setup_latency) +
                     static_cast<std::uint64_t>(sim::transfer_time(
                         dma_bytes_this_request, dma_cfg.bw_bytes_per_sec));
    }
    std::uint64_t phase_wall = 0;
    if (first_submit >= 0 && last_complete > first_submit)
      phase_wall = static_cast<std::uint64_t>(last_complete - first_submit);
    const std::uint64_t serialization =
        phase_wall > dma_transfer ? phase_wall - dma_transfer : 0;

    counters_->inc(l_dpu_writes);
    counters_->rec(l_dpu_write_lat, static_cast<std::uint64_t>(env_.now() - t_start));
    counters_->rec(l_dpu_dma_wait,
                   static_cast<std::uint64_t>(dma_wait) + serialization);
    counters_->inc(l_dpu_dma_transfer_ns, dma_transfer);
    counters_->inc(l_dpu_host_write_ns, static_cast<std::uint64_t>(
                                            std::max<std::int64_t>(reply.host_write_ns, 0)));
  }

  write_span.end(env_.now());
  if (req.on_commit) req.on_commit(st);
}

// ---- control plane / reads ---------------------------------------------------------

Result<BufferList> ProxyObjectStore::timed_call(BufferList request,
                                                const trace::TraceContext& ctx) {
  auto r = rpc_.call(std::move(request), cfg_.rpc_timeout, ctx);
  if (!r.ok() && r.status().code() == Errc::timed_out)
    counters_->inc(l_dpu_rpc_timeout);
  return r;
}

Result<BufferList> ProxyObjectStore::control_call(ProxyOp op, const BufferList& body) {
  BufferList request;
  encode(op, request);
  request.append(body);
  auto r = timed_call(std::move(request));
  if (!r.ok()) return r.status();
  BufferList::Cursor cur(*r);
  std::int32_t result = 0;
  if (!decode(result, cur)) return Status(Errc::corrupt, "bad control reply");
  if (result != 0) return Status(static_cast<Errc>(-result), "host error");
  BufferList rest;
  (void)cur.get_buffer_list(cur.remaining(), rest);
  return rest;
}

Result<BufferList> ProxyObjectStore::read(const os::coll_t& c, const os::ghobject_t& o,
                                          std::uint64_t off, std::uint64_t len) {
  ReadRequest rr;
  rr.cid = c;
  rr.oid = o;
  rr.off = off;
  rr.len = len;
  rr.inline_max = fallback_.dma_enabled() ? cfg_.inline_read_max
                                          : std::numeric_limits<std::uint64_t>::max();
  // Opportunistically offer slots for the bulk path (host-side staging).
  std::vector<int> held;
  if (fallback_.dma_enabled()) {
    for (int i = 0; i < 8; ++i) {
      auto s = slots_.try_acquire();
      if (!s) break;
      held.push_back(*s);
      rr.slots.push_back(static_cast<std::uint32_t>(*s));
    }
  }
  auto release_all = [&] {
    for (const int s : held) slots_.release(s);
    held.clear();
  };

  BufferList body;
  rr.encode(body);
  BufferList request;
  encode(ProxyOp::read_obj, request);
  request.claim_append(body);
  auto response = timed_call(std::move(request));
  if (!response.ok()) {
    release_all();
    return response.status();
  }
  ReadReply reply;
  BufferList::Cursor cur(*response);
  if (!reply.decode(cur)) {
    release_all();
    return Status(Errc::corrupt, "bad read reply");
  }
  if (reply.result != 0) {
    release_all();
    return Status(static_cast<Errc>(-reply.result), "host read error");
  }
  if (reply.inline_data) {
    release_all();
    return reply.data;
  }

  // DMA the filled slots back (host -> DPU), in order.
  BufferList out;
  for (const auto& ref : reply.refs) {
    if (ref.kind == DataRef::Kind::inline_) {
      out.append(ref.data);
      continue;
    }
    dbg::Mutex m{"proxy.read_wait"};
    dbg::CondVar cv(env_.keeper(), "proxy.read_cv");
    bool done = false;
    Status st;
    doca::Buf src = slots_.host_buf(static_cast<int>(ref.index), ref.len);
    doca::Buf dst = slots_.dpu_buf(static_cast<int>(ref.index), ref.len);
    const Status submitted =
        dpu_.dma().submit(src, dst, doca::DmaDir::host_to_dpu, [&](Status s) {
          const dbg::LockGuard lk(m);
          st = s;
          done = true;
          cv.notify_all();
        });
    if (!submitted.ok()) {
      release_all();
      return submitted;
    }
    {
      dbg::UniqueLock lk(m);
      cv.wait(lk, [&] { return done; });
    }
    if (!st.ok()) {
      fallback_.on_dma_failure(env_.now());
      release_all();
      return st;
    }
    out.append(dst.data(), ref.len);
    dpu_.cpu().charge(static_cast<sim::Duration>(cfg_.stage_copy_ns_per_byte *
                                                 static_cast<double>(ref.len)));
  }
  release_all();
  return out;
}

Result<os::ObjectInfo> ProxyObjectStore::stat(const os::coll_t& c,
                                              const os::ghobject_t& o) {
  BufferList body;
  c.encode(body);
  o.encode(body);
  auto r = control_call(ProxyOp::stat, body);
  if (!r.ok()) return r.status();
  os::ObjectInfo info;
  BufferList::Cursor cur(*r);
  if (!info.decode(cur)) return Status(Errc::corrupt, "bad stat reply");
  return info;
}

bool ProxyObjectStore::exists(const os::coll_t& c, const os::ghobject_t& o) {
  BufferList body;
  c.encode(body);
  o.encode(body);
  auto r = control_call(ProxyOp::exists, body);
  if (!r.ok()) return false;
  bool e = false;
  BufferList::Cursor cur(*r);
  return decode(e, cur) && e;
}

Result<std::map<std::string, BufferList>> ProxyObjectStore::omap_get(
    const os::coll_t& c, const os::ghobject_t& o) {
  BufferList body;
  c.encode(body);
  o.encode(body);
  auto r = control_call(ProxyOp::omap_get, body);
  if (!r.ok()) return r.status();
  std::map<std::string, BufferList> m;
  BufferList::Cursor cur(*r);
  if (!decode(m, cur)) return Status(Errc::corrupt, "bad omap reply");
  return m;
}

Result<std::vector<os::ghobject_t>> ProxyObjectStore::list_objects(const os::coll_t& c) {
  BufferList body;
  c.encode(body);
  auto r = control_call(ProxyOp::list_objects, body);
  if (!r.ok()) return r.status();
  std::vector<os::ghobject_t> v;
  BufferList::Cursor cur(*r);
  if (!decode(v, cur)) return Status(Errc::corrupt, "bad list reply");
  return v;
}

std::vector<os::coll_t> ProxyObjectStore::list_collections() {
  auto r = control_call(ProxyOp::list_collections, {});
  if (!r.ok()) return {};
  std::vector<os::coll_t> v;
  BufferList::Cursor cur(*r);
  if (!decode(v, cur)) return {};
  return v;
}

bool ProxyObjectStore::collection_exists(const os::coll_t& c) {
  BufferList body;
  c.encode(body);
  auto r = control_call(ProxyOp::coll_exists, body);
  if (!r.ok()) return false;
  bool e = false;
  BufferList::Cursor cur(*r);
  return decode(e, cur) && e;
}

BreakdownSnapshot ProxyObjectStore::breakdown() const {
  BreakdownSnapshot bd;
  bd.count = counters_->get(l_dpu_writes);
  bd.total_ns = counters_->hist(l_dpu_write_lat).sum;
  bd.dma_ns = counters_->get(l_dpu_dma_transfer_ns);
  bd.dma_wait_ns = counters_->hist(l_dpu_dma_wait).sum;
  bd.host_write_ns = counters_->get(l_dpu_host_write_ns);
  return bd;
}

void ProxyObjectStore::reset_breakdown() { counters_->reset(); }

}  // namespace doceph::proxy
