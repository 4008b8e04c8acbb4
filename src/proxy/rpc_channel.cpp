#include "proxy/rpc_channel.h"

#include "common/encoding.h"
#include "dbg/cond_var.h"
#include "common/logger.h"

namespace doceph::proxy {
namespace {
// req_id + flags + trace context
constexpr std::size_t kFragHeader = 8 + 1 + trace::TraceContext::kWireSize;
// [u32 frame_len] container prefix per frame.
constexpr std::size_t kEntryPrefix = 4;
}  // namespace

RpcChannel::RpcChannel(sim::Env& env, doca::CommChannelRef channel)
    : env_(env), ch_(std::move(channel)) {}

void RpcChannel::start(event::EventCenter& center) {
  center_ = &center;
  ch_->set_recv_handler(center, [this](BufferList msg) { on_message(std::move(msg)); });
}

void RpcChannel::detach() {
  {
    const dbg::LockGuard lk(mutex_);
    if (timer_armed_ && center_ != nullptr) {
      (void)center_->cancel_timer(timer_id_);
      timer_armed_ = false;
    }
  }
  ch_->close();
}

void RpcChannel::arm_timer_locked(sim::Duration delay) {
  if (timer_armed_ || center_ == nullptr) return;
  timer_armed_ = true;
  timer_id_ = center_->add_timer(delay, [this] {
    {
      const dbg::LockGuard lk(mutex_);
      timer_armed_ = false;
      flush_locked();
    }
    drain_sends();
  });
}

void RpcChannel::flush_locked() {
  if (batch_entries_.empty()) return;

  // Chaos hook: a fired stall defers the doorbell instead of ringing it.
  const fault::FaultHit stall =
      env_.faults().hit("dpu.batch_flush_stall", env_.now(), ch_->config().name);
  if (stall.fired && center_ != nullptr) {
    stalls_.fetch_add(1, std::memory_order_relaxed);
    arm_timer_locked(stall.delay_ns > 0 ? stall.delay_ns
                                        : batch_cfg_.flush_delay);
    return;
  }

  // Pack entries into as few comch messages as fit (normally one; a
  // stall-deferred batch may have outgrown the message cap).
  const std::size_t cap = ch_->config().max_msg_size;
  OutMsg out;
  for (std::size_t i = 0; i < batch_entries_.size(); ++i) {
    BufferList& e = batch_entries_[i];
    if (out.msg.length() != 0 && out.msg.length() + e.length() > cap) {
      sendq_.push_back(std::move(out));
      out = OutMsg{};
    }
    out.msg.claim_append(e);
    if (batch_entry_ids_[i] != 0) out.req_ids.push_back(batch_entry_ids_[i]);
  }
  if (out.msg.length() != 0) sendq_.push_back(std::move(out));
  batch_entries_.clear();
  batch_entry_ids_.clear();
  batch_bytes_ = 0;
}

void RpcChannel::drain_sends() {
  std::vector<ResponseCb> failed;
  Status fail_st = Status::OK();
  {
    dbg::UniqueLock lk(mutex_);
    if (sending_) return;  // the active drainer picks our messages up
    sending_ = true;
    while (!sendq_.empty()) {
      OutMsg out = std::move(sendq_.front());
      sendq_.pop_front();
      lk.unlock();
      const Status st = ch_->send(std::move(out.msg));
      flushes_.fetch_add(1, std::memory_order_relaxed);
      lk.lock();
      if (!st.ok()) {
        // The message fails as a unit: every request frame that rode it
        // gets the send error (responses/oneways have no callback to fail).
        for (const std::uint64_t id : out.req_ids) {
          auto it = pending_.find(id);
          if (it == pending_.end()) continue;
          failed.push_back(std::move(it->second));
          pending_.erase(it);
          inflight_ops_.fetch_sub(1, std::memory_order_relaxed);
        }
        fail_st = st;
      }
    }
    sending_ = false;
  }
  for (auto& cb : failed) cb(fail_st);
}

void RpcChannel::enqueue_frame_locked(BufferList frame, bool is_request,
                                      std::uint64_t req_id) {
  BufferList entry;
  encode(static_cast<std::uint32_t>(frame.length()), entry);
  entry.claim_append(frame);
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  // Batching off is a batch of one: every frame rings the size doorbell.
  const int max_frames = batch_cfg_.enabled ? batch_cfg_.max_frames : 1;

  // Size doorbell, part 1: flush what's queued before this entry would
  // overflow one message (keeps the common flush a single send).
  if (batch_bytes_ != 0 &&
      batch_bytes_ + entry.length() > ch_->config().max_msg_size)
    flush_locked();

  batch_bytes_ += entry.length();
  batch_entries_.push_back(std::move(entry));
  batch_entry_ids_.push_back(is_request ? req_id : 0);

  if (static_cast<int>(batch_entries_.size()) >= max_frames ||
      (inflight_ops_.load(std::memory_order_relaxed) <= 1 &&
       dispatching_.load(std::memory_order_relaxed) == 0) ||
      center_ == nullptr) {
    // Size doorbell (batch full) or idle doorbell (nobody else is in
    // flight and no incoming batch is mid-dispatch, so coalescing would
    // only add latency).
    flush_locked();
  } else {
    arm_timer_locked(batch_cfg_.flush_delay);
  }
}

Status RpcChannel::send_fragmented(std::uint64_t req_id, std::uint8_t flags,
                                   BufferList payload,
                                   const trace::TraceContext& ctx) {
  const std::size_t chunk_max =
      ch_->config().max_msg_size - kEntryPrefix - kFragHeader;
  bytes_sent_.fetch_add(payload.length(), std::memory_order_relaxed);
  const bool is_request = (flags & (kResponse | kOneway)) == 0;

  // All fragments of one payload are enqueued under one mutex_ hold, so
  // they land contiguously in sendq_ and reassemble in order. Send errors
  // surface through the pending callback (drain_sends), not the return.
  {
    const dbg::LockGuard lk(mutex_);
    std::size_t off = 0;
    do {
      const std::size_t n = std::min(chunk_max, payload.length() - off);
      const bool last = off + n == payload.length();
      BufferList frame;
      encode(req_id, frame);
      encode(static_cast<std::uint8_t>(flags | (last ? kLastPart : 0)), frame);
      encode(ctx, frame);
      frame.append(payload.substr(off, n));
      enqueue_frame_locked(std::move(frame), is_request, req_id);
      off += n;
    } while (off < payload.length());
  }
  drain_sends();
  return Status::OK();
}

std::uint64_t RpcChannel::call_async(BufferList request, ResponseCb cb,
                                     const trace::TraceContext& ctx) {
  const std::uint64_t id = next_id_.fetch_add(1);
  {
    const dbg::LockGuard lk(mutex_);
    pending_[id] = std::move(cb);
  }
  inflight_ops_.fetch_add(1, std::memory_order_relaxed);
  // A send failure fires the pending callback with the error from inside
  // drain_sends (possibly synchronously, on this thread).
  (void)send_fragmented(id, 0, std::move(request), ctx);
  return id;
}

bool RpcChannel::cancel(std::uint64_t id) {
  const dbg::LockGuard lk(mutex_);
  if (pending_.erase(id) == 0) return false;
  inflight_ops_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

Result<BufferList> RpcChannel::call(BufferList request, sim::Duration timeout,
                                    const trace::TraceContext& ctx) {
  // Heap-shared wait state: on timeout the pending_ callback may still fire
  // later (or be firing right now on the pump thread); it must never touch
  // this frame's stack. The callback keeps the state alive via shared_ptr.
  struct CallState {
    explicit CallState(sim::TimeKeeper& tk) : cv(tk, "proxy.rpc_call_cv") {}
    dbg::Mutex m{"proxy.rpc_call"};
    dbg::CondVar cv;
    bool done = false;
    Result<BufferList> result = BufferList{};
  };
  auto state = std::make_shared<CallState>(env_.keeper());
  const std::uint64_t id = call_async(
      std::move(request),
      [state](Result<BufferList> r) {
        const dbg::LockGuard lk(state->m);
        state->result = std::move(r);
        state->done = true;
        state->cv.notify_all();
      },
      ctx);
  dbg::UniqueLock lk(state->m);
  if (!state->cv.wait_until(lk, env_.now() + timeout, [&] { return state->done; })) {
    lk.unlock();
    if (cancel(id)) {
      // Slot reclaimed: a late response will be dropped as unknown.
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      return Status(Errc::timed_out, "rpc call");
    }
    // The response won the race and claimed the callback; take its result.
    lk.lock();
    state->cv.wait(lk, [&] { return state->done; });
  }
  return state->result;
}

Status RpcChannel::notify(BufferList request, const trace::TraceContext& ctx) {
  return send_fragmented(next_id_.fetch_add(1), kOneway, std::move(request), ctx);
}

void RpcChannel::on_message(BufferList msg) {
  // One comch message carries one or more [u32 len][frame] entries.
  dispatching_.fetch_add(1, std::memory_order_relaxed);
  BufferList::Cursor cur(msg);
  while (cur.remaining() > 0) {
    std::uint32_t len = 0;
    if (!decode(len, cur) || len > cur.remaining()) {
      DLOG(warn, "proxy") << "malformed rpc container";
      break;
    }
    BufferList frame;
    (void)cur.get_buffer_list(len, frame);
    on_frame(std::move(frame));
  }
  dispatching_.fetch_sub(1, std::memory_order_relaxed);
  // Ring once for everything the dispatch loop enqueued (inline responses
  // to this message's frames): one incoming batch, one outgoing batch.
  {
    const dbg::LockGuard lk(mutex_);
    flush_locked();
  }
  drain_sends();
}

void RpcChannel::on_frame(BufferList frame) {
  BufferList::Cursor cur(frame);
  std::uint64_t req_id = 0;
  std::uint8_t flags = 0;
  trace::TraceContext ctx;
  if (!decode(req_id, cur) || !decode(flags, cur) || !ctx.decode(cur)) {
    DLOG(warn, "proxy") << "malformed rpc fragment";
    return;
  }
  BufferList chunk;
  (void)cur.get_buffer_list(cur.remaining(), chunk);

  const bool is_response = (flags & kResponse) != 0;
  BufferList full;
  {
    const dbg::LockGuard lk(mutex_);
    const auto key = std::make_pair(req_id, is_response);
    auto it = partial_.find(key);
    if (it != partial_.end()) {
      it->second.claim_append(chunk);
      if ((flags & kLastPart) == 0) return;
      full = std::move(it->second);
      partial_.erase(it);
    } else if ((flags & kLastPart) == 0) {
      partial_[key] = std::move(chunk);
      return;
    } else {
      full = std::move(chunk);
    }
  }

  if (is_response) {
    ResponseCb cb;
    {
      const dbg::LockGuard lk(mutex_);
      auto it = pending_.find(req_id);
      if (it == pending_.end()) return;  // late/duplicate
      cb = std::move(it->second);
      pending_.erase(it);
    }
    inflight_ops_.fetch_sub(1, std::memory_order_relaxed);
    cb(std::move(full));
    return;
  }

  if (handler_ == nullptr) {
    DLOG(warn, "proxy") << "rpc request with no handler installed";
    return;
  }
  const bool oneway = (flags & kOneway) != 0;
  Responder respond;
  if (!oneway) {
    // The server side of the idle detector: this op counts as in flight
    // until its response is enqueued (or the responder is dropped — the
    // guard's deleter backstops that path).
    inflight_ops_.fetch_add(1, std::memory_order_relaxed);
    auto done = std::make_shared<std::atomic<bool>>(false);
    auto finish = [this, done] {
      if (!done->exchange(true))
        inflight_ops_.fetch_sub(1, std::memory_order_relaxed);
    };
    auto guard = std::shared_ptr<void>(nullptr, [finish](void*) { finish(); });
    respond = [this, req_id, finish, guard](BufferList response) {
      const Status st = send_fragmented(req_id, kResponse, std::move(response));
      (void)st;
      finish();
    };
  }
  handler_(std::move(full), oneway, std::move(respond), ctx);
}

}  // namespace doceph::proxy
