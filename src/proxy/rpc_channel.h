#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/trace.h"
#include "dbg/mutex.h"

#include "doca/comm_channel.h"
#include "sim/env.h"

namespace doceph::proxy {

/// Doorbell coalescing for RpcChannel: frames queue and flush as one
/// multi-frame comch message, amortizing the per-message driver/doorbell
/// overhead (paid on BOTH endpoints) across the batch. Adaptive: a frame
/// enqueued while no other op is in flight flushes immediately (no added
/// latency when idle); under load frames coalesce until the batch fills
/// (max_frames / message-size cap) or the flush_delay deadline expires.
/// Disabled, every frame is a batch of one and flushes at once, through
/// the same path (so the "dpu.batch_flush_stall" fault covers it too).
struct RpcBatchConfig {
  bool enabled = false;
  int max_frames = 16;             ///< doorbell after this many frames
  sim::Duration flush_delay = 20'000;  ///< deadline doorbell (virtual ns)
};

/// Request/response RPC over a size-capped CommChannel: payloads larger than
/// one channel message are fragmented and reassembled transparently. One
/// side acts as client (call/call_async/notify), the other as server
/// (set_request_handler); both roles may be mixed.
///
/// Wire format: every comch message is a container of one or more
/// [u32 frame_len][frame] entries; a frame is [u64 req_id][u8 flags]
/// [TraceContext][payload chunk]. Without batching each message carries
/// exactly one frame (a batch of one); with batching the container is the
/// batch.
class RpcChannel {
 public:
  RpcChannel(sim::Env& env, doca::CommChannelRef channel);

  /// Install the inbound pump; messages are processed in `center`'s thread.
  /// Must be called before any traffic arrives. The center also hosts the
  /// batch deadline timer when batching is enabled.
  void start(event::EventCenter& center);

  /// Configure doorbell coalescing. Call before start() / any traffic —
  /// not a thread-safe hot swap.
  void set_batch_config(RpcBatchConfig cfg) { batch_cfg_ = cfg; }
  [[nodiscard]] const RpcBatchConfig& batch_config() const noexcept {
    return batch_cfg_;
  }

  /// Detach from the channel (drops its recv handler). Must be called
  /// before the EventCenter passed to start() is destroyed.
  void detach();

  // ---- client role -----------------------------------------------------------
  using ResponseCb = std::function<void(Result<BufferList>)>;
  /// Fire a request; `cb` runs in the channel's EventCenter thread when the
  /// response arrives (or with a status on channel failure). Returns the
  /// request id, usable with cancel(). `ctx` rides every fragment's header
  /// and reaches the server's RequestHandler (distributed tracing).
  std::uint64_t call_async(BufferList request, ResponseCb cb,
                           const trace::TraceContext& ctx = {});
  /// Drop the pending callback for `id`; a late response is then ignored.
  /// Returns false if the response already claimed the callback (it has run
  /// or is about to).
  bool cancel(std::uint64_t id);
  /// Blocking call (sim time) with timeout. On timeout the pending slot is
  /// reclaimed — a late response cannot touch freed state.
  Result<BufferList> call(BufferList request, sim::Duration timeout,
                          const trace::TraceContext& ctx = {});
  /// One-way request (no response expected).
  Status notify(BufferList request, const trace::TraceContext& ctx = {});

  /// Blocking calls that ended in timed_out (diagnostics).
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_.load(); }

  // ---- server role -----------------------------------------------------------
  /// `respond` may be invoked from any thread, exactly once (skip for oneway).
  /// The TraceContext is the caller's (zero when the request is untraced).
  using Responder = std::function<void(BufferList)>;
  using RequestHandler = std::function<void(BufferList, bool oneway, Responder,
                                            const trace::TraceContext&)>;
  void set_request_handler(RequestHandler h) { handler_ = std::move(h); }

  /// Total payload bytes moved through this endpoint (diagnostics).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_.load(); }

  // ---- batching diagnostics --------------------------------------------------
  /// Comch messages sent (each is one doorbell on each endpoint).
  [[nodiscard]] std::uint64_t batch_flushes() const noexcept { return flushes_.load(); }
  /// Frames sent; frames/flushes > 1 is the coalescing win.
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_.load(); }
  /// Flushes deferred by a fired "dpu.batch_flush_stall" fault.
  [[nodiscard]] std::uint64_t batch_stalls() const noexcept { return stalls_.load(); }

 private:
  enum Flags : std::uint8_t { kResponse = 1, kOneway = 2, kLastPart = 4 };

  Status send_fragmented(std::uint64_t req_id, std::uint8_t flags, BufferList payload,
                         const trace::TraceContext& ctx = {});
  /// Queue one framed entry; packs on the size/idle doorbells, else arms
  /// the deadline timer. Nothing touches the channel here — callers run
  /// drain_sends() after dropping mutex_.
  void enqueue_frame_locked(BufferList frame, bool is_request,
                            std::uint64_t req_id) DOCEPH_REQUIRES(mutex_);
  /// Pack the pending batch into outbound messages on sendq_ (splitting at
  /// the comch message cap). Does NOT send: CommChannel::send charges
  /// simulated CPU (a virtual-clock sleep), and sleeping while holding
  /// mutex_ would stall every thread blocked on it — and with them the
  /// virtual clock itself (TimeKeeper discipline).
  void flush_locked() DOCEPH_REQUIRES(mutex_);
  /// Send queued messages FIFO. One thread drains at a time (sending_), so
  /// wire order matches pack order; the channel is only ever touched with
  /// mutex_ dropped. Failed request frames get their callbacks run with the
  /// send error.
  void drain_sends();
  void arm_timer_locked(sim::Duration delay) DOCEPH_REQUIRES(mutex_);
  void on_message(BufferList msg);
  void on_frame(BufferList frame);

  sim::Env& env_;
  doca::CommChannelRef ch_;
  RequestHandler handler_;
  event::EventCenter* center_ = nullptr;
  RpcBatchConfig batch_cfg_;

  dbg::Mutex mutex_{"proxy.rpc"};
  std::atomic<std::uint64_t> next_id_{1};
  std::map<std::uint64_t, ResponseCb> pending_ DOCEPH_GUARDED_BY(mutex_);
  // Reassembly buffers keyed by (req_id, is_response).
  std::map<std::pair<std::uint64_t, bool>, BufferList> partial_
      DOCEPH_GUARDED_BY(mutex_);

  // Pending doorbell batch: framed [u32 len][frame] entries, per-entry
  // request ids (0 for responses/oneways; a send failure fails the ids
  // riding the failed message), and the single deadline-timer arm flag (a
  // stale timer firing after an early flush just flushes newer frames
  // early — never starves).
  std::vector<BufferList> batch_entries_ DOCEPH_GUARDED_BY(mutex_);
  std::size_t batch_bytes_ DOCEPH_GUARDED_BY(mutex_) = 0;
  std::vector<std::uint64_t> batch_entry_ids_ DOCEPH_GUARDED_BY(mutex_);
  bool timer_armed_ DOCEPH_GUARDED_BY(mutex_) = false;
  event::EventCenter::TimerId timer_id_ DOCEPH_GUARDED_BY(mutex_) = 0;

  // Outbound messages packed by flush_locked, drained FIFO by the single
  // active drain_sends() caller.
  struct OutMsg {
    BufferList msg;
    std::vector<std::uint64_t> req_ids;  ///< request frames riding it
  };
  std::deque<OutMsg> sendq_ DOCEPH_GUARDED_BY(mutex_);
  bool sending_ DOCEPH_GUARDED_BY(mutex_) = false;

  // Ops in flight through this endpoint (client: request sent, response
  // not yet claimed; server: request dispatched, response not yet sent) —
  // the idle detector for the adaptive doorbell.
  std::atomic<int> inflight_ops_{0};
  // Nonzero while on_message is dispatching the frames of an incoming
  // comch message. Frames are dispatched one at a time, so a responder's
  // inflight count never exceeds 1 and the idle doorbell alone would ring
  // per response; this is the busy signal that lets inline responses to a
  // multi-frame message coalesce (flushed at end of dispatch).
  std::atomic<int> dispatching_{0};

  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> stalls_{0};
};

}  // namespace doceph::proxy
