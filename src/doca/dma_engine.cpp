#include "doca/dma_engine.h"

#include <cstring>

namespace doceph::doca {

DmaEngine::DmaEngine(sim::Env& env, PcieLink& link, DmaConfig cfg, std::string name)
    : env_(env), link_(link), cfg_(cfg), name_(std::move(name)) {}

void DmaEngine::set_failure_rate(double rate) {
  fault::FaultSpec spec;
  spec.probability = rate;
  spec.match = name_;
  env_.faults().set("doca.dma_error", std::move(spec));
}

void DmaEngine::fail_next(int n) { env_.faults().fire_next("doca.dma_error", n, name_); }

Status DmaEngine::submit(const Buf& src, const Buf& dst, DmaDir dir, JobCb cb,
                         const trace::TraceContext& ctx) {
  return submit_sg({DmaExtent{src, dst}}, dir,
                   [cb = std::move(cb)](std::size_t, Status st) { cb(std::move(st)); },
                   ctx);
}

Status DmaEngine::submit_sg(const std::vector<DmaExtent>& extents, DmaDir dir,
                            ExtentCb cb, const trace::TraceContext& ctx) {
  if (extents.empty()) return Status(Errc::invalid_argument, "empty sg list");
  for (const auto& e : extents) {
    if (!e.src.valid() || !e.dst.valid() || e.src.len != e.dst.len ||
        e.src.len == 0)
      return Status(Errc::invalid_argument, "bad dma buffers");
    if (e.src.len > cfg_.max_transfer)
      return Status(Errc::too_large,
                    "dma job exceeds hardware transfer cap (" +
                        std::to_string(cfg_.max_transfer) + " bytes)");
  }

  // Greedy-pack consecutive extents into engine passes; the hardware
  // transfer cap is the ONLY split point.
  struct Pass {
    std::size_t first = 0;
    std::size_t count = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<Pass> passes;
  for (std::size_t i = 0; i < extents.size(); ++i) {
    if (passes.empty() ||
        passes.back().bytes + extents[i].src.len > cfg_.max_transfer)
      passes.push_back({i, 0, 0});
    passes.back().count++;
    passes.back().bytes += extents[i].src.len;
  }
  if (inflight_.load(std::memory_order_relaxed) +
          static_cast<int>(passes.size()) >
      cfg_.queue_depth)
    return Status(Errc::busy, "dma queue full");

  const sim::Time now = env_.now();
  // Fault consult is per extent, in extent order, so an armed
  // "doca.dma_error" fails only the matched extent of a batch (a spec's
  // match string can address one extent as "<name>#<index>").
  std::vector<char> fail(extents.size(), 0);
  for (std::size_t i = 0; i < extents.size(); ++i)
    fail[i] = env_.faults().should_fire("doca.dma_error", now,
                                        name_ + "#" + std::to_string(i))
                  ? 1
                  : 0;

  auto fan_out = std::make_shared<ExtentCb>(std::move(cb));
  for (const auto& p : passes) {
    inflight_.fetch_add(1);
    // The engine serializes passes at its own (lower) bandwidth; the PCIe
    // link is booked too so DMA and CommChannel traffic contend
    // realistically. Setup is latency, not occupancy — and for a packed
    // pass it is paid once per pass, not per extent: that amortization is
    // the point of scatter-gather (§3.3).
    const sim::Time engine_done =
        engine_.reserve(now, sim::transfer_time(p.bytes, cfg_.bw_bytes_per_sec));
    const sim::Time pcie_done = dir == DmaDir::dpu_to_host
                                    ? link_.reserve_d2h(now, p.bytes)
                                    : link_.reserve_h2d(now, p.bytes);
    const sim::Time done = std::max(engine_done, pcie_done) + cfg_.setup_latency;
    if (ctx.sampled()) {
      // The modeled completion time is known at submit, so extent spans are
      // recorded retrospectively up front (crash-safe: they are in the ring
      // even if the callback never runs).
      for (std::size_t i = p.first; i < p.first + p.count; ++i)
        env_.tracer().record_span("doca.dma_job", "dma." + name_, ctx, now,
                                  done, extents[i].src.off);
    }

    std::vector<DmaExtent> pass_ext(extents.begin() + p.first,
                                    extents.begin() + p.first + p.count);
    std::vector<char> pass_fail(fail.begin() + p.first,
                                fail.begin() + p.first + p.count);
    env_.keeper().call_at(
        done, [this, first = p.first, pass_ext = std::move(pass_ext),
               pass_fail = std::move(pass_fail), fan_out] {
          inflight_.fetch_sub(1);
          for (std::size_t j = 0; j < pass_ext.size(); ++j) {
            if (pass_fail[j]) {
              failed_.fetch_add(1, std::memory_order_relaxed);
              (*fan_out)(first + j,
                         Status(Errc::channel_error, "dma transfer error"));
              continue;
            }
            const auto& e = pass_ext[j];
            std::memcpy(e.dst.data(), e.src.data(), e.src.len);
            jobs_done_.fetch_add(1, std::memory_order_relaxed);
            bytes_.fetch_add(e.src.len, std::memory_order_relaxed);
            (*fan_out)(first + j, Status::OK());
          }
        });
  }
  passes_.fetch_add(passes.size(), std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace doceph::doca
