// Microbenchmarks of the simulated transports, reported in *simulated* time
// (the metric the reproduction is built on): CommChannel RPC round trip,
// DMA engine segment throughput, and a messenger message round trip. Uses
// plain timing harnesses (google-benchmark measures wall time, which for a
// simulation only measures the simulator itself — also reported for
// context).
#include <cstdio>

#include "benchcore/table.h"
#include "doca/comm_channel.h"
#include "doca/dma_engine.h"
#include "msgr/messenger.h"
#include "msgr/messages.h"
#include "proxy/rpc_channel.h"
#include "sim/env.h"

using namespace doceph;
using namespace doceph::benchcore;

namespace {

/// Simulated time for one CommChannel RPC round trip (small payload).
double comch_rpc_rtt_us() {
  sim::Env env;
  doca::PcieLink link;
  auto [host, dpu] = doca::CommChannel::create_pair(env, link);
  proxy::RpcChannel server(env, host);
  proxy::RpcChannel client(env, dpu);
  event::EventCenter sc(env), cc(env);
  sim::Thread st(env.keeper(), env.stats(), "server", nullptr, [&] { sc.run(); });
  sim::Thread ct(env.keeper(), env.stats(), "client", nullptr, [&] { cc.run(); });
  server.set_request_handler([](BufferList, bool,
                                proxy::RpcChannel::Responder respond,
                                const trace::TraceContext&) {
    respond(BufferList::copy_of("pong"));
  });
  server.start(sc);
  client.start(cc);

  double rtt_us = 0;
  env.run_on_sim_thread([&] {
    constexpr int kIters = 100;
    const sim::Time t0 = env.now();
    for (int i = 0; i < kIters; ++i)
      (void)client.call(BufferList::copy_of("ping"), 1'000'000'000);
    rtt_us = static_cast<double>(env.now() - t0) / kIters / 1000.0;
  });
  sc.stop();
  cc.stop();
  return rtt_us;
}

/// Simulated DMA throughput for back-to-back 2 MB segments.
double dma_gbps(int jobs) {
  sim::Env env;
  doca::PcieLink link;
  doca::DmaEngine dma(env, link, doca::DmaConfig{});
  auto src = std::make_shared<doca::Mmap>(2 << 20);
  auto dst = std::make_shared<doca::Mmap>(2 << 20);
  double gbps = 0;
  env.run_on_sim_thread([&] {
    std::mutex m;
    sim::CondVar cv(env.keeper());
    int done = 0;
    const sim::Time t0 = env.now();
    for (int i = 0; i < jobs; ++i) {
      (void)dma.submit({src, 0, 2 << 20}, {dst, 0, 2 << 20}, doca::DmaDir::dpu_to_host,
                       [&](Status) {
                         const std::lock_guard<std::mutex> lk(m);
                         ++done;
                         cv.notify_all();
                       });
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == jobs; });
    const double secs = sim::to_seconds(env.now() - t0);
    gbps = static_cast<double>(jobs) * (2 << 20) / secs / 1e9;
  });
  return gbps;
}

/// Simulated round trip of a small message through the full messenger stack.
double messenger_rtt_us() {
  sim::Env env;
  net::Fabric fabric(env);
  auto& na = fabric.add_node("a");
  auto& nb = fabric.add_node("b");
  msgr::Messenger ma(env, fabric, na, nullptr, "client.1");
  msgr::Messenger mb(env, fabric, nb, nullptr, "osd.0");

  struct Echo : msgr::Dispatcher {
    void ms_dispatch(const msgr::MessageRef& m) override {
      if (m->type() == msgr::MsgType::osd_op) {
        auto reply = std::make_shared<msgr::MOSDOpReply>();
        reply->tid = m->tid;
        m->connection->send_message(reply);
      }
    }
  } echo;
  struct Collect : msgr::Dispatcher {
    sim::Env& env;
    std::mutex m;
    sim::CondVar cv;
    int got = 0;
    explicit Collect(sim::Env& e) : env(e), cv(e.keeper()) {}
    void ms_dispatch(const msgr::MessageRef&) override {
      const std::lock_guard<std::mutex> lk(m);
      ++got;
      cv.notify_all();
    }
  } collect(env);
  ma.set_dispatcher(&collect);
  mb.set_dispatcher(&echo);
  (void)mb.bind(6800);
  ma.start();
  mb.start();

  double rtt_us = 0;
  env.run_on_sim_thread([&] {
    auto con = ma.get_connection(mb.addr());
    constexpr int kIters = 100;
    const sim::Time t0 = env.now();
    for (int i = 0; i < kIters; ++i) {
      auto op = std::make_shared<msgr::MOSDOp>();
      op->tid = static_cast<std::uint64_t>(i);
      op->object = "o";
      con->send_message(op);
      std::unique_lock<std::mutex> lk(collect.m);
      collect.cv.wait(lk, [&] { return collect.got > i; });
    }
    rtt_us = static_cast<double>(env.now() - t0) / kIters / 1000.0;
  });
  ma.shutdown();
  mb.shutdown();
  return rtt_us;
}

}  // namespace

int main() {
  print_banner("Micro", "Transport primitives (simulated time)");
  Table t({"primitive", "metric", "value"});
  t.row({"CommChannel RPC", "round trip", Table::num(comch_rpc_rtt_us(), 1) + " us"});
  t.row({"DMA engine", "2MB x32 pipelined", Table::num(dma_gbps(32), 2) + " GB/s"});
  t.row({"DMA engine", "2MB single job", Table::num(dma_gbps(1), 2) + " GB/s"});
  t.row({"Messenger", "small msg round trip",
         Table::num(messenger_rtt_us(), 1) + " us"});
  t.print();
  return 0;
}
