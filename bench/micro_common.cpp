// Google-benchmark microbenchmarks of the hot real-computation primitives:
// crc32c (every message pays it; the run-time-selected and the software
// kernel), bufferlist rope operations, and the denc-style encoding. These
// run in real time (no simulation involved), except BM_KeeperHandoff and
// BM_KeeperTimer, which time the simulator's own cost of passing the run
// baton between two sim threads and of a timed callback that wakes a sim
// thread.
#include <benchmark/benchmark.h>

#include "common/buffer.h"
#include "common/crc32c.h"
#include "common/encoding.h"
#include "common/histogram.h"
#include "crush/crush_map.h"
#include "dbg/cond_var.h"
#include "dbg/mutex.h"
#include "os/transaction.h"
#include "sim/env.h"

namespace {

using namespace doceph;

void run_crc(benchmark::State& state,
             std::uint32_t (*fn)(std::uint32_t, const void*, std::size_t) noexcept) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<char> buf(n, 'x');
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = fn(crc, buf.data(), n);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_Crc32c(benchmark::State& state) { run_crc(state, crc32c); }
BENCHMARK(BM_Crc32c)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

// The portable slice-by-8 kernel: the fallback on CPUs without SSE4.2.
void BM_Crc32cSoftware(benchmark::State& state) { run_crc(state, crc32c_sw); }
BENCHMARK(BM_Crc32cSoftware)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_BufferListAppend(benchmark::State& state) {
  const Slice chunk = Slice::copy_of(std::string(4096, 'a'));
  for (auto _ : state) {
    BufferList bl;
    for (int i = 0; i < 64; ++i) bl.append(chunk);
    benchmark::DoNotOptimize(bl.length());
  }
}
BENCHMARK(BM_BufferListAppend);

void BM_BufferListSubstr(benchmark::State& state) {
  BufferList bl;
  for (int i = 0; i < 256; ++i) bl.append(Slice::copy_of(std::string(4096, 'b')));
  for (auto _ : state) {
    BufferList sub = bl.substr(123456, 500000);
    benchmark::DoNotOptimize(sub.length());
  }
}
BENCHMARK(BM_BufferListSubstr);

void BM_BufferListCrc(benchmark::State& state) {
  BufferList bl;
  for (int i = 0; i < 256; ++i) bl.append(Slice::copy_of(std::string(4096, 'c')));
  for (auto _ : state) benchmark::DoNotOptimize(bl.crc32c());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 256 * 4096);
}
BENCHMARK(BM_BufferListCrc);

void BM_TransactionEncodeDecode(benchmark::State& state) {
  os::Transaction txn;
  txn.create_collection({1, 0});
  txn.write_full({1, 0}, {1, "object-name"}, BufferList::copy_of(std::string(4096, 'd')));
  txn.omap_set({1, 0}, {1, "object-name"}, {{"key", BufferList::copy_of("value")}});
  for (auto _ : state) {
    BufferList bl;
    txn.encode(bl);
    os::Transaction out;
    BufferList::Cursor cur(bl);
    benchmark::DoNotOptimize(out.decode(cur));
  }
}
BENCHMARK(BM_TransactionEncodeDecode);

void BM_CrushSelect(benchmark::State& state) {
  const crush::CrushMap map = crush::CrushMap::build_flat(16);
  std::uint32_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.select(x++, 3));
  }
}
BENCHMARK(BM_CrushSelect);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = v * 1664525u + 1013904223u;
  }
}
BENCHMARK(BM_HistogramRecord);

// Two sim threads ping-pong over one CondVar; each iteration is two baton
// handoffs and no simulated time passes. per_handoff is wall time.
void BM_KeeperHandoff(benchmark::State& state) {
  sim::Env env;
  dbg::Mutex m("bench.handoff");
  dbg::CondVar cv(env.keeper(), "bench.handoff_cv");
  std::uint64_t turn = 0;  // odd: pong's turn
  bool done = false;
  sim::Thread pong = env.spawn("pong", nullptr, [&] {
    dbg::UniqueLock lk(m);
    while (true) {
      cv.wait(lk, [&] {
        m.assert_held();
        return done || turn % 2 == 1;
      });
      if (done) return;
      ++turn;
      cv.notify_one();
    }
  });
  env.run_on_sim_thread(
      [&] {
        dbg::UniqueLock lk(m);
        for (auto _ : state) {
          ++turn;
          cv.notify_one();
          cv.wait(lk, [&] {
            m.assert_held();
            return turn % 2 == 0;
          });
        }
        done = true;
        cv.notify_one();
      },
      "ping");
  pong.join();
  benchmark::DoNotOptimize(turn);
  state.counters["per_handoff"] =
      benchmark::Counter(static_cast<double>(turn),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_KeeperHandoff)->UseRealTime();

// A device-completion round trip: a sim thread books a callback 1 us ahead
// and waits on a CondVar that the callback notifies.
void BM_KeeperTimer(benchmark::State& state) {
  sim::Env env;
  dbg::Mutex m("bench.timer");
  dbg::CondVar cv(env.keeper(), "bench.timer_cv");
  std::uint64_t fired = 0;
  env.run_on_sim_thread(
      [&] {
        dbg::UniqueLock lk(m);
        for (auto _ : state) {
          const std::uint64_t want = fired + 1;
          env.keeper().call_after(1'000, [&] {
            const dbg::LockGuard cb_lk(m);
            ++fired;
            cv.notify_one();
          });
          cv.wait(lk, [&] {
            m.assert_held();
            return fired == want;
          });
        }
      },
      "waiter");
  benchmark::DoNotOptimize(fired);
  state.counters["per_callback"] =
      benchmark::Counter(static_cast<double>(fired),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_KeeperTimer)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
