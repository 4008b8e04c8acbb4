#include <gtest/gtest.h>

#include <cstdio>

#include "benchcore/experiment.h"
#include "benchcore/table.h"

namespace doceph::benchcore {
namespace {

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::pct(0.825), "82.5%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
  // Small negatives that round to zero print without a sign.
  EXPECT_EQ(Table::num(-0.004, 2), "0.00");
  EXPECT_EQ(Table::num(-0.4, 0), "0");
  EXPECT_EQ(Table::num(-0.0, 1), "0.0");
  EXPECT_EQ(Table::pct(-0.00467, 0), "0%");
  EXPECT_EQ(Table::num(-0.006, 2), "-0.01");
  EXPECT_EQ(Table::pct(-0.25, 0), "-25%");
}

TEST(RunSpec, LabelIsStableAndDistinct) {
  RunSpec a;
  RunSpec b;
  EXPECT_EQ(a.label(), b.label());
  b.object_size = 16 << 20;
  EXPECT_NE(a.label(), b.label());
  RunSpec c;
  c.mode = cluster::DeployMode::doceph;
  EXPECT_NE(a.label(), c.label());
  RunSpec d;
  d.proxy_override = cluster::default_proxy();
  d.proxy_override->slots = 4;
  EXPECT_NE(a.label(), d.label());
  RunSpec e;
  e.dma_failure_rate = 0.01;
  EXPECT_NE(a.label(), e.label());
  RunSpec prod;
  prod.profile = cluster::Profile::production;
  EXPECT_NE(a.label(), prod.label());
  // Op lanes and KV shards are separate dimensions: a split cell is
  // distinct from its mirror, from the diagonal and from the unsharded one.
  RunSpec op4;
  op4.op_shards = 4;
  RunSpec kv4;
  kv4.kv_shards = 4;
  RunSpec both4;
  both4.op_shards = both4.kv_shards = 4;
  EXPECT_NE(op4.label(), kv4.label());
  EXPECT_NE(op4.label(), both4.label());
  EXPECT_NE(kv4.label(), both4.label());
  EXPECT_NE(a.label(), op4.label());
  EXPECT_NE(a.label(), kv4.label());
}

TEST(BreakdownSnapshot, OthersIsResidualAndNonNegative) {
  proxy::BreakdownSnapshot bd;
  bd.count = 2;
  bd.total_ns = 100;
  bd.dma_ns = 20;
  bd.dma_wait_ns = 30;
  bd.host_write_ns = 10;
  EXPECT_DOUBLE_EQ(bd.others_ns_avg(), 20.0 * 1e-9);
  // Components exceeding total (overlap) clamp to zero rather than go
  // negative.
  bd.dma_ns = 200;
  EXPECT_DOUBLE_EQ(bd.others_ns_avg(), 0.0);
}

TEST(Experiment, ShortRunProducesCoherentMetrics) {
  RunSpec spec;
  spec.mode = cluster::DeployMode::doceph;
  spec.object_size = 1 << 20;
  spec.concurrency = 8;
  spec.warmup = 200'000'000;
  spec.measure = 800'000'000;
  spec.pg_num = 16;
  const auto r = run_experiment(spec);
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.iops, 0.0);
  EXPECT_NEAR(r.mbps, r.iops * 1.048576, r.iops * 0.05);
  EXPECT_GT(r.avg_lat_s, 0.0);
  EXPECT_GT(r.dpu_cores, r.host_cores);  // the offload, in one assertion
  EXPECT_GT(r.share_messenger, 0.3);
  EXPECT_GT(r.bd_total_s, 0.0);
  EXPECT_GE(r.bd_total_s,
            r.bd_dma_s);  // total covers its components on average
  const double share_sum = r.share_messenger + r.share_objectstore + r.share_osd;
  EXPECT_LE(share_sum, 1.0 + 1e-9);
  EXPECT_GT(r.window_s, 0.7);
}

// paper_figures runs every cell of the sweep in one process, so a cell's
// result must not depend on what ran before it: no state may leak from one
// run_experiment into the next.
TEST(Experiment, CellResultIndependentOfRunOrder) {
  RunSpec a;
  a.mode = cluster::DeployMode::doceph;
  a.object_size = 1 << 20;
  a.concurrency = 8;
  a.warmup = 100'000'000;
  a.measure = 300'000'000;
  a.pg_num = 16;
  RunSpec b = a;
  b.mode = cluster::DeployMode::baseline;
  b.object_size = 16 << 10;

  const RunResult first = run_experiment(a);
  const RunResult other = run_experiment(b);
  const RunResult again = run_experiment(a);
  ASSERT_GT(first.ops, 0u);
  ASSERT_GT(other.ops, 0u);
  EXPECT_EQ(first.ops, again.ops);
  EXPECT_EQ(first.iops, again.iops);
  // Every field, via RunResult's defaulted operator==.
  EXPECT_TRUE(first == again) << "a RunResult field differs between the two A runs";
}

}  // namespace
}  // namespace doceph::benchcore
