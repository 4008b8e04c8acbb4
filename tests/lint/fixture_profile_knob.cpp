// Negative fixture for the profile-knob rule: a bench that spells out the
// production profile by hand instead of picking cluster::Profile::production.
// Each assignment below copies a knob ClusterConfig::testbed owns. Never
// compiled — linter input proving scripts/doceph_lint.py still flags the
// violation class.
// doceph-lint-expect: profile-knob

void hand_rolled_production(ClusterConfig& cfg) {
  cfg.msgr.cork.enabled = true;
  cfg.proxy.rpc_batch.enabled = true;
  cfg.osd_template.max_queue_depth = 256;
  cfg.proxy.slot_acquire_timeout = 5'000'000'000;
  cfg.client.flow_control = true;
}

// Reading a knob is fine: comparisons are not assignments.
bool batched(const ClusterConfig& cfg) { return cfg.proxy.dma_batch.enabled == true; }
