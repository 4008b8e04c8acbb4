// Negative fixture for the real-time-wait rule: a test that polls
// simulation state from its main thread in real time. Nothing simulated
// runs while main waits outside a join, so each loop below spins forever.
// Never compiled — linter input proving scripts/doceph_lint.py still flags
// the violation class.
// doceph-lint-expect: real-time-wait

void poll_for_handler(std::atomic<bool>& ran) {
  while (!ran.load()) std::this_thread::yield();
}

void poll_for_timer(std::atomic<int>& fired) {
  while (fired.load() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void wait_for_deadline(std::chrono::steady_clock::time_point t) {
  std::this_thread::sleep_until(t);
}
