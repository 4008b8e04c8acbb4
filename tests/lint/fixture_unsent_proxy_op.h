// Negative fixture for the proxy-op-sent rule: a ProxyOp enumerator that
// only ever appears in the host's dispatch switch — nothing sends it. Never
// compiled — linter input proving scripts/doceph_lint.py still flags the
// violation class.
// doceph-lint-expect: proxy-op-sent
#include <cstdint>

namespace fixture {

enum class ProxyOp : std::uint8_t {
  ping = 1,
  submit_txn = 2,
  release_slots = 10,  // dispatched below, but no caller ever sends it
};

void send(ProxyOp op);

inline void client() {
  send(ProxyOp::ping);
  send(ProxyOp::submit_txn);
}

inline void dispatch(ProxyOp op) {
  switch (op) {
    case ProxyOp::ping:
    case ProxyOp::submit_txn:
      break;
    case ProxyOp::release_slots:
      break;
  }
}

}  // namespace fixture
