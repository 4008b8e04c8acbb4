#pragma once

#include <string>

namespace doceph {

/// Name of the calling sim thread, or "unnamed" outside one. Names follow
/// Ceph's conventions: "msgr-worker-0", "tp_osd_tp", "bstore_kv_sync"...
const std::string& current_thread_name() noexcept;

/// Exchange the calling OS thread's name with `name`. Every sim thread is a
/// fiber on one OS thread; sim::TimeKeeper swaps each fiber's name in and
/// out as it switches between them.
void swap_current_thread_name(std::string& name) noexcept;

}  // namespace doceph
