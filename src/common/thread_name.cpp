#include "common/thread_name.h"

namespace doceph {
namespace {

thread_local std::string t_name = "unnamed";

}  // namespace

const std::string& current_thread_name() noexcept { return t_name; }

void swap_current_thread_name(std::string& name) noexcept { t_name.swap(name); }

}  // namespace doceph
