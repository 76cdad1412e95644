#include "analognf/common/thread_slot.hpp"

#include <limits>
#include <mutex>
#include <vector>

namespace analognf {

namespace {

// Offsets of the registered threads' slots above slot 0. Released
// offsets are reused, so `high` is the most registered threads ever
// alive at once, not the number ever started.
struct RegisteredSlots {
  std::mutex mutex;
  std::vector<std::size_t> free;
  std::size_t high = 0;
};

RegisteredSlots& Registered() {
  static RegisteredSlots slots;
  return slots;
}

// Returns the registering thread's offset when the thread exits.
struct SlotRelease {
  std::size_t offset = std::numeric_limits<std::size_t>::max();
  ~SlotRelease() {
    if (offset == std::numeric_limits<std::size_t>::max()) return;
    RegisteredSlots& slots = Registered();
    std::lock_guard<std::mutex> lock(slots.mutex);
    slots.free.push_back(offset);
  }
};

}  // namespace

std::size_t ThreadSlot::Register() {
  if (current_ != 0) return current_;  // already registered
  thread_local SlotRelease release;
  RegisteredSlots& slots = Registered();
  {
    std::lock_guard<std::mutex> lock(slots.mutex);
    if (slots.free.empty()) {
      release.offset = slots.high++;
    } else {
      release.offset = slots.free.back();
      slots.free.pop_back();
    }
  }
  current_ = 1 + release.offset;
  return current_;
}

std::size_t ThreadSlot::UpperBound() {
  RegisteredSlots& slots = Registered();
  std::lock_guard<std::mutex> lock(slots.mutex);
  return 1 + slots.high;
}

}  // namespace analognf
