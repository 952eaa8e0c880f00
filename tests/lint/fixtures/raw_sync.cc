// Fixture: raw-sync-primitive.
//
// The simulator is single-threaded and its page tables single-writer, so
// no std or pthread thread or lock primitive belongs in src/ or bench/
// (the R/M bits are lock-free atomic words, Section 3.1).
#include <mutex>

namespace fx {

std::mutex g_lock;  // BAD: bare std::mutex

int Critical(int v) {
  std::lock_guard<std::mutex> hold(g_lock);  // BAD twice: lock_guard + mutex
  return v + 1;
}

pthread_mutex_t g_raw;  // BAD: pthread primitive

void InitRaw() {
  pthread_mutex_init(&g_raw, nullptr);  // BAD: pthread call
}

std::condition_variable g_cv;  // BAD: condition variable

std::atomic_flag g_spin = ATOMIC_FLAG_INIT;  // BAD: atomic_flag spin lock

void SpawnDetached() {
  std::thread worker([] {});  // BAD: bare thread
  worker.detach();
}

// A documented exception stays allowed:
std::mutex g_grandfathered;  // cpt-lint: allow(raw-sync-primitive)

}  // namespace fx
