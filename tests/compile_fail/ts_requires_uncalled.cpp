// Negative thread-safety case: calling an `I2A_REQUIRES(mu)` function
// without holding `mu`. Under Clang `-Wthread-safety
// -Werror=thread-safety` this TU must be REJECTED — the REQUIRES
// contract is what keeps `wait_settled_locked` / `pending_merges_locked` /
// `plan_task_locked` callable only from locked scopes, so a compiling
// version of this file means those contracts are unenforced. Checked at
// configure time by tests/CMakeLists.txt, Clang configurations only.

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace {

struct Queue {
  i2a::util::Mutex mu;
  int depth I2A_GUARDED_BY(mu) = 0;

  int drain_locked() I2A_REQUIRES(mu) {
    const int d = depth;
    depth = 0;
    return d;
  }
};

}  // namespace

int main() {
  Queue q;
  return q.drain_locked();  // caller does not hold q.mu — must not compile
}
