// Futex wait queues.
//
// Keys are (physical frame, offset) pairs, so a futex word in shared memory — e.g.
// inside the IP-MON replication buffer, mapped at a *different* virtual address in
// every replica — correctly wakes waiters across processes. This is the substrate for
// IP-MON's per-invocation condition variables (paper §3.7) and for the record/replay
// agent's synchronization replication (§2.3).

#ifndef SRC_KERNEL_FUTEX_H_
#define SRC_KERNEL_FUTEX_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/mem/page.h"
#include "src/vfs/wait_queue.h"

namespace remon {

// A queue exists only while its word has waiters: only a waiter creates one
// (QueueFor), and a wake that leaves it without waiters drops it. So a wake on a
// word nobody waits on costs one lookup in a map of the currently waited words —
// the host-side twin of IP-MON's elided FUTEX_WAKE (paper §3.7).
class FutexTable {
 public:
  using Key = std::pair<const Page*, uint64_t>;

  // Returns the wait queue for a futex word, creating it on demand. For waiters.
  WaitQueue& QueueFor(const Page* frame, uint64_t offset) {
    return queues_[KeyOf(frame, offset)];
  }

  // Returns the word's wait queue, or nullptr when the word has none.
  WaitQueue* Find(const Page* frame, uint64_t offset) {
    auto it = queues_.find(KeyOf(frame, offset));
    return it == queues_.end() ? nullptr : &it->second;
  }

  // Wakes up to `n` waiters (FUTEX_WAKE); returns the number woken.
  int Wake(const Page* frame, uint64_t offset, int n) {
    auto it = queues_.find(KeyOf(frame, offset));
    if (it == queues_.end()) {
      return 0;
    }
    ++waking_;
    int woken = 0;
    while (woken < n && it->second.has_waiters()) {
      it->second.WakeN(1);
      ++woken;
    }
    --waking_;
    DropIfIdle(it);
    return woken;
  }

  // Wakes every waiter of the word.
  void WakeAll(const Page* frame, uint64_t offset) {
    auto it = queues_.find(KeyOf(frame, offset));
    if (it == queues_.end()) {
      return;
    }
    ++waking_;
    it->second.Wake();
    --waking_;
    DropIfIdle(it);
  }

  size_t queue_count() const { return queues_.size(); }

 private:
  using Map = std::map<Key, WaitQueue>;

  static Key KeyOf(const Page* frame, uint64_t offset) {
    return Key{frame, offset & ~uint64_t{3}};
  }

  // Drops a queue that has no waiter left. A wake further up the stack (a woken
  // waiter's callback that wakes again) may still be iterating some queue, so
  // only the outermost wake drops; a queue skipped here goes at its next wake.
  void DropIfIdle(Map::iterator it) {
    if (waking_ == 0 && !it->second.has_waiters()) {
      queues_.erase(it);
    }
  }

  Map queues_;
  int waking_ = 0;  // Wakes in progress on the host stack.
};

}  // namespace remon

#endif  // SRC_KERNEL_FUTEX_H_
