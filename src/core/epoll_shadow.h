// The epoll data shadow mapping (paper §3.9).
//
// epoll_event.data is an opaque per-replica cookie (usually a heap pointer), so the
// master's values are meaningless in the slaves. Both GHUMVEE and IP-MON therefore
// track, per replica, the (epfd, fd) -> data association established by epoll_ctl and
// its reverse; replicating an epoll_wait result rewrites master data -> fd -> slave
// data. The maps sit on the hot path of every epoll_ctl/epoll_wait under SOCKET_RO,
// so they are hash maps on packed 64-bit keys (O(1) lookups), not ordered trees.

#ifndef SRC_CORE_EPOLL_SHADOW_H_
#define SRC_CORE_EPOLL_SHADOW_H_

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "src/kernel/abi.h"

namespace remon {

class EpollShadowMap {
 public:
  // Records the association an epoll_ctl established (op == kEpollCtlDel removes it;
  // add/mod replace any previous mapping, keeping the reverse map consistent).
  void Record(int epfd, int op, int fd, uint64_t data) {
    uint64_t key = FwdKey(epfd, fd);
    if (op == kEpollCtlDel) {
      auto it = data_.find(key);
      if (it != data_.end()) {
        rev_.erase({epfd, it->second});
        data_.erase(it);
      }
      return;
    }
    auto old = data_.find(key);
    if (old != data_.end()) {
      rev_.erase({epfd, old->second});
    }
    data_[key] = data;
    rev_[{epfd, data}] = fd;
  }

  // data -> fd (used on the producing side to canonicalize the master's results).
  bool FdForData(int epfd, uint64_t data, int* fd_out) const {
    auto it = rev_.find({epfd, data});
    if (it == rev_.end()) {
      return false;
    }
    *fd_out = it->second;
    return true;
  }

  // fd -> data (used on the consuming side to localize results for this replica).
  bool DataForFd(int epfd, int fd, uint64_t* data_out) const {
    auto it = data_.find(FwdKey(epfd, fd));
    if (it == data_.end()) {
      return false;
    }
    *data_out = it->second;
    return true;
  }

 private:
  // (epfd, fd) packed into one 64-bit key: both are small non-negative descriptor
  // numbers in practice; truncating to 32 bits each is lossless.
  static uint64_t FwdKey(int epfd, int fd) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(epfd)) << 32) |
           static_cast<uint32_t>(fd);
  }

  // (epfd, data) cannot pack — data uses all 64 bits — so the reverse map hashes the
  // pair instead.
  struct RevHash {
    size_t operator()(const std::pair<int, uint64_t>& k) const {
      uint64_t h = k.second * 0x9e3779b97f4a7c15ULL;  // Fibonacci scramble.
      return static_cast<size_t>(h ^ static_cast<uint32_t>(k.first));
    }
  };

  std::unordered_map<uint64_t, uint64_t> data_;
  std::unordered_map<std::pair<int, uint64_t>, int, RevHash> rev_;
};

}  // namespace remon

#endif  // SRC_CORE_EPOLL_SHADOW_H_
