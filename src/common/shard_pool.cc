#include "src/common/shard_pool.h"

#include <algorithm>

namespace rhythm {
namespace {

// True while this thread runs some pool's phase function.
thread_local bool in_phase = false;

// Marks the calling thread as inside a phase for its lifetime.
class PhaseScope {
 public:
  PhaseScope() : outer_(in_phase) { in_phase = true; }
  ~PhaseScope() { in_phase = outer_; }

 private:
  const bool outer_;
};

}  // namespace

ShardPool::ShardPool(int shards)
    : shards_(in_phase ? 1 : std::max(shards, 1)), errors_(static_cast<size_t>(shards_)) {
  threads_.reserve(static_cast<size_t>(shards_ - 1));
  for (int shard = 1; shard < shards_; ++shard) {
    threads_.emplace_back([this, shard] { WorkerLoop(shard); });
  }
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  phase_begin_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void ShardPool::WorkerLoop(int shard) {
  uint64_t seen_phase = 0;
  for (;;) {
    const std::function<void(int)>* fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      phase_begin_.wait(lock,
                        [&] { return shutdown_ || phase_ != seen_phase; });
      if (shutdown_) {
        return;
      }
      seen_phase = phase_;
      fn = phase_fn_;
    }
    std::exception_ptr error;
    try {
      const PhaseScope scope;
      (*fn)(shard);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      errors_[static_cast<size_t>(shard)] = error;
      if (--running_ == 0) {
        phase_done_.notify_one();
      }
    }
  }
}

void ShardPool::RunPhase(const std::function<void(int shard)>& fn) {
  const PhaseScope scope;
  if (shards_ == 1) {
    fn(0);  // serial pool: no threads, no locking.
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_fn_ = &fn;
    running_ = shards_ - 1;
    ++phase_;
  }
  phase_begin_.notify_all();

  std::exception_ptr own_error;
  try {
    fn(0);  // the caller works shard 0.
  } catch (...) {
    own_error = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(mu_);
  phase_done_.wait(lock, [&] { return running_ == 0; });
  phase_fn_ = nullptr;
  errors_[0] = own_error;
  for (std::exception_ptr& error : errors_) {
    if (error != nullptr) {
      std::exception_ptr first = error;
      for (std::exception_ptr& e : errors_) {
        e = nullptr;
      }
      std::rethrow_exception(first);
    }
  }
}

}  // namespace rhythm
