#include "util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace scholar {

size_t ResolveThreads(int threads) {
  if (threads >= 1) return static_cast<size_t>(threads);
  if (threads < 0) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t ChunkCount(size_t n, size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return (n + grain - 1) / grain;
}

namespace {

/// State shared between the caller and its helper tasks. Held by
/// shared_ptr: a helper that wakes up after every chunk is already claimed
/// touches only this block (never the caller's stack), so the caller may
/// return while such stragglers are still winding down.
struct ParallelForState {
  explicit ParallelForState(size_t chunks) : num_chunks(chunks) {}

  const size_t num_chunks;
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> done_chunks{0};
  std::atomic<bool> failed{false};
  Mutex mu;
  CondVar all_done;
  std::exception_ptr error GUARDED_BY(mu);  // first exception wins

  bool all_chunks_done() const {
    return done_chunks.load(std::memory_order_acquire) == num_chunks;  // NOLINT(atomic-confinement): acquire pairs with the acq_rel fetch_add below; the caller re-checks under mu before sleeping
  }
};

}  // namespace

void ParallelForChunks(
    ThreadPool* pool, size_t n, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (grain == 0) grain = 1;
  const size_t chunks = ChunkCount(n, grain);
  if (chunks == 0) return;
  const size_t helpers =
      pool == nullptr ? 0 : std::min(pool->num_threads(), chunks - 1);
  if (helpers == 0) {
    for (size_t c = 0; c < chunks; ++c) {
      fn(c, c * grain, std::min(n, (c + 1) * grain));
    }
    return;
  }

  auto state = std::make_shared<ParallelForState>(chunks);
  // Claims chunks until none remain. After a failure the loop keeps
  // claiming (so the completion count still reaches num_chunks) but stops
  // executing fn. `fn` is captured by reference: safe, because the caller
  // waits until done_chunks == num_chunks and no chunk can be claimed
  // afterwards.
  auto work = [state, n, grain, &fn] {
    for (;;) {
      const size_t c =
          state->next_chunk.fetch_add(1, std::memory_order_relaxed);  // NOLINT(atomic-confinement): chunk claim is a pure ticket counter; chunk data is ordered by done_chunks, not by the claim
      if (c >= state->num_chunks) return;
      if (!state->failed.load(std::memory_order_acquire)) {  // NOLINT(atomic-confinement): acquire pairs with the release store after a failure, so fn never runs on post-failure state
        try {
          fn(c, c * grain, std::min(n, (c + 1) * grain));
        } catch (...) {
          {
            MutexLock lock(state->mu);
            if (state->error == nullptr) {
              state->error = std::current_exception();
            }
          }
          state->failed.store(true, std::memory_order_release);  // NOLINT(atomic-confinement): release publishes the stored exception before any claimer skips work on seeing failed
        }
      }
      const size_t done =
          state->done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1;  // NOLINT(atomic-confinement): acq_rel makes each chunk's writes visible to whoever observes the final count (the blocked caller)
      if (done == state->num_chunks) {
        // Taking mu orders the notify after the caller's predicate check,
        // so the completion wakeup cannot be lost.
        MutexLock lock(state->mu);
        state->all_done.NotifyAll();
      }
    }
  };

  for (size_t i = 0; i < helpers; ++i) {
    // A refused Submit (pool shutting down) just means fewer helpers; the
    // calling thread drains whatever is left.
    pool->Submit(work);  // NOLINT(dangling-capture): blocking handoff; the caller waits below until done_chunks == num_chunks, so &fn outlives every chunk
  }
  work();
  MutexLock lock(state->mu);
  while (!state->all_chunks_done()) state->all_done.Wait(state->mu);
  if (state->error != nullptr) std::rethrow_exception(state->error);
}

void ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                 const std::function<void(size_t begin, size_t end)>& fn) {
  ParallelForChunks(pool, n, grain,
                    [&fn](size_t, size_t begin, size_t end) {
                      fn(begin, end);
                    });
}

}  // namespace scholar
