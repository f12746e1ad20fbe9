#ifndef SCHOLARRANK_UTIL_PARALLEL_FOR_H_
#define SCHOLARRANK_UTIL_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

#include "util/thread_pool.h"

namespace scholar {

/// Worker count a `threads` knob resolves to: values >= 1 are taken
/// verbatim; 0 (the "auto" default of every ranking option struct) means
/// std::thread::hardware_concurrency(), with a floor of 1; negative values
/// mean serial (1).
size_t ResolveThreads(int threads);

/// Number of grain-sized chunks covering [0, n). A pure function of
/// (n, grain) — chunk geometry never depends on the thread count, which is
/// what makes chunk-indexed reductions bit-identical at any parallelism
/// level (combine per-chunk partials in chunk-index order and the grouping
/// of floating-point additions is fixed).
size_t ChunkCount(size_t n, size_t grain);

/// Runs fn(chunk, begin, end) for every grain-sized chunk of [0, n).
///
/// Chunks are claimed dynamically by `pool`'s workers plus the calling
/// thread, so total parallelism is pool->num_threads() + 1. With a null
/// pool or a single chunk the loop degrades to a serial in-order sweep over
/// the same chunk geometry. The call returns only after every claimed chunk
/// has finished; the first exception thrown by fn is rethrown on the
/// calling thread, and chunks not yet started when it was thrown are
/// skipped. Never submits to a pool another ParallelFor is blocked on —
/// callers always make progress themselves, so nesting cannot deadlock.
void ParallelForChunks(
    ThreadPool* pool, size_t n, size_t grain,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& fn);

/// Chunk-index-free convenience wrapper: fn(begin, end). Use
/// ParallelForChunks directly when the loop feeds an ordered reduction.
void ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                 const std::function<void(size_t begin, size_t end)>& fn);

}  // namespace scholar

#endif  // SCHOLARRANK_UTIL_PARALLEL_FOR_H_
