#ifndef CROPHE_COMMON_PARALLEL_H_
#define CROPHE_COMMON_PARALLEL_H_

/**
 * @file
 * Deterministic host-side parallelism (DESIGN.md §7).
 *
 * A process-wide work-stealing thread pool executes fork-join batches:
 * parallelFor / parallelForRange split an index space into statically
 * chunked, disjoint ranges.
 * Call sites own the determinism contract — every chunk writes only its
 * own slice of the output and reductions happen on the calling thread in
 * index order — so for any thread count (including 1) the results are
 * bit-identical to a serial run. Parallelism changes wall-clock only.
 *
 * The pool size comes from, in priority order: an explicit
 * setGlobalThreads() call (the --threads flag of the benches and
 * examples), the CROPHE_THREADS environment variable, and
 * std::thread::hardware_concurrency(). Nested parallel calls are allowed:
 * a worker forking a sub-batch shares its chunks with the pool and helps
 * drain them, so nesting never deadlocks and never oversubscribes.
 */

#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"

namespace crophe {

/**
 * Work-stealing fork-join pool: N-1 worker threads plus the forking
 * thread cooperate on batches of chunks. Workers pop their own deque
 * LIFO and steal FIFO from victims, so a forking thread's chunks stay
 * hot while idle workers drain the oldest work.
 */
class ThreadPool
{
  public:
    /** @param threads total executors (including the forking thread). */
    explicit ThreadPool(u32 threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total executors (worker threads + the forking thread). */
    u32 threads() const { return threads_; }

    /**
     * Execute fn(c) for every chunk id c in [0, chunks). The calling
     * thread participates; returns once all chunks completed. Exceptions
     * are collected per chunk and the lowest-index one is rethrown on the
     * calling thread (remaining chunks still run, keeping side effects
     * deterministic).
     */
    void run(u32 chunks, const std::function<void(u32)> &fn);

    /** The process-wide pool, created on first use. */
    static ThreadPool &global();

    /**
     * Resize the process-wide pool (0 = hardware concurrency). Must not
     * race with in-flight parallel work; intended for flag parsing and
     * tests.
     */
    static void setGlobalThreads(u32 threads);

    /** Thread count the next global() call will use. */
    static u32 globalThreads();

  private:
    struct Batch;
    struct Worker;
    struct State;

    void workerLoop(u32 index);
    /** Drain chunks of @p batch until none are unclaimed. */
    static void drain(Batch &batch);

    u32 threads_;
    std::unique_ptr<State> state_;
    std::vector<Worker *> workers_;
};

/**
 * fn(i) for every i in [begin, end). Chunk boundaries are a pure
 * function of (begin, end, pool size); which thread runs which chunk is
 * not specified. fn must not write state shared across indices.
 */
void parallelFor(u64 begin, u64 end, const std::function<void(u64)> &fn);

/**
 * fn(b, e) over disjoint ranges covering [begin, end) — the chunked
 * variant for loops whose per-index body is too small to dispatch
 * individually (per-coefficient arithmetic). Same contract as
 * parallelFor.
 */
void parallelForRange(u64 begin, u64 end,
                      const std::function<void(u64, u64)> &fn);

}  // namespace crophe

#endif  // CROPHE_COMMON_PARALLEL_H_
