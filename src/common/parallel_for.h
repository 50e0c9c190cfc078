// A parallel loop on bare helper threads that never touch malloc, for the
// memory-bound passes over a whole index or file image: the sorted walk of
// every save and spill run, and the read, checksum and inserts of an index
// load.
#pragma once

#include <cstddef>
#include <functional>

namespace av {

/// Runs fn(i) for every i in [0, count) on the calling thread and up to
/// `max_threads - 1` helper threads, each taking the next unclaimed i, and
/// returns when every call has returned.
///
/// Helpers come from one process-wide budget of hardware_concurrency() - 1
/// (the calling thread works too), so loops that run at once, such as the
/// spill runs of an out-of-core build or a load beside a save, split the
/// machine instead of each assuming all of it. With no helper to spare the
/// calling thread runs every i.
///
/// `fn` must not allocate: anything it writes is sized by the caller. The
/// helpers are bare POSIX threads rather than a ThreadPool's workers or
/// std::threads, so a helper never calls malloc or free. glibc attaches a
/// thread to a malloc arena the first time it does, preferring one a
/// finished thread left behind: in a process that alternates builds and
/// saves, the helpers would then hold the last build's arenas, freed pages
/// and all, and the next build would allocate from fresh ones. On the
/// benchmark (4-vCPU Xeon) a ThreadPool per sorted walk raised the
/// out-of-core peak RSS from 183 to 285 MiB, one process-wide ThreadPool
/// raised `lake_index`'s from 258 to 296 MiB, and std::threads, which free
/// their start state as they exit, still raised the out-of-core median by
/// 12 MiB.
void ParallelFor(size_t max_threads, size_t count,
                 const std::function<void(size_t)>& fn);

}  // namespace av
