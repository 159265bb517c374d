// Deterministic parallel runtime for the compute hot paths.
//
// The contract that makes threading safe inside a simulator: results are
// bit-identical for every thread count. Three rules enforce it —
//
//  1. *Static deterministic chunking.* Work [0, n) is split into chunks
//     whose boundaries are a pure function of n and the grain, never of
//     the thread count. Threads race only over WHICH worker executes a
//     chunk, not over what the chunk computes.
//  2. *Chunk-order combination.* parallel_reduce folds per-chunk partial
//     results on the calling thread in ascending chunk index, so
//     floating-point rounding matches a serial fold over the same chunk
//     partition regardless of execution interleaving.
//  3. *Per-chunk RNG streams.* A chunk that needs randomness derives its
//     own stream from (task seed, chunk index) via chunk_rng() instead of
//     sharing a sequential stream whose consumption order would depend on
//     scheduling.
//
// `--threads 1` (the default on a single-core box) takes the exact serial
// path: no pool is started and bodies run inline on the caller, in index
// order, touching the historical code byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"

namespace bohr {

/// Current global thread count (>= 1). Defaults to the BOHR_THREADS
/// environment variable when set, else std::thread::hardware_concurrency.
std::size_t thread_count();

/// Sets the global thread count. `0` = auto (environment / hardware).
/// `1` disables the pool entirely (exact serial path). Safe to call
/// repeatedly — a running pool is drained, joined, and respawned at the
/// new size. Must not be called from inside a parallel region.
void set_thread_count(std::size_t n);

/// What `set_thread_count(0)` resolves to on this machine.
std::size_t default_thread_count();

/// One contiguous slice of a parallel iteration space.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;    ///< exclusive
  std::size_t index = 0;  ///< chunk index in [0, count)
  std::size_t count = 0;  ///< total chunks for this loop
};

/// Number of chunks n items split into at the given grain. Pure function
/// of (n, grain) — never of the thread count (determinism rule 1).
std::size_t chunk_count(std::size_t n, std::size_t grain = 1);

/// Boundaries of chunk `chunk` (same purity guarantee).
ChunkRange chunk_range(std::size_t n, std::size_t grain, std::size_t chunk);

/// Independent RNG stream for one chunk of a task (determinism rule 3).
inline Rng chunk_rng(std::uint64_t task_seed, std::size_t chunk_index) {
  return Rng(hash_combine(task_seed ^ 0x9AA11E1C0DE5EEDULL, chunk_index));
}

/// Runs body(i) for every i in [0, n). Bodies must write only to
/// per-index (or per-chunk) state; any shared accumulation belongs in
/// parallel_reduce or a serial fold after the loop. When bodies throw,
/// the caller gets the exception of the lowest index that threw — the one
/// the serial loop throws — at every thread count: a chunk stops at its
/// first throwing index, and the lowest chunk's error is kept. Nested
/// calls from inside a parallel region run inline serially.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// Chunk-granular variant: body receives a ChunkRange and loops it
/// itself (use when per-chunk setup — a scratch buffer, a chunk_rng
/// stream — amortizes over the chunk).
void parallel_for_chunks(std::size_t n, std::size_t grain,
                         const std::function<void(const ChunkRange&)>& body);

/// True while the calling thread is executing inside a parallel region
/// (worker or participating caller). Nested parallel calls degrade to
/// inline serial execution.
bool in_parallel_region();

/// Map-reduce with deterministic combination: `map` produces one partial
/// per chunk, `combine(acc, partial)` folds partials into `init` in
/// ascending chunk order on the calling thread (determinism rule 2).
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::size_t n, std::size_t grain, T init, MapFn&& map,
                  CombineFn&& combine) {
  const std::size_t chunks = chunk_count(n, grain);
  std::vector<T> partials(chunks, init);
  parallel_for_chunks(n, grain, [&](const ChunkRange& range) {
    partials[range.index] = map(range);
  });
  T acc = std::move(init);
  for (std::size_t c = 0; c < chunks; ++c) {
    acc = combine(std::move(acc), std::move(partials[c]));
  }
  return acc;
}

}  // namespace bohr
