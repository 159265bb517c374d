// Deterministic parallel runtime for the compute hot paths.
//
// The contract that makes threading safe inside a simulator: results are
// bit-identical for every thread count. Three rules enforce it —
//
//  1. *Static deterministic chunking.* Work [0, n) is split into chunks
//     whose boundaries are a pure function of n and the grain, never of
//     the thread count. Threads race only over WHICH worker executes a
//     chunk, not over what the chunk computes.
//  2. *Order-preserving combination.* Bodies write only per-index (or
//     per-chunk) state; anything order-sensitive is folded afterwards on
//     the calling thread in index order, so floating-point rounding
//     matches the serial loop regardless of execution interleaving.
//  3. *No shared RNG stream.* A loop that draws from one sequential
//     stream is never split; a body that needs randomness seeds its own
//     stream from its index.
//
// `--threads 1` (the default on a single-core box) takes the exact serial
// path: no pool is started and bodies run inline on the caller, in index
// order, touching the historical code byte for byte.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>

namespace bohr {

/// Chunks a loop targets (see chunk_count): enough for dynamic load
/// balance at any plausible pool size, and fixed, so chunk boundaries
/// never depend on the thread count.
inline constexpr std::size_t kTargetChunks = 64;

/// Largest thread count the runtime accepts. No loop splits into more
/// than kTargetChunks chunks, so a worker beyond it could never run.
inline constexpr std::size_t kMaxThreads = kTargetChunks;

/// Current global thread count, in [1, kMaxThreads]. Defaults to the
/// BOHR_THREADS environment variable when it holds a valid count (see
/// parse_thread_count), else std::thread::hardware_concurrency capped at
/// kMaxThreads.
std::size_t thread_count();

/// Sets the global thread count. `0` = auto (environment / hardware).
/// `1` disables the pool entirely (exact serial path). Safe to call
/// repeatedly — a running pool is drained, joined, and respawned at the
/// new size. Must not be called from inside a parallel region. A count
/// above kMaxThreads is a ContractViolation, raised before the pool is
/// touched.
void set_thread_count(std::size_t n);

/// What `set_thread_count(0)` resolves to on this machine.
std::size_t default_thread_count();

/// The thread count `text` spells: a whole decimal number in
/// [1, kMaxThreads], with no sign, space or trailing character.
/// Anything else is nullopt.
std::optional<std::size_t> parse_thread_count(std::string_view text);

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

/// Runs body(i) for every i in [0, n). Bodies must write only to
/// per-index (or per-chunk) state; any shared accumulation belongs in a
/// serial fold after the loop. When bodies throw, the caller gets the
/// exception of the lowest index that threw — the one the serial loop
/// throws — at every thread count: a chunk stops at its first throwing
/// index, and the lowest chunk's error is kept. Nested calls from inside
/// a parallel region run inline serially.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// Chunk-granular variant: body receives a ChunkRange and loops it
/// itself (use when per-chunk setup, such as a scratch buffer, amortizes
/// over the chunk).
void parallel_for_chunks(std::size_t n, std::size_t grain,
                         const std::function<void(const ChunkRange&)>& body);

/// True while the calling thread is executing inside a parallel region
/// (worker or participating caller). Nested parallel calls degrade to
/// inline serial execution.
bool in_parallel_region();

}  // namespace bohr
