// obs/profiler — in-process CPU sampling profiler. Each thread gets a
// POSIX per-thread CPU-time timer (timer_create on the thread's
// CLOCK_THREAD_CPUTIME_ID clock, SIGEV_THREAD_ID delivery of SIGPROF),
// so samples fire proportionally to CPU actually burned, per thread,
// and idle threads cost nothing. The signal handler captures a stack
// (::backtrace, warmed up at Start so it never allocates in a handler)
// plus the thread's profile-region stack (obs/profile_region.h) into a
// lock-free single-producer/single-consumer per-thread ring; a
// background aggregator thread drains the rings into a stack trie and
// discovers newly spawned threads by rescanning /proc/self/task — no
// registration hooks needed anywhere in the tree.
//
// Exports: collapsed/folded stacks (flamegraph.pl / speedscope ready,
// region tags as leading "[serve.sample]" synthetic frames) and the
// gzipped pprof profile.proto wire format (hand-rolled varint encoder
// and stored-block gzip container — no protobuf or zlib dependency),
// decodable by `go tool pprof` and tools/profile_view.py.
//
// Thread ownership: Start/Stop may be called from any thread but are
// serialized by an internal control mutex; one collection runs at a
// time (Start fails while running() — the /debug/pprof/profile
// endpoint answers 409 then). Export accessors are safe during and
// after a collection. The whole module compiles out
// under CQABENCH_NO_OBS (zero profiler symbols in the archive), and
// Start refuses to run under ASan/TSan, whose signal interception is
// incompatible with unwinding from a SIGPROF handler (kAvailable).
#ifndef CQABENCH_OBS_PROFILER_H_
#define CQABENCH_OBS_PROFILER_H_

#ifndef CQABENCH_NO_OBS

#include <cstdint>
#include <string>

namespace cqa::obs {

struct ProfilerOptions {
  /// Samples per second of *CPU time*, per thread. 99 (not 100) so the
  /// sampling grid never phase-locks with 10ms-periodic work.
  int hz = 99;
  /// Per-thread ring capacity in samples. The aggregator drains every
  /// ~50ms; 1024 slots absorb >10s of a 99 Hz burst per thread.
  size_t ring_slots = 1024;
};

/// Aggregate counters for one collection (and /debug/pprof/threads).
struct ProfilerStats {
  uint64_t samples = 0;          ///< Folded into the trie.
  uint64_t dropped_ring = 0;     ///< Lost to a full per-thread ring.
  uint64_t dropped_untracked = 0;///< Signals on threads not yet in the table.
  uint64_t threads = 0;          ///< Threads sampled this collection.
  uint64_t distinct_stacks = 0;  ///< Leaf nodes in the trie.
};

class Profiler {
 public:
  /// False when the build cannot profile (sanitizer instrumentation
  /// intercepts signals and makes in-handler unwinding unsafe); Start
  /// then fails with an explanatory error, and callers surface
  /// "profiler unavailable" instead of crashing.
  static constexpr bool kAvailable =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
      false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
      false;
#else
      true;
#endif
#else
      true;
#endif

  static Profiler& Instance();

  /// Arms per-thread timers for every live thread and starts the
  /// aggregator. Fails (false + *error) when already running, when
  /// kAvailable is false, or on timer/signal setup errors. Clears any
  /// previously collected profile.
  bool Start(const ProfilerOptions& options, std::string* error);

  /// Disarms all timers, performs a final ring drain, and stops the
  /// aggregator. Collected data remains readable until the next Start.
  void Stop();

  bool running() const;

  /// Collapsed-stack text: one "frame;frame;... count" line per distinct
  /// stack, root first, region tags as leading "[name]" frames.
  std::string FoldedText() const;

  /// pprof profile.proto bytes, uncompressed (tests decode this).
  std::string PprofProfile() const;

  /// The same, wrapped in a gzip container (what /debug/pprof/profile
  /// serves; `go tool pprof` and tools/profile_view.py accept it).
  std::string PprofGzipped() const;

  /// Human-readable per-thread table for /debug/pprof/threads: tid,
  /// name (/proc comm), cumulative CPU seconds, samples, drops.
  std::string ThreadsText() const;

  ProfilerStats stats() const;

 private:
  Profiler() = default;
};

}  // namespace cqa::obs

#endif  // CQABENCH_NO_OBS

#endif  // CQABENCH_OBS_PROFILER_H_
