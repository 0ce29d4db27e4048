// obs/profiler implementation. Layout of the machinery:
//
//   SIGPROF handler ──writes──▶ per-thread SPSC ring (lock-free)
//        ▲ per-thread CPU timer (timer_create, SIGEV_THREAD_ID)
//   aggregator thread ──drains rings every ~50ms──▶ stack trie
//        └─ rescans /proc/self/task to discover/retire threads
//   exports (folded text, pprof proto + gzip) walk the trie.
//
// Locking (see the architecture.md lock table):
//   control_mu_  Start/Stop serialization — the only non-leaf
//                lock here: Stop holds it while taking the leaves below.
//   threads_mu_  thread table + states + timers (writers only; the
//                signal handler reads the table lock-free)
//   agg_mu_      trie, region interning, symbol cache, stats
//   wake_mu_     aggregator parking (CondVar timeout ticks)
// threads_mu_, agg_mu_ and wake_mu_ are never held together.
#ifndef CQABENCH_NO_OBS

#include "obs/profiler.h"

#include <cxxabi.h>
#include <dirent.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/profile_region.h"

#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace cqa::obs {

namespace {

constexpr int kMaxStackDepth = 64;
constexpr int kMaxSampleRegions = ProfileRegionStack::kMaxDepth;
constexpr size_t kThreadTableSize = 1024;  // Power of two, open-addressed.
constexpr uint64_t kRegionKeyBit = 1ull << 63;  // Trie key tag: region frame.

// ---------------------------------------------------------------------------
// Per-thread sampling state. The signal handler is the only producer of
// a ring; the aggregator is the only consumer. `head`/`tail` are free-
// running counters; slot = counter % ring size.
// ---------------------------------------------------------------------------

struct SampleSlot {
  int32_t depth = 0;
  int32_t region_depth = 0;
  /// The interrupted instruction pointer from the signal ucontext —
  /// the ground truth for where handler frames end in `pcs` (libc's
  /// trampoline often has no dynamic symbol to match by name).
  void* signal_pc = nullptr;
  const char* regions[kMaxSampleRegions];
  void* pcs[kMaxStackDepth];
};

void* InterruptedPc(void* ucontext) {
  if (ucontext == nullptr) return nullptr;
  auto* uc = static_cast<ucontext_t*>(ucontext);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

struct ThreadState {
  pid_t tid = 0;
  timer_t timer{};
  bool timer_armed = false;
  bool dead = false;           // Thread exited; ring fully drained.
  std::string name;            // /proc comm, captured at discovery.
  clockid_t cpu_clock = 0;
  double cpu_seconds_at_death = 0.0;
  std::vector<SampleSlot> slots;
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> tail{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> captured{0};
};

// Lock-free tid -> ThreadState* table the handler probes. Insert-only
// while a collection runs (writers hold threads_mu_); zeroed between
// collections when no handler can fire.
std::atomic<ThreadState*> g_thread_table[kThreadTableSize];
std::atomic<bool> g_collecting{false};
std::atomic<uint64_t> g_untracked_signals{0};

size_t TidSlot(pid_t tid) {
  return (static_cast<uint64_t>(tid) * 0x9E3779B97F4A7C15ull) >> 32 &
         (kThreadTableSize - 1);
}

ThreadState* LookupThread(pid_t tid) {
  size_t i = TidSlot(tid);
  for (size_t probes = 0; probes < kThreadTableSize; ++probes) {
    ThreadState* st = g_thread_table[i].load(std::memory_order_acquire);
    if (st == nullptr) return nullptr;
    if (st->tid == tid) return st;
    i = (i + 1) & (kThreadTableSize - 1);
  }
  return nullptr;
}

// Linux encodes a thread's CPU clock as (~tid << 3) | 6 — the same id
// pthread_getcpuclockid derives, usable from any thread given the tid.
clockid_t ThreadCpuClock(pid_t tid) {
  return static_cast<clockid_t>((~static_cast<unsigned int>(tid)) << 3) | 6;
}

// The SIGPROF handler. Async-signal-safe by construction: one syscall
// (gettid), a lock-free table probe, ::backtrace into preallocated ring
// memory (libgcc warmed up at Start), relaxed/release atomics. errno is
// preserved because backtrace and syscall may clobber it.
void SampleHandler(int /*signo*/, siginfo_t* /*info*/, void* ucontext) {
  const int saved_errno = errno;
  if (g_collecting.load(std::memory_order_relaxed)) {
    const pid_t tid = static_cast<pid_t>(::syscall(SYS_gettid));
    ThreadState* st = LookupThread(tid);
    if (st == nullptr) {
      g_untracked_signals.fetch_add(1, std::memory_order_relaxed);
    } else {
      const uint64_t head = st->head.load(std::memory_order_relaxed);
      const uint64_t tail = st->tail.load(std::memory_order_acquire);
      if (head - tail >= st->slots.size()) {
        st->dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        SampleSlot& slot = st->slots[head % st->slots.size()];
        slot.depth = ::backtrace(slot.pcs, kMaxStackDepth);
        slot.signal_pc = InterruptedPc(ucontext);
        const ProfileRegionStack& regions = g_profile_region_stack;
        int depth = regions.depth.load(std::memory_order_relaxed);
        if (depth > kMaxSampleRegions) depth = kMaxSampleRegions;
        if (depth < 0) depth = 0;
        slot.region_depth = depth;
        for (int i = 0; i < depth; ++i) {
          slot.regions[i] = regions.names[i].load(std::memory_order_relaxed);
        }
        st->head.store(head + 1, std::memory_order_release);
        st->captured.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  errno = saved_errno;
}

// ---------------------------------------------------------------------------
// Symbolization (aggregator/export context only, never in a handler).
// ---------------------------------------------------------------------------

struct SymbolInfo {
  std::string name;         // Demangled, or "0x..." when unresolved.
  std::string system_name;  // Mangled, empty when unresolved.
  std::string module;       // dli_fname, empty when unresolved.
  bool signal_trampoline = false;
};

SymbolInfo Symbolize(uintptr_t pc) {
  SymbolInfo info;
  Dl_info dli;
  if (::dladdr(reinterpret_cast<void*>(pc), &dli) != 0 &&
      dli.dli_sname != nullptr) {
    info.system_name = dli.dli_sname;
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(dli.dli_sname, nullptr, nullptr, &status);
    info.name = (status == 0 && demangled != nullptr) ? demangled
                                                      : info.system_name;
    std::free(demangled);
    if (dli.dli_fname != nullptr) info.module = dli.dli_fname;
    info.signal_trampoline =
        info.system_name.find("restore_rt") != std::string::npos ||
        info.system_name.find("sigreturn") != std::string::npos;
  } else {
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof(buf), "0x%" PRIxPTR, pc);
    info.name = buf;
  }
  return info;
}

// ---------------------------------------------------------------------------
// pprof profile.proto encoding: hand-rolled protobuf wire format.
// Field numbers follow github.com/google/pprof/proto/profile.proto.
// ---------------------------------------------------------------------------

void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void AppendTag(std::string* out, int field, int wire_type) {
  AppendVarint(out, static_cast<uint64_t>(field) << 3 | wire_type);
}

void AppendVarintField(std::string* out, int field, uint64_t v) {
  if (v == 0) return;  // proto3 default.
  AppendTag(out, field, 0);
  AppendVarint(out, v);
}

void AppendBytesField(std::string* out, int field, const std::string& bytes) {
  AppendTag(out, field, 2);
  AppendVarint(out, bytes.size());
  out->append(bytes);
}

void AppendPackedField(std::string* out, int field,
                       const std::vector<uint64_t>& values) {
  std::string packed;
  for (uint64_t v : values) AppendVarint(&packed, v);
  AppendBytesField(out, field, packed);
}

/// Interning string table (string_table[0] must be "").
class StringTable {
 public:
  StringTable() { Id(""); }
  uint64_t Id(const std::string& s) {
    auto [it, inserted] = ids_.try_emplace(s, strings_.size());
    if (inserted) strings_.push_back(s);
    return it->second;
  }
  const std::vector<std::string>& strings() const { return strings_; }

 private:
  std::unordered_map<std::string, uint64_t> ids_;
  std::vector<std::string> strings_;
};

// ---------------------------------------------------------------------------
// gzip container with stored (uncompressed) deflate blocks — a fully
// valid gzip stream without a zlib dependency. Readers gunzip it like
// any other; it just does not shrink (pprof payloads are small).
// ---------------------------------------------------------------------------

uint32_t Crc32(const std::string& data) {
  static uint32_t table[256];
  static bool init = false;
  if (!init) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    init = true;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendLe32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

std::string GzipStored(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + raw.size() / 65535 * 5 + 32);
  const char header[] = {'\x1f', '\x8b', '\x08', '\x00', '\x00',
                         '\x00', '\x00', '\x00', '\x00', '\x03'};
  out.append(header, sizeof(header));
  size_t off = 0;
  do {
    const size_t len = std::min<size_t>(raw.size() - off, 65535);
    const bool last = off + len == raw.size();
    out.push_back(last ? '\x01' : '\x00');  // BFINAL | BTYPE=00 (stored).
    out.push_back(static_cast<char>(len & 0xFF));
    out.push_back(static_cast<char>(len >> 8));
    out.push_back(static_cast<char>(~len & 0xFF));
    out.push_back(static_cast<char>((~len >> 8) & 0xFF));
    out.append(raw, off, len);
    off += len;
  } while (off < raw.size());
  AppendLe32(&out, Crc32(raw));
  AppendLe32(&out, static_cast<uint32_t>(raw.size()));
  return out;
}

// ---------------------------------------------------------------------------
// The stack trie and the rest of the profiler state.
// ---------------------------------------------------------------------------

struct TrieNode {
  uint64_t key = 0;     // pc, or kRegionKeyBit | region index.
  int32_t parent = -1;  // -1 = root.
  uint64_t count = 0;   // Samples whose innermost frame is this node.
};

struct EdgeKey {
  int32_t parent;
  uint64_t key;
  bool operator==(const EdgeKey& o) const {
    return parent == o.parent && key == o.key;
  }
};

struct EdgeKeyHash {
  size_t operator()(const EdgeKey& e) const {
    uint64_t h = static_cast<uint64_t>(e.parent) * 0x9E3779B97F4A7C15ull;
    h ^= e.key + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

struct MainMapping {
  uint64_t start = 0;
  uint64_t limit = 0;
  uint64_t file_offset = 0;
  std::string filename;
};

class ProfilerImpl {
 public:
  static ProfilerImpl& Get() {
    static ProfilerImpl* impl = new ProfilerImpl;  // Leaked: threads may
    return *impl;  // outlive static destruction; Stop() joins ours.
  }

  bool Start(const ProfilerOptions& options, std::string* error)
      CQA_EXCLUDES(control_mu_);
  void Stop() CQA_EXCLUDES(control_mu_);
  bool running() const { return running_.load(std::memory_order_acquire); }

  std::string FoldedText() const CQA_EXCLUDES(agg_mu_);
  std::string PprofProfile() const CQA_EXCLUDES(agg_mu_);
  std::string PprofGzipped() const { return GzipStored(PprofProfile()); }
  std::string ThreadsText() const CQA_EXCLUDES(threads_mu_, agg_mu_);
  ProfilerStats stats() const CQA_EXCLUDES(threads_mu_, agg_mu_);

 private:
  ProfilerImpl() = default;

  void AggregatorLoop();
  void ScanTasks() CQA_EXCLUDES(threads_mu_);
  void TrackThread(pid_t tid) CQA_REQUIRES(threads_mu_);
  void RetireDeadThreads() CQA_EXCLUDES(threads_mu_);
  void DrainRings() CQA_EXCLUDES(threads_mu_, agg_mu_);
  void FoldSample(const SampleSlot& slot) CQA_REQUIRES(agg_mu_);
  int32_t Child(int32_t parent, uint64_t key) CQA_REQUIRES(agg_mu_);
  uint32_t InternRegion(const char* name) CQA_REQUIRES(agg_mu_);
  const SymbolInfo& SymbolFor(uint64_t key) const CQA_REQUIRES(agg_mu_);
  std::string KeyName(uint64_t key) const CQA_REQUIRES(agg_mu_);
  // Leading handler/trampoline frames to drop from a captured stack.
  int TrimDepth(const SampleSlot& slot) CQA_REQUIRES(agg_mu_);

  // --- Control (Start/Stop serialization, one collection at a time).
  mutable Mutex control_mu_;
  std::atomic<bool> running_{false};

  // --- Thread table (writers); the signal handler reads lock-free.
  mutable Mutex threads_mu_;
  std::vector<std::unique_ptr<ThreadState>> states_
      CQA_GUARDED_BY(threads_mu_);
  size_t table_used_ CQA_GUARDED_BY(threads_mu_) = 0;
  int hz_ CQA_GUARDED_BY(threads_mu_) = 99;
  size_t ring_slots_ CQA_GUARDED_BY(threads_mu_) = 1024;

  // --- Aggregation output.
  mutable Mutex agg_mu_;
  std::vector<TrieNode> nodes_ CQA_GUARDED_BY(agg_mu_);
  std::unordered_map<EdgeKey, int32_t, EdgeKeyHash> edges_
      CQA_GUARDED_BY(agg_mu_);
  std::vector<std::string> region_names_ CQA_GUARDED_BY(agg_mu_);
  std::unordered_map<const char*, uint32_t> region_ids_
      CQA_GUARDED_BY(agg_mu_);
  mutable std::unordered_map<uint64_t, SymbolInfo> symbols_
      CQA_GUARDED_BY(agg_mu_);
  uint64_t total_samples_ CQA_GUARDED_BY(agg_mu_) = 0;
  uint64_t period_nanos_ CQA_GUARDED_BY(agg_mu_) = 0;
  int64_t start_time_nanos_ CQA_GUARDED_BY(agg_mu_) = 0;
  int64_t duration_nanos_ CQA_GUARDED_BY(agg_mu_) = 0;
  int64_t start_monotonic_nanos_ CQA_GUARDED_BY(agg_mu_) = 0;
  MainMapping mapping_ CQA_GUARDED_BY(agg_mu_);

  // --- Aggregator thread parking.
  mutable Mutex wake_mu_;
  CondVar wake_cv_;
  bool stop_aggregator_ CQA_GUARDED_BY(wake_mu_) = false;
  std::thread aggregator_;

  struct sigaction old_sigaction_ {};
};

int64_t NowNanos(clockid_t clock) {
  struct timespec ts;
  ::clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void ReadMainMapping(MainMapping* out) {
  char exe[4096];
  const ssize_t exe_len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (exe_len <= 0) return;
  exe[exe_len] = '\0';
  std::FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) return;
  char line[4608];
  while (std::fgets(line, sizeof(line), maps) != nullptr) {
    uint64_t start = 0;
    uint64_t limit = 0;
    uint64_t offset = 0;
    char perms[8] = {};
    char path[4096] = {};
    const int n = std::sscanf(line, "%" SCNx64 "-%" SCNx64 " %7s %" SCNx64
                              " %*s %*s %4095s",
                              &start, &limit, perms, &offset, path);
    if (n == 5 && std::strcmp(perms, "r-xp") == 0 &&
        std::strcmp(path, exe) == 0) {
      out->start = start;
      out->limit = limit;
      out->file_offset = offset;
      out->filename = path;
      break;
    }
  }
  std::fclose(maps);
}

std::string ReadComm(pid_t tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/comm",
                static_cast<int>(tid));
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return "?";
  char buf[64] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::string comm(buf, n);
  while (!comm.empty() && (comm.back() == '\n' || comm.back() == '\0')) {
    comm.pop_back();
  }
  return comm.empty() ? "?" : comm;
}

bool ProfilerImpl::Start(const ProfilerOptions& options, std::string* error) {
  if (!Profiler::kAvailable) {
    *error =
        "sampling profiler unavailable: sanitizer builds intercept "
        "signals and make in-handler unwinding unsafe";
    return false;
  }
  if (options.hz <= 0 || options.hz > 1000) {
    *error = "profiler hz must be in (0, 1000]";
    return false;
  }
  MutexLock control(control_mu_);
  if (running_.load(std::memory_order_acquire)) {
    *error = "profiler already running";
    return false;
  }

  // Reset all collection state. No timers are armed and g_collecting is
  // false, so no handler can be touching the table.
  {
    MutexLock lock(threads_mu_);
    for (auto& entry : g_thread_table) {
      entry.store(nullptr, std::memory_order_relaxed);
    }
    states_.clear();
    table_used_ = 0;
    hz_ = options.hz;
    ring_slots_ = options.ring_slots < 64 ? 64 : options.ring_slots;
  }
  {
    MutexLock lock(agg_mu_);
    nodes_.clear();
    edges_.clear();
    region_names_.clear();
    region_ids_.clear();
    symbols_.clear();
    total_samples_ = 0;
    period_nanos_ = 1000000000ull / static_cast<uint64_t>(options.hz);
    start_time_nanos_ = NowNanos(CLOCK_REALTIME);
    start_monotonic_nanos_ = NowNanos(CLOCK_MONOTONIC);
    duration_nanos_ = 0;
    ReadMainMapping(&mapping_);
  }
  g_untracked_signals.store(0, std::memory_order_relaxed);

  // Warm up the unwinder: glibc's backtrace lazily loads libgcc (with
  // malloc) on first call — do that here, never in a handler.
  void* warmup[4];
  ::backtrace(warmup, 4);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &SampleHandler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  ::sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGPROF, &sa, &old_sigaction_) != 0) {
    *error = std::string("sigaction(SIGPROF): ") + std::strerror(errno);
    return false;
  }

  g_collecting.store(true, std::memory_order_release);
  ScanTasks();  // Arms a timer per live thread.
  {
    MutexLock lock(wake_mu_);
    stop_aggregator_ = false;
  }
  aggregator_ = std::thread([this] { AggregatorLoop(); });
  running_.store(true, std::memory_order_release);
  CQA_OBS_COUNT("obs.profile_collections");
  Registry::Instance().GetGauge("obs.profile_running")->Set(1);
  return true;
}

void ProfilerImpl::Stop() {
  MutexLock control(control_mu_);
  if (!running_.load(std::memory_order_acquire)) return;

  // Stop producing: gate the handler first, then disarm every timer (a
  // queued signal may still deliver afterwards; the gate makes it a
  // no-op). Then stop the aggregator and run one final drain.
  g_collecting.store(false, std::memory_order_release);
  {
    MutexLock lock(threads_mu_);
    for (auto& state : states_) {
      if (state->timer_armed) {
        ::timer_delete(state->timer);
        state->timer_armed = false;
      }
    }
  }
  {
    MutexLock lock(wake_mu_);
    stop_aggregator_ = true;
  }
  wake_cv_.NotifyAll();
  if (aggregator_.joinable()) aggregator_.join();
  DrainRings();
  ::sigaction(SIGPROF, &old_sigaction_, nullptr);
  {
    MutexLock lock(agg_mu_);
    duration_nanos_ = NowNanos(CLOCK_MONOTONIC) - start_monotonic_nanos_;
  }
  uint64_t dropped = g_untracked_signals.load(std::memory_order_relaxed);
  {
    // Free the ring memory now; the states stay for ThreadsText.
    MutexLock lock(threads_mu_);
    for (auto& state : states_) {
      if (!state->dead) {
        state->cpu_seconds_at_death =
            static_cast<double>(NowNanos(state->cpu_clock)) / 1e9;
      }
      dropped += state->dropped.load(std::memory_order_relaxed);
      state->slots.clear();
      state->slots.shrink_to_fit();
    }
  }
  if (dropped > 0) {
    CQA_OBS_COUNT_N("obs.profile_dropped", dropped);
  }
  Registry::Instance().GetGauge("obs.profile_running")->Set(0);
  running_.store(false, std::memory_order_release);
}

void ProfilerImpl::AggregatorLoop() {
  int tick = 0;
  for (;;) {
    {
      MutexLock lock(wake_mu_);
      if (!stop_aggregator_) wake_cv_.WaitForSeconds(wake_mu_, 0.05);
      if (stop_aggregator_) return;  // Final drain happens in Stop().
    }
    DrainRings();
    if (++tick % 4 == 0) {  // ~200ms: discover new / retire dead threads.
      ScanTasks();
      RetireDeadThreads();
    }
  }
}

void ProfilerImpl::ScanTasks() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return;
  MutexLock lock(threads_mu_);
  struct dirent* entry;
  while ((entry = ::readdir(dir)) != nullptr) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid <= 0) continue;
    if (LookupThread(tid) != nullptr) continue;
    TrackThread(tid);
  }
  ::closedir(dir);
  Registry::Instance()
      .GetGauge("obs.profile_threads")
      ->Set(static_cast<int64_t>(states_.size()));
}

void ProfilerImpl::TrackThread(pid_t tid) {
  if (table_used_ >= kThreadTableSize / 2) return;  // Keep probes short.
  auto state = std::make_unique<ThreadState>();
  state->tid = tid;
  state->name = ReadComm(tid);
  state->cpu_clock = ThreadCpuClock(tid);
  state->slots.resize(ring_slots_);

  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = tid;
  if (::timer_create(state->cpu_clock, &sev, &state->timer) != 0) {
    return;  // Thread raced to exit between readdir and here.
  }
  const int64_t interval_ns =
      1000000000 / static_cast<int64_t>(hz_ > 0 ? hz_ : 99);
  struct itimerspec its;
  its.it_interval.tv_sec = interval_ns / 1000000000;
  its.it_interval.tv_nsec = interval_ns % 1000000000;
  its.it_value = its.it_interval;
  if (::timer_settime(state->timer, 0, &its, nullptr) != 0) {
    ::timer_delete(state->timer);
    return;
  }
  state->timer_armed = true;

  // Publish to the handler-visible table: fields first, pointer last.
  ThreadState* raw = state.get();
  size_t i = TidSlot(tid);
  while (g_thread_table[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & (kThreadTableSize - 1);
  }
  states_.push_back(std::move(state));
  ++table_used_;
  g_thread_table[i].store(raw, std::memory_order_release);
}

void ProfilerImpl::RetireDeadThreads() {
  MutexLock lock(threads_mu_);
  for (auto& state : states_) {
    if (state->dead || !state->timer_armed) continue;
    char path[64];
    std::snprintf(path, sizeof(path), "/proc/self/task/%d",
                  static_cast<int>(state->tid));
    struct stat st;
    if (::stat(path, &st) == 0) continue;  // Still alive.
    // The thread is gone: no more signals can touch its ring, so the
    // next DrainRings pass empties it; just disarm and mark.
    ::timer_delete(state->timer);
    state->timer_armed = false;
    state->dead = true;
  }
}

void ProfilerImpl::DrainRings() {
  // Snapshot the state pointers under threads_mu_, then fold under
  // agg_mu_ with threads_mu_ released — the two locks never nest.
  std::vector<ThreadState*> snapshot;
  {
    MutexLock lock(threads_mu_);
    snapshot.reserve(states_.size());
    for (auto& state : states_) snapshot.push_back(state.get());
  }
  uint64_t folded = 0;
  {
    MutexLock lock(agg_mu_);
    for (ThreadState* state : snapshot) {
      const uint64_t head = state->head.load(std::memory_order_acquire);
      uint64_t tail = state->tail.load(std::memory_order_relaxed);
      while (tail < head) {
        FoldSample(state->slots[tail % state->slots.size()]);
        ++tail;
        ++folded;
      }
      state->tail.store(tail, std::memory_order_release);
    }
    total_samples_ += folded;
  }
  if (folded > 0) {
    CQA_OBS_COUNT_N("obs.profile_samples", folded);
  }
}

int32_t ProfilerImpl::Child(int32_t parent, uint64_t key) {
  const EdgeKey edge{parent, key};
  auto [it, inserted] =
      edges_.try_emplace(edge, static_cast<int32_t>(nodes_.size()));
  if (inserted) {
    TrieNode node;
    node.key = key;
    node.parent = parent;
    nodes_.push_back(node);
  }
  return it->second;
}

uint32_t ProfilerImpl::InternRegion(const char* name) {
  auto [it, inserted] =
      region_ids_.try_emplace(name, static_cast<uint32_t>(0));
  if (inserted) {
    // Distinct literal pointers may share content; dedupe by value.
    const std::string value(name);
    for (uint32_t i = 0; i < region_names_.size(); ++i) {
      if (region_names_[i] == value) {
        it->second = i;
        return i;
      }
    }
    it->second = static_cast<uint32_t>(region_names_.size());
    region_names_.push_back(value);
  }
  return it->second;
}

const SymbolInfo& ProfilerImpl::SymbolFor(uint64_t key) const {
  auto [it, inserted] = symbols_.try_emplace(key);
  if (inserted) it->second = Symbolize(static_cast<uintptr_t>(key));
  return it->second;
}

int ProfilerImpl::TrimDepth(const SampleSlot& slot) {
  // backtrace() from inside the handler sees [handler, trampoline,
  // interrupted frame, ...]. The ucontext's instruction pointer is the
  // exact pc of the interrupted frame, so matching it in the first few
  // frames locates the cut precisely even when the trampoline has no
  // dynamic symbol (stripped libc).
  const int limit = slot.depth < 6 ? slot.depth : 6;
  if (slot.signal_pc != nullptr) {
    for (int i = 1; i < limit; ++i) {
      if (slot.pcs[i] == slot.signal_pc) return i;
    }
  }
  // Fallbacks: cut through a symbolized trampoline, else drop just the
  // handler frame.
  for (int i = 0; i < limit; ++i) {
    if (SymbolFor(reinterpret_cast<uint64_t>(slot.pcs[i])).signal_trampoline) {
      return i + 1;
    }
  }
  return slot.depth > 1 ? 1 : 0;
}

void ProfilerImpl::FoldSample(const SampleSlot& slot) {
  int32_t node = -1;
  for (int i = 0; i < slot.region_depth; ++i) {  // Outermost region first.
    if (slot.regions[i] == nullptr) continue;
    node = Child(node, kRegionKeyBit | InternRegion(slot.regions[i]));
  }
  const int start = TrimDepth(slot);
  for (int i = slot.depth - 1; i >= start; --i) {  // Root frame first.
    uint64_t pc = reinterpret_cast<uint64_t>(slot.pcs[i]);
    // Non-leaf frames hold return addresses, one past the call; step
    // back one byte so symbolization lands in the calling function.
    if (i != start && pc != 0) pc -= 1;
    node = Child(node, pc);
  }
  if (node >= 0) nodes_[node].count += 1;
}

std::string ProfilerImpl::KeyName(uint64_t key) const {
  if (key & kRegionKeyBit) {
    const uint64_t idx = key & ~kRegionKeyBit;
    if (idx < region_names_.size()) return "[" + region_names_[idx] + "]";
    return "[region?]";
  }
  return SymbolFor(key).name;
}

std::string ProfilerImpl::FoldedText() const {
  MutexLock lock(agg_mu_);
  std::string out;
  std::vector<std::string> chain;
  for (const TrieNode& leaf : nodes_) {
    if (leaf.count == 0) continue;
    chain.clear();
    for (int32_t n = static_cast<int32_t>(&leaf - nodes_.data()); n >= 0;
         n = nodes_[n].parent) {
      chain.push_back(KeyName(nodes_[n].key));
    }
    for (size_t i = chain.size(); i-- > 0;) {
      out += chain[i];
      out += i == 0 ? ' ' : ';';
    }
    char count[32];
    std::snprintf(count, sizeof(count), "%llu\n",
                  static_cast<unsigned long long>(leaf.count));
    out += count;
  }
  return out;
}

std::string ProfilerImpl::PprofProfile() const {
  MutexLock lock(agg_mu_);
  StringTable strings;
  std::string out;

  // sample_type: [samples/count, cpu/nanoseconds]; period_type matches.
  {
    std::string vt;
    AppendVarintField(&vt, 1, strings.Id("samples"));
    AppendVarintField(&vt, 2, strings.Id("count"));
    AppendBytesField(&out, 1, vt);
    vt.clear();
    AppendVarintField(&vt, 1, strings.Id("cpu"));
    AppendVarintField(&vt, 2, strings.Id("nanoseconds"));
    AppendBytesField(&out, 1, vt);
  }

  // Locations and functions, one per distinct trie key. Function ids are
  // keyed by symbol name (many pcs share one function).
  std::unordered_map<uint64_t, uint64_t> location_ids;
  std::unordered_map<std::string, uint64_t> function_ids;
  std::string functions_out;
  std::string locations_out;
  auto location_id = [&](uint64_t key) -> uint64_t {
    auto it = location_ids.find(key);
    if (it != location_ids.end()) return it->second;
    const uint64_t loc_id = location_ids.size() + 1;
    location_ids.emplace(key, loc_id);

    std::string name;
    std::string system_name;
    std::string filename;
    uint64_t address = 0;
    if (key & kRegionKeyBit) {
      const uint64_t idx = key & ~kRegionKeyBit;
      name = idx < region_names_.size() ? "[" + region_names_[idx] + "]"
                                        : "[region?]";
    } else {
      const SymbolInfo& sym = SymbolFor(key);
      name = sym.name;
      system_name = sym.system_name;
      filename = sym.module;
      address = key;
    }
    auto fit = function_ids.find(name);
    uint64_t fn_id;
    if (fit == function_ids.end()) {
      fn_id = function_ids.size() + 1;
      function_ids.emplace(name, fn_id);
      std::string fn;
      AppendVarintField(&fn, 1, fn_id);
      AppendVarintField(&fn, 2, strings.Id(name));
      AppendVarintField(&fn, 3,
                        strings.Id(system_name.empty() ? name : system_name));
      AppendVarintField(&fn, 4, strings.Id(filename));
      AppendBytesField(&functions_out, 5, fn);
    } else {
      fn_id = fit->second;
    }
    std::string line;
    AppendVarintField(&line, 1, fn_id);
    std::string loc;
    AppendVarintField(&loc, 1, loc_id);
    if (address != 0 && mapping_.start != 0 && address >= mapping_.start &&
        address < mapping_.limit) {
      AppendVarintField(&loc, 2, 1);  // mapping_id.
    }
    AppendVarintField(&loc, 3, address);
    AppendBytesField(&loc, 4, line);
    AppendBytesField(&locations_out, 4, loc);
    return loc_id;
  };

  // Samples: one per counted trie node, locations leaf-first. The
  // innermost region tag also rides along as a "region" label.
  std::string samples_out;
  std::vector<uint64_t> chain_keys;
  for (const TrieNode& leaf : nodes_) {
    if (leaf.count == 0) continue;
    chain_keys.clear();
    for (int32_t n = static_cast<int32_t>(&leaf - nodes_.data()); n >= 0;
         n = nodes_[n].parent) {
      chain_keys.push_back(nodes_[n].key);  // Leaf first.
    }
    std::vector<uint64_t> loc_ids;
    loc_ids.reserve(chain_keys.size());
    const char* region = nullptr;
    for (uint64_t key : chain_keys) {
      if (key & kRegionKeyBit) {
        const uint64_t idx = key & ~kRegionKeyBit;
        if (region == nullptr && idx < region_names_.size()) {
          region = region_names_[idx].c_str();  // Innermost wins.
        }
      }
      loc_ids.push_back(location_id(key));
    }
    std::string sample;
    AppendPackedField(&sample, 1, loc_ids);
    AppendPackedField(
        &sample, 2,
        {leaf.count, leaf.count * period_nanos_});
    if (region != nullptr) {
      std::string label;
      AppendVarintField(&label, 1, strings.Id("region"));
      AppendVarintField(&label, 2, strings.Id(region));
      AppendBytesField(&sample, 3, label);
    }
    AppendBytesField(&samples_out, 2, sample);
  }
  out += samples_out;

  if (mapping_.start != 0) {
    std::string mapping;
    AppendVarintField(&mapping, 1, 1);  // id.
    AppendVarintField(&mapping, 2, mapping_.start);
    AppendVarintField(&mapping, 3, mapping_.limit);
    AppendVarintField(&mapping, 4, mapping_.file_offset);
    AppendVarintField(&mapping, 5, strings.Id(mapping_.filename));
    AppendVarintField(&mapping, 7, 1);  // has_functions.
    AppendBytesField(&out, 3, mapping);
  }
  out += locations_out;
  out += functions_out;

  AppendVarintField(&out, 9, static_cast<uint64_t>(start_time_nanos_));
  AppendVarintField(&out, 10, static_cast<uint64_t>(duration_nanos_));
  {
    std::string vt;
    AppendVarintField(&vt, 1, strings.Id("cpu"));
    AppendVarintField(&vt, 2, strings.Id("nanoseconds"));
    AppendBytesField(&out, 11, vt);
  }
  AppendVarintField(&out, 12, period_nanos_);

  // string_table last: every Id() call above must already have run. An
  // empty first entry is mandatory, so emit even index 0 explicitly.
  std::string table_out;
  for (const std::string& s : strings.strings()) {
    AppendBytesField(&table_out, 6, s);
  }
  return table_out + out;
}

std::string ProfilerImpl::ThreadsText() const {
  std::string out = "tid        cpu_s      samples    dropped    name\n";
  MutexLock lock(threads_mu_);
  for (const auto& state : states_) {
    double cpu_s = state->cpu_seconds_at_death;
    if (!state->dead && running()) {
      cpu_s = static_cast<double>(NowNanos(state->cpu_clock)) / 1e9;
    }
    char line[256];
    std::snprintf(line, sizeof(line), "%-10d %-10.3f %-10llu %-10llu %s%s\n",
                  static_cast<int>(state->tid), cpu_s,
                  static_cast<unsigned long long>(
                      state->captured.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(
                      state->dropped.load(std::memory_order_relaxed)),
                  state->name.c_str(), state->dead ? " (exited)" : "");
    out += line;
  }
  return out;
}

ProfilerStats ProfilerImpl::stats() const {
  ProfilerStats s;
  {
    MutexLock lock(threads_mu_);
    for (const auto& state : states_) {
      s.dropped_ring += state->dropped.load(std::memory_order_relaxed);
      // states_ is cleared on Start, so every entry belongs to the
      // current (or just-finished) collection — count them all, or a
      // finished collection would report zero threads.
      ++s.threads;
    }
  }
  {
    MutexLock lock(agg_mu_);
    s.samples = total_samples_;
    for (const TrieNode& node : nodes_) {
      if (node.count > 0) ++s.distinct_stacks;
    }
  }
  s.dropped_untracked = g_untracked_signals.load(std::memory_order_relaxed);
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public facade.
// ---------------------------------------------------------------------------

Profiler& Profiler::Instance() {
  static Profiler* instance = new Profiler;  // Leaked like the impl.
  return *instance;
}

bool Profiler::Start(const ProfilerOptions& options, std::string* error) {
  return ProfilerImpl::Get().Start(options, error);
}

void Profiler::Stop() { ProfilerImpl::Get().Stop(); }

bool Profiler::running() const { return ProfilerImpl::Get().running(); }

std::string Profiler::FoldedText() const {
  return ProfilerImpl::Get().FoldedText();
}

std::string Profiler::PprofProfile() const {
  return ProfilerImpl::Get().PprofProfile();
}

std::string Profiler::PprofGzipped() const {
  return ProfilerImpl::Get().PprofGzipped();
}

std::string Profiler::ThreadsText() const {
  return ProfilerImpl::Get().ThreadsText();
}

ProfilerStats Profiler::stats() const { return ProfilerImpl::Get().stats(); }

}  // namespace cqa::obs

#endif  // CQABENCH_NO_OBS
