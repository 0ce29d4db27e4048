// Tests for the sampling profiler (obs/profiler.h) and the profile
// region stack (obs/profile_region.h). The profiler arms real POSIX
// timers and unwinds from a SIGPROF handler, which sanitizer runtimes
// forbid — those tests condition-skip with the reason spelled out
// (Profiler::kAvailable is false there by design; the HTTP endpoint
// answers 501 the same way).

#include <gtest/gtest.h>

#include "obs/profile_region.h"

#ifndef CQABENCH_NO_OBS

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace cqa::obs {
namespace {

// Exported (extern "C" + -rdynamic via CMAKE_ENABLE_EXPORTS) so dladdr
// can name the frame; the folded output must contain this symbol.
extern "C" __attribute__((noinline)) double cqa_profiler_test_burn(
    double seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  double acc = 0.0;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x & 0xFF);
    }
  }
  return acc;
}

#define SKIP_WITHOUT_PROFILER()                                         \
  do {                                                                  \
    if (!Profiler::kAvailable) {                                        \
      GTEST_SKIP() << "profiler disabled under sanitizers: their "      \
                      "signal interception makes in-handler unwinding " \
                      "unsafe (Profiler::kAvailable == false)";         \
    }                                                                   \
  } while (0)

TEST(ProfileRegionTest, NestingAndOverflow) {
  EXPECT_EQ(CurrentProfileRegion(), nullptr);
  {
    ScopedProfileRegion outer("test.outer");
    EXPECT_STREQ(CurrentProfileRegion(), "test.outer");
    {
      ScopedProfileRegion inner("test.inner");
      EXPECT_STREQ(CurrentProfileRegion(), "test.inner");
    }
    EXPECT_STREQ(CurrentProfileRegion(), "test.outer");
  }
  EXPECT_EQ(CurrentProfileRegion(), nullptr);

  // Past kMaxDepth the stack keeps counting but drops names; unwinding
  // restores the deepest tracked name, never corrupts.
  {
    std::vector<ScopedProfileRegion*> deep;
    for (int i = 0; i < ProfileRegionStack::kMaxDepth; ++i) {
      deep.push_back(new ScopedProfileRegion("test.deep"));
    }
    ScopedProfileRegion overflow("test.overflow");
    EXPECT_STREQ(CurrentProfileRegion(), "test.deep");  // Name dropped.
    while (!deep.empty()) {
      delete deep.back();
      deep.pop_back();
    }
  }
  EXPECT_EQ(CurrentProfileRegion(), nullptr);
}

TEST(ProfilerTest, StartRejectsBadOptions) {
  SKIP_WITHOUT_PROFILER();
  ProfilerOptions options;
  options.hz = 0;
  std::string error;
  EXPECT_FALSE(Profiler::Instance().Start(options, &error));
  EXPECT_NE(error.find("hz"), std::string::npos);
  options.hz = 5000;
  EXPECT_FALSE(Profiler::Instance().Start(options, &error));
}

TEST(ProfilerTest, CollectsAndSymbolizesSamples) {
  SKIP_WITHOUT_PROFILER();
  Profiler& profiler = Profiler::Instance();
  ProfilerOptions options;
  options.hz = 199;  // Dense sampling keeps this test short.
  std::string error;
  ASSERT_TRUE(profiler.Start(options, &error)) << error;
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.Start(options, &error));  // Already running.
  {
    ScopedProfileRegion region("test.burn");
    cqa_profiler_test_burn(0.4);
  }
  profiler.Stop();
  EXPECT_FALSE(profiler.running());

  const ProfilerStats stats = profiler.stats();
  EXPECT_GT(stats.samples, 10u) << "0.4s of busy CPU at 199 Hz";
  EXPECT_GT(stats.distinct_stacks, 0u);
  EXPECT_GE(stats.threads, 1u);

  const std::string folded = profiler.FoldedText();
  EXPECT_NE(folded.find("[test.burn]"), std::string::npos) << folded;
  EXPECT_NE(folded.find("cqa_profiler_test_burn"), std::string::npos)
      << folded;
  // Region tags are synthetic *root* frames: every line mentioning the
  // burn symbol must start with the region.
  EXPECT_LT(folded.find("[test.burn]"), folded.find("cqa_profiler_test_burn"));
}

TEST(ProfilerTest, RestartClearsPreviousCollection) {
  SKIP_WITHOUT_PROFILER();
  Profiler& profiler = Profiler::Instance();
  ProfilerOptions options;
  options.hz = 199;
  std::string error;
  ASSERT_TRUE(profiler.Start(options, &error)) << error;
  {
    ScopedProfileRegion region("test.first_run");
    cqa_profiler_test_burn(0.3);
  }
  profiler.Stop();
  ASSERT_NE(profiler.FoldedText().find("[test.first_run]"),
            std::string::npos);

  ASSERT_TRUE(profiler.Start(options, &error)) << error;
  profiler.Stop();
  EXPECT_EQ(profiler.FoldedText().find("[test.first_run]"),
            std::string::npos)
      << "a new Start must discard the previous trie";
}

TEST(ProfilerTest, PoolWorkersInheritSubmitterRegion) {
  SKIP_WITHOUT_PROFILER();
  ThreadPool pool(2);
  Profiler& profiler = Profiler::Instance();
  ProfilerOptions options;
  options.hz = 199;
  std::string error;
  ASSERT_TRUE(profiler.Start(options, &error)) << error;
  {
    ScopedProfileRegion region("test.pool_job");
    pool.Run(8, [](size_t) { cqa_profiler_test_burn(0.1); });
  }
  profiler.Stop();
  const std::string folded = profiler.FoldedText();
  EXPECT_NE(folded.find("[test.pool_job]"), std::string::npos)
      << "worker samples must carry the submitting caller's region:\n"
      << folded;
}

// --- pprof wire-format checks: a minimal protobuf scanner. -----------------

struct PbCursor {
  const uint8_t* p;
  const uint8_t* end;
  bool ok = true;
};

uint64_t ReadVarint(PbCursor* c) {
  uint64_t v = 0;
  int shift = 0;
  while (c->p < c->end) {
    const uint8_t byte = *c->p++;
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) break;
  }
  c->ok = false;
  return 0;
}

struct DecodedProfile {
  std::vector<std::string> strings;
  uint64_t total_sample_count = 0;
  uint64_t total_cpu_nanos = 0;
  uint64_t num_samples = 0;
  uint64_t num_locations = 0;
  uint64_t num_functions = 0;
  uint64_t period = 0;
};

DecodedProfile DecodeProfile(const std::string& bytes) {
  DecodedProfile out;
  PbCursor c{reinterpret_cast<const uint8_t*>(bytes.data()),
             reinterpret_cast<const uint8_t*>(bytes.data()) + bytes.size()};
  while (c.ok && c.p < c.end) {
    const uint64_t tag = ReadVarint(&c);
    const int field = static_cast<int>(tag >> 3);
    const int wire = static_cast<int>(tag & 7);
    if (wire == 0) {
      const uint64_t v = ReadVarint(&c);
      if (field == 12) out.period = v;
    } else if (wire == 2) {
      const uint64_t len = ReadVarint(&c);
      if (!c.ok || c.p + len > c.end) {
        out.strings.clear();
        return out;
      }
      const uint8_t* sub_end = c.p + len;
      if (field == 6) {
        out.strings.emplace_back(reinterpret_cast<const char*>(c.p), len);
      } else if (field == 2) {
        ++out.num_samples;
        PbCursor s{c.p, sub_end};
        while (s.ok && s.p < s.end) {
          const uint64_t stag = ReadVarint(&s);
          const int sfield = static_cast<int>(stag >> 3);
          const int swire = static_cast<int>(stag & 7);
          if (swire == 2) {
            const uint64_t slen = ReadVarint(&s);
            if (!s.ok || s.p + slen > s.end) break;
            if (sfield == 2) {  // Packed values [count, nanos].
              PbCursor v{s.p, s.p + slen};
              out.total_sample_count += ReadVarint(&v);
              out.total_cpu_nanos += ReadVarint(&v);
            }
            s.p += slen;
          } else if (swire == 0) {
            ReadVarint(&s);
          } else {
            break;
          }
        }
      } else if (field == 4) {
        ++out.num_locations;
      } else if (field == 5) {
        ++out.num_functions;
      }
      c.p = sub_end;
    } else {
      break;  // No other wire types are emitted.
    }
  }
  return out;
}

/// Unpacks the stored-deflate gzip container the profiler emits (header
/// + stored blocks + crc/isize trailer); empty on malformed input.
std::string GunzipStored(const std::string& gz) {
  std::string out;
  if (gz.size() < 18 || static_cast<uint8_t>(gz[0]) != 0x1F ||
      static_cast<uint8_t>(gz[1]) != 0x8B ||
      static_cast<uint8_t>(gz[2]) != 0x08) {
    return out;
  }
  size_t pos = 10;
  for (;;) {
    if (pos >= gz.size()) return std::string();
    const uint8_t block = static_cast<uint8_t>(gz[pos++]);
    if (((block >> 1) & 0x3) != 0) return std::string();  // Stored only.
    if (pos + 4 > gz.size()) return std::string();
    const size_t len = static_cast<uint8_t>(gz[pos]) |
                       (static_cast<uint8_t>(gz[pos + 1]) << 8);
    const size_t nlen = static_cast<uint8_t>(gz[pos + 2]) |
                        (static_cast<uint8_t>(gz[pos + 3]) << 8);
    if ((len ^ nlen) != 0xFFFF) return std::string();
    pos += 4;
    if (pos + len > gz.size()) return std::string();
    out.append(gz, pos, len);
    pos += len;
    if (block & 1) break;
  }
  // Trailer: CRC32 + ISIZE; check the size field round-trips.
  if (pos + 8 != gz.size()) return std::string();
  const uint32_t isize = static_cast<uint8_t>(gz[pos + 4]) |
                         (static_cast<uint8_t>(gz[pos + 5]) << 8) |
                         (static_cast<uint8_t>(gz[pos + 6]) << 16) |
                         (static_cast<uint32_t>(
                              static_cast<uint8_t>(gz[pos + 7]))
                          << 24);
  if (isize != (out.size() & 0xFFFFFFFFull)) return std::string();
  return out;
}

TEST(ProfilerTest, PprofProfileDecodes) {
  SKIP_WITHOUT_PROFILER();
  Profiler& profiler = Profiler::Instance();
  ProfilerOptions options;
  options.hz = 199;
  std::string error;
  ASSERT_TRUE(profiler.Start(options, &error)) << error;
  {
    ScopedProfileRegion region("test.pprof");
    cqa_profiler_test_burn(0.3);
  }
  profiler.Stop();

  const std::string proto = profiler.PprofProfile();
  ASSERT_FALSE(proto.empty());
  const DecodedProfile decoded = DecodeProfile(proto);
  ASSERT_FALSE(decoded.strings.empty());
  EXPECT_EQ(decoded.strings[0], "");  // Mandatory empty first entry.
  auto has_string = [&decoded](const std::string& s) {
    for (const std::string& t : decoded.strings) {
      if (t == s) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_string("samples"));
  EXPECT_TRUE(has_string("cpu"));
  EXPECT_TRUE(has_string("nanoseconds"));
  EXPECT_TRUE(has_string("[test.pprof]"));
  EXPECT_TRUE(has_string("region"));
  EXPECT_TRUE(has_string("cqa_profiler_test_burn"));

  const ProfilerStats stats = profiler.stats();
  EXPECT_EQ(decoded.total_sample_count, stats.samples);
  EXPECT_EQ(decoded.period, 1000000000ull / 199);
  EXPECT_EQ(decoded.total_cpu_nanos, stats.samples * decoded.period);
  EXPECT_GT(decoded.num_samples, 0u);
  EXPECT_GT(decoded.num_locations, 0u);
  EXPECT_GT(decoded.num_functions, 0u);

  // The gzip wrapper must decode back to the identical proto bytes.
  const std::string unzipped = GunzipStored(profiler.PprofGzipped());
  EXPECT_EQ(unzipped, proto);
}

TEST(ProfilerTest, PublishesRegistryMetrics) {
  SKIP_WITHOUT_PROFILER();
  Registry& registry = Registry::Instance();
  const uint64_t collections_before =
      registry.CounterValue("obs.profile_collections");
  const uint64_t samples_before = registry.CounterValue("obs.profile_samples");
  Profiler& profiler = Profiler::Instance();
  ProfilerOptions options;
  options.hz = 199;
  std::string error;
  ASSERT_TRUE(profiler.Start(options, &error)) << error;
  EXPECT_EQ(registry.GaugeValue("obs.profile_running"), 1);
  cqa_profiler_test_burn(0.3);
  profiler.Stop();
  EXPECT_EQ(registry.GaugeValue("obs.profile_running"), 0);
  EXPECT_EQ(registry.CounterValue("obs.profile_collections"),
            collections_before + 1);
  EXPECT_GT(registry.CounterValue("obs.profile_samples"), samples_before);
}

// The <3% acceptance budget is demonstrated with bench binaries in
// EXPERIMENTS.md; a unit test on shared CI hardware needs generous
// headroom to stay deterministic, so this guards against gross
// regressions (a broken handler looping, a lock on the sample path),
// not the fine budget.
TEST(ProfilerTest, OverheadStaysSmallAt99Hz) {
  SKIP_WITHOUT_PROFILER();
#ifndef NDEBUG
  GTEST_SKIP() << "overhead is only meaningful in optimized builds";
#else
  const auto measure = [] {
    const auto start = std::chrono::steady_clock::now();
    cqa_profiler_test_burn(0.25);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  measure();  // Warm-up.
  const double baseline = std::min(measure(), measure());
  Profiler& profiler = Profiler::Instance();
  ProfilerOptions options;
  options.hz = 99;
  std::string error;
  ASSERT_TRUE(profiler.Start(options, &error)) << error;
  const double profiled = std::min(measure(), measure());
  profiler.Stop();
  EXPECT_LT(profiled, baseline * 1.5)
      << "99 Hz sampling should be far below 50% overhead (budget is "
         "<3%; the slack absorbs CI noise)";
#endif
}

}  // namespace
}  // namespace cqa::obs

#else  // CQABENCH_NO_OBS

namespace cqa::obs {
namespace {

// Under CQABENCH_NO_OBS the profiler has no symbols at all; only the
// header-only region stubs remain, and they must be inert.
TEST(ProfileRegionTest, NoObsStubIsInert) {
  EXPECT_EQ(CurrentProfileRegion(), nullptr);
  ScopedProfileRegion region("test.ignored");
  EXPECT_EQ(CurrentProfileRegion(), nullptr);
}

}  // namespace
}  // namespace cqa::obs

#endif  // CQABENCH_NO_OBS
