// Unit tests of the planning service's memoisation layer: canonical
// scenario keying (service/canonical), the sharded single-flight LRU
// cache (service/memo_cache), and the service's front memo from request
// spelling to canonical key (service/server): every warm reply must equal
// a fresh service's reply, with the counters unchanged, across spellings,
// errors, evictions, trace laws and concurrent callers. More service-level
// cache semantics are covered end-to-end in service_protocol_test.cpp.

#include "ayd/service/memo_cache.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/model/system.hpp"
#include "ayd/service/canonical.hpp"
#include "ayd/service/server.hpp"
#include "ayd/sim/trace.hpp"

#include "support/failure_log.hpp"

namespace ayd::service {
namespace {

CanonicalKey key_of(const std::string& tag) {
  return CanonicalKeyBuilder("test").field("tag", tag).finish();
}

// -- canonical keying ----------------------------------------------------

TEST(CanonicalKey, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(CanonicalKey, BuilderIsDeterministic) {
  const auto build = [] {
    return CanonicalKeyBuilder("optimize")
        .system(model::System::from_platform(model::hera(),
                                             model::Scenario::kS3))
        .field("procs", 512.0)
        .field("simulate", true)
        .finish();
  };
  const CanonicalKey a = build();
  const CanonicalKey b = build();
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.hash, fnv1a64(a.text));
}

TEST(CanonicalKey, DistinguishesEverySemanticField) {
  const model::System base =
      model::System::from_platform(model::hera(), model::Scenario::kS3);
  const CanonicalKey ref =
      CanonicalKeyBuilder("optimize").system(base).finish();
  const std::vector<model::System> variants = {
      base.with_lambda(2e-8),
      base.with_downtime(60.0),
      base.with_speedup(model::Speedup::amdahl(0.2)),
      base.with_failure_dist(model::FailureDistSpec::weibull(0.7)),
      model::System::from_platform(model::hera(), model::Scenario::kS1),
      model::System::from_platform(model::atlas(), model::Scenario::kS3),
  };
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const CanonicalKey k =
        CanonicalKeyBuilder("optimize").system(variants[i]).finish();
    EXPECT_NE(k.text, ref.text) << "variant " << i;
  }
  // A different op over the same system is a different key too.
  EXPECT_NE(CanonicalKeyBuilder("plan").system(base).finish().text,
            ref.text);
}

TEST(CanonicalKey, DistinguishesCorrelatedWorldExtensions) {
  // The "ext" member splits extended worlds from the plain system and
  // from each other along every extension axis.
  const model::System base =
      model::System::from_platform(model::hera(), model::Scenario::kS3);
  const CanonicalKey ref =
      CanonicalKeyBuilder("optimize").system(base).finish();

  model::HeterogeneousSpec hetero;
  hetero.groups = {{0.5, 1.5, model::FailureDistSpec::weibull(0.7)},
                   {0.5, 0.5, {}}};
  const std::vector<model::System> variants = {
      base.with_shock({0.4, 0.05}),
      base.with_shock({0.5, 0.05}),
      base.with_shock({0.4, 0.1}),
      base.with_shock(
          {0.4, 0.05, model::FailureDistSpec::weibull(0.7)}),
      base.with_heterogeneity(hetero),
      base.with_shock({0.4, 0.05, {}, 4.0}),
  };
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const CanonicalKey k =
        CanonicalKeyBuilder("optimize").system(variants[i]).finish();
    EXPECT_NE(k.text, ref.text) << "variant " << i;
    texts.push_back(k.text);
  }
  for (std::size_t i = 0; i < texts.size(); ++i) {
    for (std::size_t j = i + 1; j < texts.size(); ++j) {
      EXPECT_NE(texts[i], texts[j]) << "variants " << i << " and " << j;
    }
  }
  // The PFS penalty is a member of the shock, written only when it is
  // not 1: the PFS recovery φ·R follows from the recovery already keyed.
  const std::string& tiered = texts.back();
  EXPECT_NE(tiered.find("\"dist\":{\"kind\":\"exponential\"},"
                        "\"pfs_penalty\":4}"),
            std::string::npos)
      << tiered;
  for (const char* restated : {"two_tier", "pfs_recovery"}) {
    EXPECT_EQ(tiered.find(restated), std::string::npos)
        << restated << " in " << tiered;
  }
  EXPECT_EQ(texts.front().find("pfs_penalty"), std::string::npos)
      << texts.front();
}

TEST(CanonicalKey, DegenerateExtensionsShareThePlainSystemKey) {
  // Degenerate specs normalize away at construction, so the canonical
  // key — and therefore every cached answer — is shared with the plain
  // system rather than split by a semantically empty extension.
  const model::System base =
      model::System::from_platform(model::hera(), model::Scenario::kS3);
  const CanonicalKey ref =
      CanonicalKeyBuilder("optimize").system(base).finish();

  model::HeterogeneousSpec uniform;
  uniform.groups = {{1.0, 1.0, base.failure().dist()}};
  const std::vector<model::System> degenerate = {
      base.with_shock({0.0, 0.05}),
      base.with_shock({0.0, 0.05, {}, 4.0}),
      base.with_heterogeneity(uniform),
  };
  for (std::size_t i = 0; i < degenerate.size(); ++i) {
    EXPECT_FALSE(degenerate[i].extended()) << "variant " << i;
    const CanonicalKey k =
        CanonicalKeyBuilder("optimize").system(degenerate[i]).finish();
    EXPECT_EQ(k.text, ref.text) << "variant " << i;
  }
}

TEST(CanonicalKey, ExactParametersNotFormattedOnes) {
  // 0.1 and 0.1000001 collapse under 4-significant-digit formatting
  // (Speedup::name()); canonical keys must keep them apart.
  const model::System a =
      model::System::from_platform(model::hera(), model::Scenario::kS3, 0.1);
  const model::System b = model::System::from_platform(
      model::hera(), model::Scenario::kS3, 0.1000001);
  EXPECT_NE(CanonicalKeyBuilder("optimize").system(a).finish().text,
            CanonicalKeyBuilder("optimize").system(b).finish().text);
}

// -- memo cache ----------------------------------------------------------

TEST(MemoCache, MissThenHitServesTheCachedValue) {
  MemoCache cache(8, 2);
  int computed = 0;
  const auto compute = [&] {
    ++computed;
    return std::string("value");
  };
  const auto first = cache.get_or_compute(key_of("k"), compute);
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(*first.value, "value");
  const auto second = cache.get_or_compute(key_of("k"), compute);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(*second.value, "value");
  EXPECT_EQ(computed, 1);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(MemoCache, EvictionRespectsCapacityLruOrder) {
  // One shard makes the capacity and the LRU order exact.
  MemoCache cache(3, 1);
  const auto value_for = [](const std::string& tag) {
    return [tag] { return "v:" + tag; };
  };
  (void)cache.get_or_compute(key_of("a"), value_for("a"));
  (void)cache.get_or_compute(key_of("b"), value_for("b"));
  (void)cache.get_or_compute(key_of("c"), value_for("c"));
  // Touch "a" so "b" is the least recently used.
  EXPECT_TRUE(cache.get_or_compute(key_of("a"), value_for("a")).hit);
  (void)cache.get_or_compute(key_of("d"), value_for("d"));
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  // "b" was evicted: asking again recomputes; "a" survived.
  EXPECT_FALSE(cache.get_or_compute(key_of("b"), value_for("b")).hit);
  EXPECT_TRUE(cache.get_or_compute(key_of("a"), value_for("a")).hit);
}

TEST(MemoCache, CapacityHoldsAcrossManyInsertions) {
  MemoCache cache(4, 4);
  for (int i = 0; i < 64; ++i) {
    std::string tag = "k";
    tag.append(std::to_string(i));
    (void)cache.get_or_compute(key_of(tag), [&] { return tag; });
  }
  const CacheStats stats = cache.stats();
  // Per-shard LRU: at most max_entries resident in total.
  EXPECT_LE(stats.entries, 4u);
  EXPECT_EQ(stats.misses, 64u);
  EXPECT_EQ(stats.misses - stats.entries, stats.evictions);
}

TEST(MemoCache, SingleFlightUnderEightThreads) {
  MemoCache cache(8, 4);
  std::atomic<int> computations{0};
  const CanonicalKey key = key_of("shared");
  std::vector<std::thread> threads;
  std::vector<std::string> results(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const auto lookup = cache.get_or_compute(key, [&] {
        ++computations;
        // Long enough that every other thread arrives while in flight.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return std::string("shared-value");
      });
      results[static_cast<std::size_t>(t)] = *lookup.value;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computations.load(), 1);
  for (const std::string& r : results) EXPECT_EQ(r, "shared-value");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, 7u);
}

TEST(MemoCache, FailedComputationIsNotCachedAndPropagates) {
  MemoCache cache(8, 2);
  const CanonicalKey key = key_of("throws");
  EXPECT_THROW(
      (void)cache.get_or_compute(
          key, []() -> std::string { throw std::runtime_error("boom"); }),
      std::runtime_error);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The key retries cleanly after the failure.
  const auto lookup =
      cache.get_or_compute(key, [] { return std::string("recovered"); });
  EXPECT_FALSE(lookup.hit);
  EXPECT_EQ(*lookup.value, "recovered");
}

TEST(MemoCache, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MemoCache(64, 3).shard_count(), 4u);
  EXPECT_EQ(MemoCache(64, 16).shard_count(), 16u);
  EXPECT_EQ(MemoCache(64, 1).shard_count(), 1u);
  // Shards never exceed the entry budget, so the total resident
  // capacity (shards x per-shard LRU) honours max_entries.
  EXPECT_EQ(MemoCache(2, 16).shard_count(), 2u);
  EXPECT_EQ(MemoCache(5, 16).shard_count(), 4u);
}

TEST(MemoCache, FindProbesReadyEntriesOnly) {
  MemoCache cache(8, 2);
  const CanonicalKey key = key_of("probe");
  // Absent: null, nothing counted.
  EXPECT_EQ(cache.find(key), nullptr);

  // In flight: null, nothing counted (the owner is still computing).
  std::promise<void> entered;
  std::promise<void> release;
  std::thread owner([&] {
    (void)cache.get_or_compute(key, [&] {
      entered.set_value();
      release.get_future().wait();
      return std::string("ready");
    });
  });
  entered.get_future().wait();
  EXPECT_EQ(cache.find(key), nullptr);
  release.set_value();
  owner.join();
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, 0u);

  // Ready: the value, counted as one hit.
  const auto value = cache.find(key);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, "ready");
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(MemoCache, FindTouchesTheLru) {
  MemoCache cache(2, 1);
  (void)cache.get_or_compute(key_of("a"), [] { return std::string("a"); });
  (void)cache.get_or_compute(key_of("b"), [] { return std::string("b"); });
  ASSERT_NE(cache.find(key_of("a")), nullptr);  // "b" is now the LRU
  (void)cache.get_or_compute(key_of("c"), [] { return std::string("c"); });
  EXPECT_NE(cache.find(key_of("a")), nullptr);
  EXPECT_EQ(cache.find(key_of("b")), nullptr);
}

// -- the service's front memo --------------------------------------------

/// The reply with its echoed id cut off: {"id":...,"ok":... -> "ok":...
std::string without_id(const std::string& reply) {
  const std::size_t at = reply.find(",\"ok\":");
  EXPECT_NE(at, std::string::npos) << reply;
  return reply.substr(at);
}

ServiceOptions one_thread() {
  ServiceOptions options;
  options.threads = 1;
  return options;
}

/// What a service that never saw a request before replies to `line`.
std::string fresh_reply(const std::string& line) {
  PlanningService fresh(one_thread());
  return fresh.handle_line(line);
}

const char* const kOptimize =
    R"({"op":"optimize","id":1,"platform":"hera","scenario":3,"procs":512})";
const char* const kSimulate =
    R"({"op":"simulate","id":2,"platform":"atlas","procs":512,"runs":4,)"
    R"("patterns":16,"seed":7})";
const char* const kPlan =
    R"({"op":"plan","id":3,"platform":"coastal","scenario":2,"work":1e6,)"
    R"("name":"job"})";

TEST(FrontMemo, WarmRepliesMatchAFreshServiceForEveryOp) {
  for (const char* line : {kOptimize, kSimulate, kPlan}) {
    PlanningService service(one_thread());
    const std::string expected = fresh_reply(line);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(service.handle_line(line), expected) << line << " #" << i;
    }
    const CacheStats stats = service.cache_stats();
    EXPECT_EQ(stats.misses, 1u) << line;
    EXPECT_EQ(stats.hits, 3u) << line;
    EXPECT_EQ(stats.entries, 1u) << line;
  }
}

TEST(FrontMemo, SpellingsOfOneQuestionShareTheAnswer) {
  // Reordered members, underscore spellings, "simulate": false versus
  // absent, 512 versus 512.0, and an explicit default.
  const std::vector<std::string> spellings = {
      kOptimize,
      R"({"procs":512.0,"scenario":3,"op":"optimize","platform":"hera",)"
      R"("id":"b"})",
      R"({"op":"optimize","id":null,"platform":"hera","scenario":3,)"
      R"("procs":512,"simulate":false})",
      R"({"op":"optimize","id":4,"platform":"hera","scenario":"3",)"
      R"("procs":512,"max_procs":10000000})",
      R"({"op":"optimize","id":5,"platform":"hera","scenario":3,)"
      R"("procs":512,"max-procs":1e7})",
  };
  PlanningService service(one_thread());
  const std::string body = without_id(fresh_reply(spellings[0]));
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& line : spellings) {
      const std::string reply = service.handle_line(line);
      EXPECT_EQ(reply, fresh_reply(line)) << line;
      EXPECT_EQ(without_id(reply), body) << line;
    }
  }
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kRounds * spellings.size() - 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(FrontMemo, DistinctArgvListsNeverShareAnEntry) {
  // Joined without separators, both argv lists would read
  // "--name=job--work=2000000": the memo must still keep them apart.
  const std::string one_arg =
      R"({"op":"plan","id":1,"platform":"hera","name":"job--work=2000000"})";
  const std::string two_args =
      R"({"op":"plan","id":1,"platform":"hera","name":"job","work":2e6})";
  PlanningService service(one_thread());
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(service.handle_line(one_arg), fresh_reply(one_arg));
    EXPECT_EQ(service.handle_line(two_args), fresh_reply(two_args));
  }
  EXPECT_EQ(service.cache_stats().misses, 2u);
  EXPECT_EQ(service.cache_stats().hits, 2u);
}

TEST(FrontMemo, NIdenticalRequestsCountNMinusOneHits) {
  constexpr std::uint64_t kN = 10;
  PlanningService service(one_thread());
  for (std::uint64_t i = 0; i < kN; ++i) (void)service.handle_line(kPlan);
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, kN - 1);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.coalesced, 0u);
  // The stats op reports the same counters.
  const std::string reply = service.handle_line(R"({"op":"stats","id":0})");
  EXPECT_NE(reply.find("\"hits\":9,\"misses\":1,"), std::string::npos)
      << reply;
}

TEST(FrontMemo, InvalidRequestsAreNeverRemembered) {
  const std::vector<std::string> invalid = {
      R"({"op":"optimize","id":1,"procs":-5})",
      R"({"op":"optimize","id":2,"bogus":1})",
      R"({"op":"plan","id":3,"work":"lots"})",
      R"({"op":"simulate","id":4,"runs":[1]})",
      R"({"op":"simulate","id":5,"runs":null})",
      R"({"op":"optimize","id":6,"help":true})",
      R"({"op":"optimize","id":7,"platform":"custom"})",
  };
  PlanningService service(one_thread());
  for (const std::string& line : invalid) {
    const std::string expected = fresh_reply(line);
    EXPECT_NE(expected.find("\"ok\":false"), std::string::npos) << expected;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(service.handle_line(line), expected) << line;
    }
  }
  // A request that resolves but fails inside its evaluation counts a
  // miss every time, as it always has; none of them is ever a hit.
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(FrontMemo, EvictedAnswersAreRecomputedWithTheRightBytes) {
  ServiceOptions options = one_thread();
  options.cache_entries = 1;
  options.cache_shards = 1;
  PlanningService service(options);
  const std::string a = fresh_reply(kOptimize);
  const std::string b = fresh_reply(kPlan);
  EXPECT_EQ(service.handle_line(kOptimize), a);
  EXPECT_EQ(service.handle_line(kPlan), b);
  EXPECT_EQ(service.handle_line(kOptimize), a);
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(FrontMemo, TraceLawsAreReResolvedOnEveryRequest) {
  // trace:PATH re-reads the CSV per request and its gaps enter the
  // canonical key, so a rewritten log must be seen by the next request.
  const std::string path = ::testing::TempDir() + "/ayd_front_memo_" +
                           std::to_string(::getpid()) + ".csv";
  const std::string line =
      R"({"op":"simulate","id":9,"platform":"hera","procs":512,)"
      R"("runs":4,"patterns":16,"failure-dist":"trace:)" +
      path + "\"}";
  PlanningService service(one_thread());

  sim::write_failure_log_csv(path, {100.0, 300.0, 200.0, 400.0});
  const std::string first = service.handle_line(line);
  EXPECT_EQ(first, fresh_reply(line));
  EXPECT_EQ(service.handle_line(line), first);  // same file: a RAM hit

  sim::write_failure_log_csv(path, {50.0, 900.0, 10.0, 40.0, 2000.0});
  const std::string second = service.handle_line(line);
  EXPECT_EQ(second, fresh_reply(line));
  EXPECT_NE(second, first);
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  std::remove(path.c_str());
}

TEST(FrontMemo, ConcurrentCallersGetTheirReferenceReplies) {
  // Four threads over warm and cold keys in several spellings, with
  // bounds small enough that the front memo clears and the cache evicts
  // all the time: every reply must still equal its single-threaded
  // reference.
  std::vector<std::string> lines;
  for (int scenario = 1; scenario <= 3; ++scenario) {
    const std::string s = std::to_string(scenario);
    lines.push_back(R"({"op":"optimize","id":1,"platform":"hera","scenario":)" +
                    s + R"(,"procs":512})");
    lines.push_back(R"({"procs":512.0,"op":"optimize","id":"x","scenario":)" +
                    s + R"(,"platform":"hera","simulate":false})");
    lines.push_back(R"({"op":"plan","id":2,"platform":"atlas","scenario":)" +
                    s + R"(,"work":1e6,"name":"job"})");
    lines.push_back(R"({"op":"simulate","id":3,"platform":"coastal",)"
                    R"("procs":256,"runs":2,"patterns":8,"seed":)" +
                    s + "}");
  }
  // An error at resolution. (One raised inside an evaluation would reach
  // coalesced waiters as a shared exception_ptr, whose reference count
  // lives in the uninstrumented runtime and trips a TSan false positive.)
  lines.push_back(R"({"op":"optimize","id":4,"bogus":1})");
  std::vector<std::string> refs;
  {
    PlanningService reference(one_thread());
    for (const std::string& line : lines) {
      refs.push_back(reference.handle_line(line));
    }
  }

  ServiceOptions options = one_thread();
  options.cache_entries = 4;
  options.cache_shards = 2;
  PlanningService service(options);
  constexpr int kThreads = 4;
  constexpr std::size_t kRequests = 150;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // A per-thread stride over a hot prefix and the full list mixes
      // warm repeats with cold keys.
      for (std::size_t n = 0; n < kRequests; ++n) {
        const std::size_t i =
            n % 3 == 0 ? (n * 7 + static_cast<std::size_t>(t)) % lines.size()
                       : (n + static_cast<std::size_t>(t)) % 4;
        if (service.handle_line(lines[i]) != refs[i]) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const CacheStats stats = service.cache_stats();
  EXPECT_LE(stats.entries, options.cache_entries);
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace ayd::service
