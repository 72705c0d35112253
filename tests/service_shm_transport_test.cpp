// The shared-memory transport, layer by layer: the lock-free ring
// (FIFO, wrap-around, fullness, MPMC races, torn-push tombstoning), the
// segment lifecycle (version-mismatch and live-server refusal, stale
// recovery, clean unlink), and in-process end-to-end round trips whose
// warm-hit replies must be byte-identical to the pipe transport's
// handle_line for the same request. Cross-process races live in
// service_shm_stress_test.cpp / service_shm_crash_test.cpp.

#include "ayd/service/shm_transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ayd/io/json_parse.hpp"
#include "ayd/service/server.hpp"
#include "ayd/service/shm_ring.hpp"
#include "ayd/tool/tool.hpp"
#include "ayd/util/error.hpp"

namespace ayd::service {
namespace {

/// Cache-line-aligned backing block for in-process ring tests.
struct RingBlock {
  explicit RingBlock(std::size_t bytes)
      : data(static_cast<char*>(
            ::operator new(bytes, std::align_val_t(kShmCacheLine)))),
        size(bytes) {}
  ~RingBlock() {
    ::operator delete(data, std::align_val_t(kShmCacheLine));
  }
  RingBlock(const RingBlock&) = delete;
  RingBlock& operator=(const RingBlock&) = delete;
  char* data;
  std::size_t size;
};

/// Unique segment names so parallel ctest invocations cannot collide.
std::string unique_name(const char* tag) {
  return std::string("t") + std::to_string(::getpid()) + "_" + tag;
}

/// A pid that is guaranteed dead: fork a child that exits immediately
/// and reap it. (Pid reuse within a test's lifetime is not a realistic
/// hazard.) Call only before the test creates threads.
std::uint32_t dead_pid() {
  const pid_t child = ::fork();
  if (child == 0) ::_exit(0);
  int status = 0;
  ::waitpid(child, &status, 0);
  return static_cast<std::uint32_t>(child);
}

// -- ring: basics --------------------------------------------------------

TEST(ShmRing, PushPopRoundTripsInFifoOrder) {
  RingBlock block(ShmRing::bytes_required(8, 128));
  ShmRing ring = ShmRing::init(block.data, 8, 128);
  ASSERT_TRUE(ring.try_push("pre-", "fix", 1));
  ASSERT_TRUE(ring.try_push("", "second", 1));
  std::string out;
  ASSERT_EQ(ring.try_pop(out), ShmRing::Pop::kFrame);
  EXPECT_EQ(out, "pre-fix");
  ASSERT_EQ(ring.try_pop(out), ShmRing::Pop::kFrame);
  EXPECT_EQ(out, "second");
  EXPECT_EQ(ring.try_pop(out), ShmRing::Pop::kEmpty);
}

TEST(ShmRing, EmptyPrefixOrBodyRoundTrips) {
  // Default-constructed views have a null data(); the push must not hand
  // it to memcpy (UBSan flags that even for zero bytes).
  RingBlock block(ShmRing::bytes_required(4, 64));
  ShmRing ring = ShmRing::init(block.data, 4, 64);
  ASSERT_TRUE(ring.try_push(std::string_view{}, "body-only", 1));
  ASSERT_TRUE(ring.try_push("prefix-only", std::string_view{}, 1));
  std::string out;
  ASSERT_EQ(ring.try_pop(out), ShmRing::Pop::kFrame);
  EXPECT_EQ(out, "body-only");
  ASSERT_EQ(ring.try_pop(out), ShmRing::Pop::kFrame);
  EXPECT_EQ(out, "prefix-only");
}

TEST(ShmRing, FullRingRejectsWithoutBlocking) {
  RingBlock block(ShmRing::bytes_required(4, 64));
  ShmRing ring = ShmRing::init(block.data, 4, 64);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_push("", std::to_string(i), 1));
  }
  EXPECT_FALSE(ring.try_push("", "overflow", 1));
  std::string out;
  ASSERT_EQ(ring.try_pop(out), ShmRing::Pop::kFrame);
  EXPECT_TRUE(ring.try_push("", "now-fits", 1));
}

TEST(ShmRing, WrapsAroundManyLaps) {
  RingBlock block(ShmRing::bytes_required(4, 64));
  ShmRing ring = ShmRing::init(block.data, 4, 64);
  std::string out;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push("", std::to_string(i), 1));
    ASSERT_EQ(ring.try_pop(out), ShmRing::Pop::kFrame);
    ASSERT_EQ(out, std::to_string(i));
  }
}

TEST(ShmRing, OversizeFrameThrows) {
  RingBlock block(ShmRing::bytes_required(4, 64));
  ShmRing ring = ShmRing::init(block.data, 4, 64);
  EXPECT_THROW((void)ring.try_push("", std::string(65, 'x'), 1),
               util::InvalidArgument);
  EXPECT_THROW((void)ring.try_push(std::string(40, 'p'),
                                   std::string(40, 'b'), 1),
               util::InvalidArgument);
  // The boundary frame fits exactly.
  EXPECT_TRUE(ring.try_push("", std::string(64, 'x'), 1));
}

TEST(ShmRing, ViewSeesFramesPushedThroughAnotherView) {
  RingBlock block(ShmRing::bytes_required(8, 128));
  ShmRing producer = ShmRing::init(block.data, 8, 128);
  ShmRing consumer = ShmRing::view(block.data);
  ASSERT_TRUE(producer.try_push("", "cross-view", 7));
  std::string out;
  ASSERT_EQ(consumer.try_pop(out), ShmRing::Pop::kFrame);
  EXPECT_EQ(out, "cross-view");
  EXPECT_EQ(consumer.slots(), 8u);
  EXPECT_EQ(consumer.frame_bytes(), 128u);
}

// -- ring: concurrency (the TSan tier's main subject) --------------------

TEST(ShmRing, ManyProducersOneConsumerDeliverEveryFrameExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  RingBlock block(ShmRing::bytes_required(16, 64));
  ShmRing ring = ShmRing::init(block.data, 16, 64);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      ShmRing view = ring;  // each thread its own (cheap) view
      for (int i = 0; i < kPerProducer; ++i) {
        const std::string frame =
            std::to_string(p) + ":" + std::to_string(i);
        while (!view.try_push("", frame, static_cast<std::uint32_t>(p + 1))) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::set<std::string> seen;
  std::string out;
  int last_per_producer[kProducers] = {-1, -1, -1, -1};
  while (seen.size() < kProducers * kPerProducer) {
    if (ring.try_pop(out) != ShmRing::Pop::kFrame) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_TRUE(seen.insert(out).second) << "duplicate frame " << out;
    // Per-producer FIFO: a producer's frames arrive in push order.
    const int p = std::stoi(out.substr(0, out.find(':')));
    const int i = std::stoi(out.substr(out.find(':') + 1));
    ASSERT_GT(i, last_per_producer[p]);
    last_per_producer[p] = i;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ring.try_pop(out), ShmRing::Pop::kEmpty);
}

// -- ring: crash reclamation ---------------------------------------------

TEST(ShmRing, TornPushByDeadClaimantIsTombstonedAndSkipped) {
  const std::uint32_t corpse = dead_pid();
  RingBlock block(ShmRing::bytes_required(8, 64));
  ShmRing ring = ShmRing::init(block.data, 8, 64);

  // A frame ahead of the tear, then the tear, then a frame behind it:
  // the consumer must drain the first, stall, and resume after the
  // tombstone.
  ASSERT_TRUE(ring.try_push("", "before", 1));
  const std::uint64_t torn = ring.simulate_torn_push(corpse);
  ASSERT_TRUE(ring.try_push("", "after", 1));

  std::string out;
  ASSERT_EQ(ring.try_pop(out), ShmRing::Pop::kFrame);
  EXPECT_EQ(out, "before");
  // Wedged: the committed "after" frame is unreachable behind the tear.
  ASSERT_EQ(ring.try_pop(out), ShmRing::Pop::kEmpty);

  const auto stalled = ring.stalled_claim();
  ASSERT_TRUE(stalled.has_value());
  EXPECT_EQ(stalled->position, torn);
  EXPECT_EQ(stalled->claimant, corpse);

  ASSERT_TRUE(ring.tombstone_stalled(stalled->position));
  ASSERT_EQ(ring.try_pop(out), ShmRing::Pop::kTombstone);
  ASSERT_EQ(ring.try_pop(out), ShmRing::Pop::kFrame);
  EXPECT_EQ(out, "after");
  // The ring keeps working across the reclaimed slot's next laps.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(ring.try_push("", "lap", 1));
    ASSERT_EQ(ring.try_pop(out), ShmRing::Pop::kFrame);
  }
}

TEST(ShmRing, TornPushInsideClaimWindowIsUnattributable) {
  RingBlock block(ShmRing::bytes_required(8, 64));
  ShmRing ring = ShmRing::init(block.data, 8, 64);
  const std::uint64_t torn = ring.simulate_torn_push(0);
  const auto stalled = ring.stalled_claim();
  ASSERT_TRUE(stalled.has_value());
  EXPECT_EQ(stalled->position, torn);
  EXPECT_EQ(stalled->claimant, 0u);  // caller must apply the grace timeout
  ASSERT_TRUE(ring.tombstone_stalled(torn));
  std::string out;
  EXPECT_EQ(ring.try_pop(out), ShmRing::Pop::kTombstone);
}

TEST(ShmRing, HealthyRingReportsNoStalledClaim) {
  RingBlock block(ShmRing::bytes_required(8, 64));
  ShmRing ring = ShmRing::init(block.data, 8, 64);
  EXPECT_FALSE(ring.stalled_claim().has_value());  // empty
  ASSERT_TRUE(ring.try_push("", "committed", 1));
  EXPECT_FALSE(ring.stalled_claim().has_value());  // committed, not torn
  // tombstone_stalled refuses a position that was committed meanwhile.
  EXPECT_FALSE(ring.tombstone_stalled(0));
}

// -- segment lifecycle ---------------------------------------------------

TEST(ShmTransport, ClientRefusesMissingSegment) {
  try {
    ShmClient client(unique_name("nosuch"));
    FAIL() << "attach to a missing segment must throw";
  } catch (const ShmError& e) {
    EXPECT_NE(e.reason().find("no such segment"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("/dev/shm/"), std::string::npos);
  }
}

TEST(ShmTransport, VersionMismatchIsRefusedWithPathAndReason) {
  const std::string name = unique_name("vers");
  const std::string oname = "/ayd_" + name;

  // Hand-craft a segment whose header matches everything except the
  // format version (the mixed-build-fleet scenario). Field offsets
  // mirror SegmentHeader in shm_transport.cpp.
  const int fd = ::shm_open(oname.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  ASSERT_GE(fd, 0);
  constexpr std::size_t kSize = 4096;
  ASSERT_EQ(::ftruncate(fd, kSize), 0);
  void* base =
      ::mmap(nullptr, kSize, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ASSERT_NE(base, MAP_FAILED);
  auto* bytes = static_cast<char*>(base);
  std::memcpy(bytes, "AYDSHM01", 8);                     // magic
  const std::uint32_t bogus_version = 999;
  std::memcpy(bytes + 8, &bogus_version, 4);             // version
  const std::uint64_t total = kSize;
  std::memcpy(bytes + 16, &total, 8);                    // total_bytes
  ::munmap(base, kSize);
  ::close(fd);

  const auto expect_version_refusal = [&](auto&& construct) {
    try {
      construct();
      FAIL() << "version mismatch must refuse";
    } catch (const ShmError& e) {
      EXPECT_EQ(e.path(), ShmServer::segment_path(name));
      EXPECT_NE(e.reason().find("version 999"), std::string::npos)
          << e.reason();
    }
  };
  PlanningService service({/*threads=*/1});
  expect_version_refusal([&] { ShmServer server(name, service); });
  expect_version_refusal([&] { ShmClient client(name); });
  ::shm_unlink(oname.c_str());
}

TEST(ShmTransport, BadMagicIsRefused) {
  const std::string name = unique_name("magic");
  const std::string oname = "/ayd_" + name;
  const int fd = ::shm_open(oname.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 4096), 0);  // zero-filled: no magic
  ::close(fd);
  try {
    ShmClient client(name);
    FAIL() << "bad magic must refuse";
  } catch (const ShmError& e) {
    EXPECT_NE(e.reason().find("bad magic"), std::string::npos) << e.what();
  }
  ::shm_unlink(oname.c_str());
}

TEST(ShmTransport, ServerUnlinksSegmentOnShutdown) {
  const std::string name = unique_name("unlink");
  PlanningService service({/*threads=*/1});
  {
    ShmServer server(name, service);
    struct ::stat st {};
    EXPECT_EQ(::stat(ShmServer::segment_path(name).c_str(), &st), 0)
        << "segment must exist while serving";
  }
  struct ::stat st {};
  EXPECT_NE(::stat(ShmServer::segment_path(name).c_str(), &st), 0)
      << "segment must be unlinked after shutdown";
}

TEST(ShmTransport, SecondServerOnLiveSegmentIsRefused) {
  const std::string name = unique_name("live");
  PlanningService service({/*threads=*/1});
  ShmServer server(name, service);
  try {
    ShmServer second(name, service);
    FAIL() << "double-serve must refuse";
  } catch (const ShmError& e) {
    EXPECT_NE(e.reason().find("already served by live pid"),
              std::string::npos)
        << e.reason();
  }
}

// -- end to end (in process) ---------------------------------------------

TEST(ShmTransport, WarmHitRepliesAreByteIdenticalToPipeTransport) {
  const std::string name = unique_name("e2e");
  PlanningService service({/*threads=*/2});
  ShmServer server(name, service);
  ShmClient client(name);

  const std::vector<std::string> requests = {
      R"({"op":"plan","id":1,"platform":"hera","work":1e18})",
      R"({"op":"plan","id":"two","platform":"atlas","work":2e18})",
      R"({"op":"optimize","id":3,"platform":"hera"})",
  };
  for (const std::string& line : requests) {
    // handle_line IS the pipe transport's reply (serve() writes its
    // output verbatim); the shm round trip must match byte for byte —
    // cold and warm.
    const std::string cold = client.call(line);
    const std::string warm = client.call(line);
    EXPECT_EQ(cold, service.handle_line(line)) << line;
    EXPECT_EQ(warm, cold) << line;
  }
  EXPECT_GE(server.stats().requests, 2 * requests.size());
  EXPECT_FALSE(server.stats().recovered_stale);
}

TEST(ShmTransport, ConcurrentClientsShareOneCache) {
  const std::string name = unique_name("multi");
  PlanningService service({/*threads=*/2});
  ShmServer server(name, service);

  constexpr int kClients = 3;
  constexpr int kCalls = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ShmClient client(name);
      for (int i = 0; i < kCalls; ++i) {
        const int scenario = (c * kCalls + i) % 5;
        const std::string line =
            R"({"op":"plan","id":)" + std::to_string(c * 1000 + i) +
            R"(,"platform":"hera","work":)" +
            std::to_string(1 + scenario) + "e17}";
        const std::string reply = client.call(line);
        if (reply != service.handle_line(line)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // 5 distinct scenarios across 120 shm calls (plus the comparison
  // handle_line calls): the cache must have collapsed nearly all work.
  EXPECT_GE(service.cache_stats().hits, 100u);
}

TEST(ShmTransport, OversizeRequestThrowsAndOversizeReplyDegrades) {
  const std::string name = unique_name("size");
  PlanningService service({/*threads=*/1});
  ShmOptions options;
  options.frame_bytes = 512;  // an optimize record (~560 bytes) won't fit
  ShmServer server(name, service, options);
  ShmClient client(name);

  // Requests larger than a frame are the caller's error, locally, and the
  // message names no option `ayd serve` does not have.
  std::string message;
  try {
    (void)client.call(std::string(1000, 'x'));
  } catch (const util::InvalidArgument& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("frame capacity of"), std::string::npos) << message;
  std::ostringstream help;
  std::ostringstream help_err;
  ASSERT_EQ(tool::run_tool({"serve", "--help"}, help, help_err), 0);
  for (std::size_t at = message.find("--"); at != std::string::npos;
       at = message.find("--", at + 2)) {
    const std::size_t end = message.find_first_not_of(
        "abcdefghijklmnopqrstuvwxyz-", at + 2);
    const std::string option = message.substr(at, end - at);
    EXPECT_NE(help.str().find("  " + option), std::string::npos)
        << message << " names " << option << ", which ayd serve lacks";
  }

  // Replies larger than a frame degrade to an error envelope that still
  // carries the request's id.
  const std::string reply =
      client.call(R"({"op":"optimize","id":77,"platform":"hera"})");
  EXPECT_NE(reply.find("\"id\":77"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
  EXPECT_NE(reply.find("exceeds the shm frame capacity"), std::string::npos)
      << reply;
  // A small reply on the same session still round-trips normally.
  const std::string stats = client.call(R"({"op":"stats","id":78})");
  EXPECT_NE(stats.find("\"ok\":true"), std::string::npos) << stats;
}

TEST(ShmTransport, ClientFailsFastAfterServerStops) {
  const std::string name = unique_name("stopped");
  PlanningService service({/*threads=*/1});
  auto server = std::make_unique<ShmServer>(name, service);
  ShmClient client(name);
  ASSERT_NE(client.call(R"({"op":"stats","id":1})").find("\"ok\":true"),
            std::string::npos);
  server->stop();
  try {
    (void)client.call(R"({"op":"stats","id":2})", /*timeout_ms=*/2000);
    FAIL() << "a call after shutdown must throw";
  } catch (const ShmError& e) {
    EXPECT_NE(e.reason().find("shut down"), std::string::npos)
        << e.reason();
  }
}

TEST(ShmTransport, AttachRefusedWhenClientTableIsFull) {
  const std::string name = unique_name("slots");
  PlanningService service({/*threads=*/1});
  ShmOptions options;
  options.max_clients = 2;
  ShmServer server(name, service, options);
  ShmClient a(name);
  ShmClient b(name);
  try {
    ShmClient c(name);
    FAIL() << "third attach with max_clients=2 must refuse";
  } catch (const ShmError& e) {
    EXPECT_NE(e.reason().find("client slots"), std::string::npos)
        << e.reason();
  }
}

TEST(ShmTransport, DetachFreesTheClientSlot) {
  const std::string name = unique_name("detach");
  PlanningService service({/*threads=*/1});
  ShmOptions options;
  options.max_clients = 1;
  ShmServer server(name, service, options);
  {
    ShmClient only(name);
    ASSERT_NE(only.call(R"({"op":"stats","id":1})").find("\"ok\":true"),
              std::string::npos);
  }
  // The destructor released the single slot; a fresh attach succeeds
  // and round-trips.
  ShmClient next(name);
  EXPECT_NE(next.call(R"({"op":"stats","id":2})").find("\"ok\":true"),
            std::string::npos);
}

TEST(ShmTransport, StatsReportTheTransportCountersWhileAttached) {
  const std::string name = unique_name("stats");
  PlanningService service({/*threads=*/1});
  const auto stats = [&service] {
    return io::parse_json(service.handle_line(R"({"op":"stats","id":9})"))
        .at("result");
  };
  // A pipe-only serve has no transport object.
  EXPECT_EQ(stats().find("transport"), nullptr);
  {
    ShmServer server(name, service);
    ShmClient client(name);
    const std::string plan =
        R"({"op":"plan","id":1,"platform":"hera","work":1e18})";
    ASSERT_NE(client.call(plan).find("\"ok\":true"), std::string::npos);
    ASSERT_NE(client.call(plan).find("\"ok\":true"), std::string::npos);
    // Asked over the segment itself, and over the pipe.
    const io::JsonValue over_shm =
        io::parse_json(client.call(R"({"op":"stats","id":2})"))
            .at("result")
            .at("transport");
    EXPECT_EQ(over_shm.at("requests").as_int(), 3);
    const io::JsonValue transport = stats().at("transport");
    const ShmServerStats expected = server.stats();
    EXPECT_EQ(transport.at("requests").as_int(),
              static_cast<std::int64_t>(expected.requests));
    EXPECT_EQ(transport.at("requests").as_int(), 3);
    // The warm repeat was answered on the transport thread; the cold
    // plan and the stats op were not.
    EXPECT_EQ(transport.at("inline_hits").as_int(), 1);
    EXPECT_EQ(transport.at("inline_hits").as_int(),
              static_cast<std::int64_t>(expected.inline_hits));
    EXPECT_EQ(transport.at("reclaimed_clients").as_int(), 0);
    EXPECT_EQ(transport.at("reclaimed_requests").as_int(), 0);
    EXPECT_EQ(transport.at("dropped_replies").as_int(), 0);
    EXPECT_FALSE(transport.at("recovered_stale").as_bool());
  }
  // A stopped transport is detached again.
  EXPECT_EQ(stats().find("transport"), nullptr);
}

TEST(ShmTransport, InlineWarmHitsCountOneCacheHitEachLikeThePipe) {
  // Cold misses go to a worker and warm repeats are answered on the
  // transport thread; the cache counters read exactly what the same
  // requests give through handle_line.
  const std::string name = unique_name("inline");
  PlanningService service({/*threads=*/1});
  PlanningService pipe({/*threads=*/1});
  ShmServer server(name, service);
  ShmClient client(name);
  const std::vector<std::string> requests = {
      R"({"op":"plan","id":1,"platform":"hera","work":1e18})",
      R"({"op":"optimize","id":2,"platform":"atlas","scenario":2})",
      R"({"op":"simulate","id":3,"procs":512,"period":6000,"runs":6,)"
      R"("patterns":10})",
  };
  for (const std::string& line : requests) {
    EXPECT_EQ(client.call(line), pipe.handle_line(line)) << line;
  }
  EXPECT_EQ(server.stats().inline_hits, 0u) << "cold misses are pooled";
  for (int round = 1; round <= 2; ++round) {
    for (const std::string& line : requests) {
      EXPECT_EQ(client.call(line), pipe.handle_line(line)) << line;
    }
    EXPECT_EQ(server.stats().inline_hits, round * requests.size());
  }
  const CacheStats got = service.cache_stats();
  const CacheStats want = pipe.cache_stats();
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.hits, 2 * requests.size());
  EXPECT_EQ(got.misses, requests.size());
  // Errors and stats are never inline, repeated or not.
  for (int round = 0; round < 2; ++round) {
    for (const char* line : {R"({"op":"plan","id":4,"work":-1})",
                             R"({"op":"stats","id":5})"}) {
      EXPECT_NE(client.call(line).find("\"id\":"), std::string::npos);
    }
  }
  EXPECT_EQ(server.stats().inline_hits, 2 * requests.size());
}

/// A second mapping of a live segment that pushes request frames for a
/// client slot and reads that slot's replies only when told to: a client
/// that stopped draining its reply ring. Offsets mirror SegmentHeader in
/// shm_transport.cpp.
class RawSegment {
 public:
  explicit RawSegment(const std::string& name) {
    const int fd = ::shm_open(("/ayd_" + name).c_str(), O_RDWR, 0);
    EXPECT_GE(fd, 0);
    struct ::stat st {};
    ::fstat(fd, &st);
    size_ = static_cast<std::size_t>(st.st_size);
    base_ = static_cast<char*>(
        ::mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0));
    ::close(fd);
    std::memcpy(&request_ring_offset_, base_ + 48, 8);
    std::memcpy(&client_table_offset_, base_ + 56, 8);
    std::memcpy(&client_stride_, base_ + 64, 8);
  }
  ~RawSegment() { ::munmap(base_, size_); }
  RawSegment(const RawSegment&) = delete;
  RawSegment& operator=(const RawSegment&) = delete;

  void push(std::uint32_t client, std::uint32_t generation,
            const std::string& line) {
    const std::uint32_t prefix[2] = {client, generation};
    ShmRing ring = ShmRing::view(base_ + request_ring_offset_);
    while (!ring.try_push(
        std::string_view(reinterpret_cast<const char*>(prefix),
                         sizeof(prefix)),
        line, static_cast<std::uint32_t>(::getpid()))) {
      std::this_thread::yield();
    }
  }

  /// Pops `client`'s replies until `count` arrived or `patience` passed.
  std::vector<std::string> drain(std::uint32_t client, std::size_t count,
                                 std::chrono::milliseconds patience) {
    ShmRing ring = ShmRing::view(base_ + client_table_offset_ +
                                 client * client_stride_ + kShmCacheLine);
    std::vector<std::string> replies;
    std::string reply;
    const auto deadline = std::chrono::steady_clock::now() + patience;
    while (replies.size() < count &&
           std::chrono::steady_clock::now() < deadline) {
      if (ring.try_pop(reply) == ShmRing::Pop::kFrame) {
        replies.push_back(reply);
      } else {
        std::this_thread::yield();
      }
    }
    return replies;
  }

 private:
  char* base_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t request_ring_offset_ = 0;
  std::uint64_t client_table_offset_ = 0;
  std::uint64_t client_stride_ = 0;
};

TEST(ShmTransport, AClientThatStopsDrainingDoesNotStallOthersWarmHits) {
  const std::string name = unique_name("stuck");
  PlanningService service({/*threads=*/2});
  ShmOptions options;
  options.reply_slots = 4;
  ShmServer server(name, service, options);
  // The first attach to a fresh segment takes slot 0 at generation 1;
  // the raw mapping speaks for that slot and never reads its replies.
  ShmClient stuck(name);
  ShmClient other(name);
  RawSegment raw(name);
  const std::string plan =
      R"({"op":"plan","id":1,"platform":"hera","work":1e18})";
  const std::string reply = other.call(plan);  // cold: warm from now on

  // Four warm replies fill the stuck client's ring; the next two each
  // move their blocking retry to a worker, which then waits on the full
  // ring (or on the first one's delivery lock): both workers are busy.
  constexpr std::size_t kStuck = 6;
  for (std::size_t i = 0; i < kStuck; ++i) raw.push(0, 1, plan);
  const auto t0 = std::chrono::steady_clock::now();
  while (server.stats().inline_hits < kStuck &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds{5}) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  ASSERT_EQ(server.stats().inline_hits, kStuck);

  // The other client's warm hits still come back, well inside the 5 s
  // reply-push deadline the stuck client's deliveries are waiting out.
  for (int i = 0; i < 20; ++i) {
    const auto a = std::chrono::steady_clock::now();
    EXPECT_EQ(other.call(plan, /*timeout_ms=*/1000), reply);
    EXPECT_LT(std::chrono::steady_clock::now() - a,
              std::chrono::milliseconds{1000});
  }
  EXPECT_EQ(server.stats().inline_hits, kStuck + 20);

  // Once the stuck client drains, the retried replies arrive too.
  const std::vector<std::string> late =
      raw.drain(0, kStuck, std::chrono::seconds{5});
  EXPECT_EQ(late.size(), kStuck);
  for (const std::string& r : late) EXPECT_EQ(r, reply);
  EXPECT_EQ(server.stats().dropped_replies, 0u);
}

// -- ShmBackoff: the wait schedule ---------------------------------------
//
// Every ring wait (transport loop, delivery, client reply wait) runs this
// schedule: a hot spin phase for warm-path latency, a long yield phase
// that covers a cold compute, then sleeps of an eighth of the wait so far
// (a reply is overslept by at most about 1/8 of its wait), capped so an
// idle endpoint stops burning a core. The schedule function is pure and
// constexpr — pin it exactly.

using std::chrono::microseconds;
using std::chrono::milliseconds;

static_assert(ShmBackoff::kSpinPauses < ShmBackoff::kYieldPauses,
              "spin phase precedes the yield phase");
static_assert(ShmBackoff::sleep_for_pause(0, milliseconds{100}).count() == 0);
static_assert(ShmBackoff::sleep_for_pause(ShmBackoff::kYieldPauses - 1,
                                          milliseconds{100})
                  .count() == 0);
static_assert(ShmBackoff::sleep_for_pause(ShmBackoff::kYieldPauses,
                                          microseconds{0}) ==
              ShmBackoff::kSleepFloor);

TEST(ShmBackoff, ScheduleSpinsThenYieldsThenSleepsAnEighthOfTheWait) {
  // Spin + yield phases never sleep, however long the wait: warm-hit
  // latency is untouched, and a ~0.6 ms cold compute is waited out in
  // 64 spins and 4096 yields.
  EXPECT_EQ(ShmBackoff::kSpinPauses, 64u);
  EXPECT_EQ(ShmBackoff::kYieldPauses, 4096u);
  for (const unsigned p : {0u, 1u, ShmBackoff::kSpinPauses,
                           ShmBackoff::kYieldPauses - 1}) {
    for (const microseconds waited : {microseconds{0}, microseconds{5000}}) {
      EXPECT_EQ(ShmBackoff::sleep_for_pause(p, waited), microseconds{0}) << p;
    }
  }
  // Then waited / 8, never under the 50 us floor ...
  const unsigned base = ShmBackoff::kYieldPauses;
  const auto sleep = [base](microseconds waited) {
    return ShmBackoff::sleep_for_pause(base, waited);
  };
  EXPECT_EQ(sleep(microseconds{0}), microseconds{50});
  EXPECT_EQ(sleep(microseconds{400}), microseconds{50});
  EXPECT_EQ(sleep(microseconds{800}), microseconds{100});
  EXPECT_EQ(sleep(microseconds{1000}), microseconds{125});
  EXPECT_EQ(sleep(microseconds{8000}), microseconds{1000});
  EXPECT_EQ(sleep(microseconds{15992}), microseconds{1999});
  // ... and never over the 2 ms cap, the idle steady-state poll interval,
  // which a wait reaches after 16 ms.
  EXPECT_EQ(ShmBackoff::kSleepCap, microseconds{2000});
  EXPECT_EQ(sleep(microseconds{16000}), ShmBackoff::kSleepCap);
  EXPECT_EQ(sleep(std::chrono::seconds{1}), ShmBackoff::kSleepCap);
  // The schedule depends on the pause index only through the phase.
  EXPECT_EQ(ShmBackoff::sleep_for_pause(base + 7, microseconds{8000}),
            microseconds{1000});
  EXPECT_EQ(ShmBackoff::sleep_for_pause(std::numeric_limits<unsigned>::max(),
                                        std::chrono::hours{1}),
            ShmBackoff::kSleepCap);
}

TEST(ShmBackoff, IdleWaitReachesTheCapAndEverySleepIsAnEighthOfTheWait) {
  ShmBackoff backoff;
  const auto t0 = std::chrono::steady_clock::now();
  microseconds last{0};
  unsigned sleeps = 0;
  while (std::chrono::steady_clock::now() - t0 < std::chrono::seconds{2}) {
    // The backoff starts its clock inside the first pause, after t0, so
    // its wait is never longer than this one (plus a little slack for the
    // clock reads between them).
    const auto waited = std::chrono::duration_cast<microseconds>(
        std::chrono::steady_clock::now() - t0 + microseconds{80});
    last = backoff.pause();
    if (last == microseconds{0}) continue;
    ++sleeps;
    EXPECT_LE(last, std::max(ShmBackoff::kSleepFloor,
                             waited / ShmBackoff::kWaitShare))
        << "sleep " << sleeps;
    if (last == ShmBackoff::kSleepCap) break;
  }
  EXPECT_EQ(last, ShmBackoff::kSleepCap)
      << "an idle wait must back off to the cap";
}

TEST(ShmBackoff, ResetRearmsTheHotSpinPhase) {
  // After a frame arrives the waiter resets; the next wait must start
  // from the spin phase again (the latency path), not from the sleep
  // phase.
  ShmBackoff backoff;
  while (backoff.pause() == microseconds{0}) {
  }
  backoff.reset();
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < ShmBackoff::kSpinPauses; ++i) {
    EXPECT_EQ(backoff.pause(), microseconds{0});
  }
  const auto spin_elapsed = std::chrono::steady_clock::now() - t0;
  // A re-armed spin phase is pure busy work: far under one sleep quantum.
  EXPECT_LT(spin_elapsed, milliseconds(40));
}

TEST(ShmBackoff, IdleWaitSleepsInsteadOfBurningTheCore) {
  // Drive one backoff through 100 ms of idle wait and compare thread CPU
  // time against wall time: an idle waiter must spend the overwhelming
  // majority of the wait descheduled. The regression this pins is any
  // return to pure spinning.
  ShmBackoff backoff;
  timespec cpu0{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu0);
  const auto w0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - w0 < milliseconds{100}) {
    backoff.pause();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - w0)
          .count();
  timespec cpu1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu1);
  const double cpu = static_cast<double>(cpu1.tv_sec - cpu0.tv_sec) +
                     1e-9 * static_cast<double>(cpu1.tv_nsec - cpu0.tv_nsec);
  EXPECT_LT(cpu, 0.5 * wall) << "cpu=" << cpu << "s wall=" << wall << "s";
}

}  // namespace
}  // namespace ayd::service
