// Workload `serve`: a fresh PlanningService (its answer store in a fresh
// directory) behind a ShmServer. Closed-loop ShmClient threads send
// requests drawn with a Zipf law (s = 1) from a seeded catalog of 256
// distinct `optimize --simulate` (Weibull), `simulate` and `plan` requests,
// plus a periodic `stats` op. The first occurrence of a key is a cold miss that
// computes and appends to the store; repeats are RAM hits. Threads: the
// service's workers plus the clients stay within nproc.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "ayd/cli/args.hpp"
#include "ayd/io/json.hpp"
#include "ayd/service/canonical.hpp"
#include "ayd/service/memo_cache.hpp"
#include "ayd/service/protocol.hpp"
#include "ayd/service/server.hpp"
#include "ayd/service/shm_transport.hpp"
#include "ayd/service/store.hpp"
#include "ayd/tool/commands.hpp"
#include "ayd/tool/optimize_json.hpp"
#include "bench.hpp"

namespace pb {
namespace {

using namespace ayd;
namespace fs = std::filesystem;

constexpr std::size_t kCatalog = 256;
constexpr std::size_t kStatsEvery = 64;   ///< every n-th request per client
constexpr std::size_t kShadowEvery = 8;   ///< traced: rebuild every n-th
/// Keys are released over the first kReleaseShare of a run, in rank
/// order, kInitialKeys at the start: new planning questions keep arriving,
/// so cold misses (and their store appends) interleave with warm hits for
/// most of the run instead of clustering at its start.
constexpr std::size_t kInitialKeys = 16;
constexpr double kReleaseShare = 0.8;

const char* const kStatsLine = R"({"op":"stats","id":0})";

struct Entry {
  std::string line;
  bool optimize = false;
};

/// Op type of Zipf rank r: rank r serves kRankPattern[r % 8] (o = optimize,
/// s = simulate, p = plan). Fixing the pattern keeps the op mix of the hot
/// keys — and of the cold ones, five in eight of them optimize — the same
/// for every seed.
constexpr char kRankPattern[] = "ososopoo";

/// The catalog has a fixed structure: every op type covers the platforms,
/// scenarios and Weibull shapes in the same mix for every seed. The seed
/// picks which entry of a type sits at which rank, and every simulation
/// seed, not how much work a key is.
std::vector<Entry> make_catalog(std::uint64_t seed) {
  rng::RngStream rng(seed, /*stream=*/0x5E7E);
  const char* platforms[] = {"hera", "atlas", "coastal", "coastal-ssd"};
  const char* shapes[] = {"0.5", "0.7", "1.4"};
  std::map<char, std::vector<std::size_t>> order;  // type -> permuted j
  for (std::size_t r = 0; r < kCatalog; ++r) {
    auto& js = order[kRankPattern[r % 8]];
    js.push_back(js.size());
  }
  for (auto& [type, js] : order) {
    for (std::size_t i = js.size(); i > 1; --i) {
      std::swap(js[i - 1], js[rng.next_index(i)]);
    }
  }
  std::map<char, std::size_t> next;
  std::vector<Entry> catalog;
  for (std::size_t r = 0; r < kCatalog; ++r) {
    const char type = kRankPattern[r % 8];
    const std::size_t j = order[type][next[type]++];
    const char* platform = platforms[j % 4];
    const std::size_t scenario = 1 + (j / 4) % 6;
    const char* shape = shapes[(j / 24) % 3];
    const auto sim_seed = rng.next_u64() >> 24;
    std::ostringstream os;
    Entry e;
    if (type == 'o') {
      e.optimize = true;
      os << R"({"op":"optimize","id":)" << r << R"(,"platform":")"
         << platform << R"(","scenario":)" << scenario << R"(,"procs":)"
         << (j < 80 ? 256 : 1024) << R"(,"failure-dist":"weibull:k=)"
         << shape << R"(","simulate":true,"runs":16,"patterns":64,)"
         << R"("ci-rel-tol":0.02,"max-reps":256,"seed":)" << sim_seed << "}";
    } else if (type == 's') {
      os << R"({"op":"simulate","id":)" << r << R"(,"platform":")"
         << platform << R"(","scenario":)" << scenario
         << R"(,"procs":512,"failure-dist":"weibull:k=)" << shape
         << R"(","runs":64,"patterns":128,"seed":)" << sim_seed << "}";
    } else {
      os << R"({"op":"plan","id":)" << r << R"(,"platform":")" << platform
         << R"(","scenario":)" << scenario << R"(,"work":)" << (j + 1) * 1e6
         << R"(,"name":"job)" << j << "\"}";
    }
    e.line = os.str();
    catalog.push_back(std::move(e));
  }
  return catalog;
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, unsigned threads)
      : seed_(seed),
        workers_(std::max(1u, threads / 2)),
        clients_(std::max(1u, threads - workers_)),
        catalog_(make_catalog(seed)),
        zipf_(kCatalog, 1.0) {}

  ~ServeWorkload() override {
    server_.reset();
    service_.reset();
    std::error_code ec;
    if (!dir_.empty()) fs::remove_all(dir_, ec);
  }

  OpClasses classes() const override {
    return {"one request/reply over the shm transport",
            "warm request (key seen before: RAM hit)",
            "cold request (first occurrence of its key)"};
  }

  std::string inputs_text() const override {
    std::ostringstream os;
    for (const Entry& e : catalog_) os << e.line << '\n';
    rng::RngStream rng(seed_, 1);
    for (int i = 0; i < 64; ++i) os << zipf_.draw(rng) << ' ';
    return os.str();
  }

  void setup() override {
    static std::atomic<int> instance{0};
    const std::string tag =
        std::to_string(::getpid()) + "-" + std::to_string(instance++);
    dir_ = output_dir() + "/serve-" + tag;
    std::error_code ec;
    fs::remove_all(dir_, ec);

    // Reference replies: the in-process handle_line recomputation every
    // reply must match byte for byte.
    {
      service::ServiceOptions ro;
      ro.threads = 1;
      service::PlanningService reference(ro);
      refs_.assign(catalog_.size(), "");
      std::vector<std::thread> ts;
      const unsigned n = workers_ + clients_;
      for (unsigned t = 0; t < n; ++t) {
        ts.emplace_back([&, t] {
          for (std::size_t i = t; i < catalog_.size(); i += n) {
            refs_[i] = reference.handle_line(catalog_[i].line);
          }
        });
      }
      for (auto& t : ts) t.join();
    }

    service::ServiceOptions so;
    so.threads = workers_;
    so.cache_dir = dir_ + "/store";
    service_ = std::make_unique<service::PlanningService>(so);
    shm_name_ = "perfbench-" + tag;
    server_ = std::make_unique<service::ShmServer>(shm_name_, *service_);
    seen_ = std::make_unique<std::atomic<bool>[]>(catalog_.size());
    for (std::size_t i = 0; i < catalog_.size(); ++i) seen_[i] = false;
    // Warm-up: spin the transport and the workers without touching keys.
    service::ShmClient client(shm_name_);
    for (int i = 0; i < 32; ++i) (void)client.call(kStatsLine);
  }

  LoopResult run(double seconds) override {
    const bool traced = Tracer::enabled();
    if (traced && !shadow_) make_shadow();
    struct PerClient {
      explicit PerClient(double seconds) : r(seconds) {}
      LoopResult r;
      std::vector<double> transport_self_s;
    };
    std::vector<PerClient> per(clients_, PerClient(seconds));
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> released{kInitialKeys};
    const double release_every =
        kReleaseShare * seconds / static_cast<double>(kCatalog - kInitialKeys);
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (unsigned c = 0; c < clients_; ++c) {
      threads.emplace_back([&, c] {
        PerClient& me = per[c];
        try {
          service::ShmClient client(shm_name_);
          rng::RngStream rng(seed_ ^ 0xC11E47ULL, round_ * 64 + c);
          for (std::size_t n = 0; !stop.load(std::memory_order_relaxed);
               ++n) {
            const bool stats = n % kStatsEvery == kStatsEvery - 1;
            // The next key, once due, goes out first; otherwise a Zipf
            // draw over the keys released so far.
            std::size_t key = 0;
            std::size_t have = released.load();
            const auto elapsed_keys =
                static_cast<std::size_t>(seconds_since(t0) / release_every);
            const auto due =
                std::min<std::size_t>(kCatalog, kInitialKeys + elapsed_keys);
            if (!stats && have < due &&
                released.compare_exchange_strong(have, have + 1)) {
              key = have;
            } else if (!stats) {
              do {
                key = zipf_.draw(rng);
              } while (key >= have);
            }
            const std::string& line = stats ? stats_line_ : catalog_[key].line;
            const bool cold = !stats && !seen_[key].exchange(true);
            const std::uint64_t rid =
                (round_ << 40) | (std::uint64_t{c} << 32) | n;
            const auto a = Clock::now();
            std::string reply;
            {
              Tracer::Scope s("transport.rtt", rid);
              reply = client.call(line);
            }
            const double dt = seconds_since(a);
            me.r.completed(seconds_since(t0));
            me.r.latency.add(dt);
            bool ok = true;
            if (stats) {
              ok = reply.rfind(R"({"id":0,"ok":true)", 0) == 0;
            } else {
              (cold ? me.r.cold : me.r.hot).add(dt);
              ok = reply == refs_[key];
            }
            if (traced && !stats && n % kShadowEvery == 0) {
              const auto h = Clock::now();
              std::string again;
              {
                Tracer::Scope s("service.handle", rid);
                again = shadow_->handle_line(line);
              }
              me.transport_self_s.push_back(dt - seconds_since(h));
              if (catalog_[key].optimize) {
                ok = ok && rebuilt_optimize(line, rid) == reply;
              }
              ok = ok && again == reply;
            }
            if (!ok) ++me.r.failed;
            if (seconds_since(t0) >= seconds) stop = true;
          }
        } catch (const std::exception& e) {
          std::cerr << "serve client: " << e.what() << "\n";
          ++me.r.failed;
          stop = true;
        }
      });
    }
    for (auto& t : threads) t.join();
    LoopResult r(seconds);
    r.wall_s = seconds_since(t0);
    for (const PerClient& p : per) {
      r.merge(p.r);
      transport_self_s_.insert(transport_self_s_.end(),
                               p.transport_self_s.begin(),
                               p.transport_self_s.end());
    }
    ++round_;
    return r;
  }

  void check(Checks& checks) override {
    // Single flight: each distinct key touched was computed exactly once.
    std::size_t touched = 0;
    for (std::size_t i = 0; i < catalog_.size(); ++i) touched += seen_[i];
    const service::CacheStats st = service_->cache_stats();
    checks.expect(st.misses + st.disk_hits == touched,
                  "serve computed a key more than once");
    checks.expect(service_->store() != nullptr &&
                      service_->store()->entries() == touched,
                  "serve store does not hold one record per cold key");
  }

  void layer_metrics(const SpanIndex& spans, Report& report) override {
    const auto us = [&](const char* span) {
      return spans.median_ns(span) * 1e-3;
    };
    const auto n = [&](const char* span) {
      return base_count(spans.count(span));
    };
    report.add("service.parse_us_p50", us("service.parse"), "us",
               n("service.parse"));
    report.add("service.resolve_us_p50", us("service.resolve"), "us",
               n("service.resolve"));
    report.add("service.key_us_p50", us("service.key"), "us",
               n("service.key"));
    report.add("service.cache_hit_us_p50", us("service.cache_hit"), "us",
               n("service.cache_hit"));
    report.add("service.reply_us_p50", us("service.reply"), "us",
               n("service.reply"));
    report.add("service.handle_us_p50", us("service.handle"), "us",
               n("service.handle"));
    report.add("service.compute_ms_p50",
               spans.median_ns("service.compute") * 1e-6, "ms",
               n("service.compute"));
    report.add("store.get_us_p50", us("store.get"), "us", n("store.get"));
    report.add("store.put_us_p50", us("store.put"), "us", n("store.put"));
    report.add("transport.rtt_us_p50", us("transport.rtt"), "us",
               n("transport.rtt"));
    const auto rtt = spans.duration_ns.find("transport.rtt");
    const Percentile p99 =
        percentile(rtt == spans.duration_ns.end() ? std::vector<double>{}
                                                  : rtt->second,
                   0.99);
    report.add("transport.rtt_us_p99", p99.value * 1e-3, "us",
               base_count(p99.count) + ", " + std::to_string(p99.beyond) +
                   " beyond");
    report.add("transport.self_us_p50", median(transport_self_s_) * 1e6,
               "us", "rtt - handle_line, " +
                         base_count(transport_self_s_.size()));

    const service::CacheStats st = service_->cache_stats();
    const double served = static_cast<double>(st.hits + st.coalesced);
    const double total = served + static_cast<double>(st.misses +
                                                      st.disk_hits);
    report.add("service.hit_ratio", total > 0 ? served / total : 0.0,
               "ratio", base_ratio(served, total));
    report.add("service.coalesced", static_cast<double>(st.coalesced),
               "count");
    report.add("service.evictions", static_cast<double>(st.evictions),
               "count");
    report.add("service.disk_hits", static_cast<double>(st.disk_hits),
               "count");
    report.add("store.file_bytes",
               static_cast<double>(service_->store()->file_bytes()), "bytes");
    const service::ShmServerStats ts = server_->stats();
    report.add("transport.requests", static_cast<double>(ts.requests),
               "count");
    report.add("transport.dropped_replies",
               static_cast<double>(ts.dropped_replies), "count");
    report.add("transport.reclaimed_clients",
               static_cast<double>(ts.reclaimed_clients), "count");
    report.add("transport.reclaimed_requests",
               static_cast<double>(ts.reclaimed_requests), "count");
  }

 private:
  void make_shadow() {
    service::ServiceOptions so;
    so.threads = 1;
    shadow_ = std::make_unique<service::PlanningService>(so);
    shadow_store_ = std::make_unique<service::AnswerStore>(
        service::AnswerStore::path_in_dir(dir_ + "/shadow"));
    shadow_cache_ = std::make_unique<service::MemoCache>(4096, 16, nullptr);
  }

  /// The service's optimize handling rebuilt from public calls: parse ->
  /// params_to_argv + system_from_args -> optimize_canonical_key -> cache
  /// (read-through store, compute, write-behind store) -> make_ok_reply.
  std::string rebuilt_optimize(const std::string& line, std::uint64_t rid) {
    Tracer::Scope root("service.handle_rebuilt", rid);
    service::Request req;
    {
      Tracer::Scope s("service.parse", rid);
      req = service::parse_request(line);
    }
    cli::ArgParser parser("ayd serve: optimize", "service op");
    std::optional<model::System> sys;
    tool::OptimizeRequest opt;
    {
      Tracer::Scope s("service.resolve", rid);
      tool::add_optimize_options(parser);
      parser.parse_args(service::params_to_argv(req.params));
      sys.emplace(tool::system_from_args(parser));
      opt = tool::optimize_request_from_args(parser);
    }
    service::CanonicalKey key;
    {
      Tracer::Scope s("service.key", rid);
      key = service::optimize_canonical_key(*sys, opt);
    }
    service::MemoCache::Lookup lookup;
    {
      Tracer::Scope s("service.cache_hit", rid);
      lookup = shadow_cache_->get_or_compute(key, [&] {
        {
          Tracer::Scope g("store.get", rid);
          if (auto stored = shadow_store_->get(key.text)) return *stored;
        }
        std::string out;
        {
          Tracer::Scope c("service.compute", rid);
          std::ostringstream os;
          io::JsonWriter w(os, /*pretty=*/false);
          tool::write_optimize_record(w, *sys, opt, /*pool=*/nullptr);
          out = os.str();
        }
        Tracer::Scope p("store.put", rid);
        shadow_store_->put(key.text, key.hash, out);
        return out;
      });
      if (!lookup.hit) s.rename("service.cache_miss");
    }
    Tracer::Scope s("service.reply", rid);
    return service::make_ok_reply(req.id, req.op, *lookup.value);
  }

  std::uint64_t seed_;
  unsigned workers_;
  unsigned clients_;
  std::vector<Entry> catalog_;
  Zipf zipf_;
  std::vector<std::string> refs_;
  std::string dir_;
  std::string shm_name_;
  std::unique_ptr<service::PlanningService> service_;
  std::unique_ptr<service::ShmServer> server_;
  std::unique_ptr<std::atomic<bool>[]> seen_;
  std::unique_ptr<service::PlanningService> shadow_;
  std::unique_ptr<service::AnswerStore> shadow_store_;
  std::unique_ptr<service::MemoCache> shadow_cache_;
  std::vector<double> transport_self_s_;
  std::uint64_t round_ = 0;
  const std::string stats_line_{kStatsLine};
};

}  // namespace

std::unique_ptr<Workload> make_serve(std::uint64_t seed, unsigned threads) {
  return std::make_unique<ServeWorkload>(seed, threads);
}

}  // namespace pb
