#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

#include "ayd/io/json.hpp"
#include "ayd/service/canonical.hpp"

namespace pb {

// ---- percentiles -------------------------------------------------------

Percentile percentile(std::vector<double> xs, double q) {
  Percentile p;
  p.count = xs.size();
  if (xs.empty() || !(q > 0.0 && q < 1.0)) return p;
  std::sort(xs.begin(), xs.end());
  // Nearest rank (1-based): the smallest rank whose share reaches q.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size()) - 1e-9));
  const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
  p.value = xs[idx];
  p.beyond = xs.size() - (idx + 1);
  p.ok = p.beyond >= kMinBeyond;
  return p;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

void Samples::add(double x) {
  ++seen_;
  if (kept_.size() < kCapacity) {
    kept_.push_back(x);
    return;
  }
  // Algorithm R: keep the n-th value with probability kCapacity / n.
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  const std::size_t slot = state_ % seen_;
  if (slot < kCapacity) kept_[slot] = x;
}

void Samples::merge(const Samples& other) {
  for (const double x : other.kept_) add(x);
  seen_ += other.seen_ - other.kept_.size();
}

// ---- Zipf --------------------------------------------------------------

Zipf::Zipf(std::size_t n, double s) : cumulative_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cumulative_[r] = total;
  }
  for (double& c : cumulative_) c /= total;
}

std::size_t Zipf::draw(ayd::rng::RngStream& rng) const {
  const double u = rng.next_uniform01();
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - cumulative_.begin()),
      cumulative_.size() - 1);
}

double Zipf::probability(std::size_t r) const {
  return cumulative_[r] - (r == 0 ? 0.0 : cumulative_[r - 1]);
}

// ---- tracing -----------------------------------------------------------

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
const Clock::time_point g_epoch = Clock::now();

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

struct ThreadState {
  std::vector<Span>* buffer = nullptr;
  std::uint64_t open = 0;  ///< innermost open span of this thread
};

thread_local ThreadState t_state;

std::vector<Span>& thread_buffer() {
  if (t_state.buffer == nullptr) {
    Registry& r = registry();
    const std::lock_guard lock(r.mu);
    r.buffers.push_back(std::make_unique<std::vector<Span>>());
    r.buffers.back()->reserve(1 << 14);
    t_state.buffer = r.buffers.back().get();
  }
  return *t_state.buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

}  // namespace

Tracer::Scope::Scope(const char* name, std::uint64_t request) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  active_ = true;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_state.open;
  span_.request = request;
  span_.name = name;
  saved_parent_ = t_state.open;
  t_state.open = span_.id;
  span_.start_ns = now_ns();
}

void Tracer::Scope::drop() {
  if (!active_) return;
  active_ = false;
  t_state.open = saved_parent_;
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_state.open = saved_parent_;
  thread_buffer().push_back(span_);
}

void Tracer::enable(bool on) { g_enabled.store(on); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> Tracer::collect() {
  Registry& r = registry();
  const std::lock_guard lock(r.mu);
  std::vector<Span> all;
  for (const auto& b : r.buffers) all.insert(all.end(), b->begin(), b->end());
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

void Tracer::clear() {
  Registry& r = registry();
  const std::lock_guard lock(r.mu);
  for (const auto& b : r.buffers) b->clear();
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    children[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = static_cast<double>(hi - lo - covered);
  }
  return self;
}

SpanIndex SpanIndex::build(const std::vector<Span>& spans) {
  SpanIndex idx;
  for (const Span& s : spans) {
    idx.duration_ns[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns));
  }
  return idx;
}

double SpanIndex::median_ns(const std::string& name) const {
  const auto it = duration_ns.find(name);
  return it == duration_ns.end() ? 0.0 : median(it->second);
}

double SpanIndex::total_ns(const std::string& name) const {
  const auto it = duration_ns.find(name);
  double total = 0.0;
  if (it != duration_ns.end()) {
    for (const double d : it->second) total += d;
  }
  return total;
}

std::size_t SpanIndex::count(const std::string& name) const {
  const auto it = duration_ns.find(name);
  return it == duration_ns.end() ? 0 : it->second.size();
}

bool write_ndjson(const std::string& path, const std::vector<Span>& spans) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::vector<double> self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << static_cast<std::int64_t>(self[i]) << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- results -----------------------------------------------------------

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 8) std::cerr << "check failed: " << what << "\n";
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& base) {
  metrics_[name] = Metric{value, unit, base};
}

std::string base_count(std::size_t n) { return "n=" + std::to_string(n); }

std::string base_ratio(double num, double den) {
  std::ostringstream os;
  os.precision(12);
  os << num << "/" << den;
  return os.str();
}

void LoopResult::completed(double elapsed) {
  ++ops;
  const auto w = static_cast<std::size_t>(elapsed / window_s);
  ++window_ops[std::min(w, kWindows - 1)];
}

void LoopResult::merge(const LoopResult& other) {
  ops += other.ops;
  failed += other.failed;
  for (std::size_t i = 0; i < kWindows; ++i) {
    window_ops[i] += other.window_ops[i];
  }
  latency.merge(other.latency);
  hot.merge(other.hot);
  cold.merge(other.cold);
}

std::vector<double> LoopResult::window_rates() const {
  std::vector<double> rates;
  for (std::size_t i = 0; i < kWindows; ++i) {
    const double width =
        i + 1 < kWindows
            ? window_s
            : std::max(window_s, wall_s - window_s * (kWindows - 1));
    rates.push_back(static_cast<double>(window_ops[i]) / width);
  }
  return rates;
}

// ---- workloads ---------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"optimize", "sweep", "serve",
                                              "watch"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        unsigned threads) {
  if (name == "optimize") return make_optimize(seed, threads);
  if (name == "sweep") return make_sweep(seed, threads);
  if (name == "serve") return make_serve(seed, threads);
  if (name == "watch") return make_watch(seed, threads);
  return nullptr;
}

std::string output_dir() { return ".bench_build/run"; }

std::string hex_digest(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    ayd::service::fnv1a64(text)));
  return buf;
}

}  // namespace pb
