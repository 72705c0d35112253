#include "ayd/service/shm_transport.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "ayd/service/server.hpp"

namespace ayd::service {

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kMagic[8] = {'A', 'Y', 'D', 'S', 'H', 'M', '0', '1'};
constexpr std::uint32_t kShmFormatVersion = 1;

/// How long an *unattributable* torn push (claimant pid never stamped)
/// may stall the request ring before it is forcibly retired.
constexpr auto kTornPushGrace = std::chrono::milliseconds(1000);
/// How long a reply push may retry against a full reply ring (a client
/// that stopped draining) before the reply is dropped.
constexpr auto kReplyPushDeadline = std::chrono::seconds(5);

/// The fixed shared front of the segment. Everything after it is
/// located by the offsets stored here, so a client validates one struct
/// and then trusts only arithmetic.
struct alignas(kShmCacheLine) SegmentHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t reserved;
  std::uint64_t total_bytes;
  std::uint32_t request_slots;
  std::uint32_t frame_bytes;
  std::uint32_t max_clients;
  std::uint32_t reply_slots;
  std::atomic<std::uint32_t> server_pid;  ///< 0 until init completes
  std::atomic<std::uint32_t> shutdown;    ///< raised before unlink
  std::uint64_t request_ring_offset;
  std::uint64_t client_table_offset;
  std::uint64_t client_stride;
};
static_assert(sizeof(SegmentHeader) == 2 * kShmCacheLine);

/// One client-table entry; the client's private reply ring follows at
/// kShmCacheLine into the same block.
struct alignas(kShmCacheLine) ClientSlot {
  std::atomic<std::uint32_t> pid;         ///< 0 = free
  std::atomic<std::uint32_t> generation;  ///< bumped on attach and reclaim
};
static_assert(sizeof(ClientSlot) == kShmCacheLine);

/// Prefix of every request frame (ahead of the NDJSON line): which
/// reply ring the answer belongs to, and for which attach generation.
struct RequestPrefix {
  std::uint32_t client;
  std::uint32_t generation;
};

std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

std::size_t round_up_pow2(std::size_t n, std::size_t min) {
  std::size_t p = min;
  while (p < n) p *= 2;
  return p;
}

/// Normalised geometry (power-of-two rings, floors applied).
ShmOptions normalize(ShmOptions o) {
  o.request_slots = round_up_pow2(o.request_slots, 8);
  o.reply_slots = round_up_pow2(o.reply_slots, 4);
  if (o.max_clients == 0) o.max_clients = 1;
  if (o.frame_bytes < 512) o.frame_bytes = 512;
  o.frame_bytes = align_up(o.frame_bytes, kShmCacheLine);
  return o;
}

struct Geometry {
  std::size_t request_ring_offset = 0;
  std::size_t client_table_offset = 0;
  std::size_t client_stride = 0;
  std::size_t total_bytes = 0;
};

Geometry layout(const ShmOptions& o) {
  Geometry g;
  std::size_t off = align_up(sizeof(SegmentHeader), kShmCacheLine);
  g.request_ring_offset = off;
  off += ShmRing::bytes_required(o.request_slots, o.frame_bytes);
  g.client_table_offset = off;
  g.client_stride = sizeof(ClientSlot) +
                    ShmRing::bytes_required(o.reply_slots, o.frame_bytes);
  off += o.max_clients * g.client_stride;
  g.total_bytes = off;
  return g;
}

/// POSIX shm object name ("/ayd_<name>"); the visible path on Linux is
/// /dev/shm/ayd_<name>. Names are restricted so they cannot escape the
/// shm namespace or collide with other conventions.
std::string object_name(const std::string& name) {
  if (name.empty()) {
    throw util::InvalidArgument("shm segment name must not be empty");
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) {
      throw util::InvalidArgument(
          "shm segment name '" + name +
          "' may only contain letters, digits, '.', '_' and '-'");
    }
  }
  return "/ayd_" + name;
}

bool pid_alive(std::uint32_t pid) {
  if (pid == 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

/// Rewrites an oversize reply into an error envelope that fits a frame,
/// preserving the id prefix (replies always start {"id":<id>,"ok":...)
/// so the client can still correlate the failure.
std::string oversize_reply_envelope(const std::string& reply,
                                    std::size_t frame_bytes) {
  std::string id = "null";
  const std::size_t ok_pos = reply.find(",\"ok\":");
  if (reply.rfind("{\"id\":", 0) == 0 && ok_pos != std::string::npos) {
    id = reply.substr(6, ok_pos - 6);
  }
  return "{\"id\":" + id +
         ",\"ok\":false,\"error\":{\"code\":\"internal\",\"message\":"
         "\"reply of " +
         std::to_string(reply.size()) +
         " bytes exceeds the shm frame capacity of " +
         std::to_string(frame_bytes) +
         " bytes; use the pipe transport or a larger segment\"}}";
}

/// A mapped segment with its derived views (shared by server and
/// client Impls).
struct Mapping {
  int fd = -1;
  void* base = nullptr;
  std::size_t size = 0;
  SegmentHeader* header = nullptr;

  char* at(std::size_t offset) const {
    return static_cast<char*>(base) + offset;
  }
  void unmap() {
    if (base != nullptr) ::munmap(base, size);
    if (fd >= 0) ::close(fd);
    base = nullptr;
    fd = -1;
  }
};

/// Maps an existing segment and validates its header; throws ShmError
/// with path + reason on any incompatibility.
Mapping map_existing(const std::string& oname, const std::string& path) {
  Mapping m;
  m.fd = ::shm_open(oname.c_str(), O_RDWR, 0);
  if (m.fd < 0) {
    throw ShmError(path, errno == ENOENT
                             ? "no such segment (is the server running?)"
                             : std::string("shm_open failed: ") +
                                   std::strerror(errno));
  }
  struct ::stat st {};
  if (::fstat(m.fd, &st) != 0 ||
      static_cast<std::size_t>(st.st_size) < sizeof(SegmentHeader)) {
    ::close(m.fd);
    throw ShmError(path, "segment smaller than an ayd header (not an ayd "
                         "shm segment, or its creator died before "
                         "initialising it)");
  }
  m.size = static_cast<std::size_t>(st.st_size);
  m.base = ::mmap(nullptr, m.size, PROT_READ | PROT_WRITE, MAP_SHARED,
                  m.fd, 0);
  if (m.base == MAP_FAILED) {
    ::close(m.fd);
    throw ShmError(path, std::string("mmap failed: ") +
                             std::strerror(errno));
  }
  m.header = static_cast<SegmentHeader*>(m.base);
  if (std::memcmp(m.header->magic, kMagic, sizeof(kMagic)) != 0) {
    m.unmap();
    throw ShmError(path, "bad magic — not an ayd shm segment");
  }
  if (m.header->version != kShmFormatVersion) {
    const std::string reason =
        "segment format version " + std::to_string(m.header->version) +
        ", but this build speaks version " +
        std::to_string(kShmFormatVersion) +
        " (restart the fleet on one build)";
    m.unmap();
    throw ShmError(path, reason);
  }
  if (m.header->total_bytes != m.size) {
    const std::string reason =
        "header claims " + std::to_string(m.header->total_bytes) +
        " bytes but the segment is " + std::to_string(m.size) +
        " (truncated or corrupt)";
    m.unmap();
    throw ShmError(path, reason);
  }
  return m;
}

}  // namespace

void ShmBackoff::pause() {
  const unsigned index = pauses_;
  if (pauses_ != std::numeric_limits<unsigned>::max()) ++pauses_;
  if (index < kSpinPauses) return;  // busy-spin: keep the warm path hot
  if (index < kYieldPauses) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(sleep_for_pause(index));
}

std::string ShmServer::segment_path(const std::string& name) {
  return "/dev/shm/ayd_" + name;
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

struct ShmServer::Impl {
  /// Per-client server-side state: the shared slot + reply ring views
  /// and the process-local mutex that serialises reply delivery against
  /// slot reclamation (reply rings are reset only under this mutex).
  struct ClientView {
    ClientSlot* slot = nullptr;
    ShmRing reply_ring;
    std::mutex deliver_mutex;
  };

  std::string oname;  ///< POSIX object name ("/ayd_<name>")
  std::string path;   ///< diagnostic path (/dev/shm/ayd_<name>)
  ShmOptions options;
  Mapping map;
  ShmRing request_ring;
  std::vector<std::unique_ptr<ClientView>> clients;
  std::size_t max_inflight = 64;

  std::atomic<bool> stop_flag{false};
  std::atomic<std::uint64_t> inflight{0};
  bool stopped = false;

  // stats
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> reclaimed_clients{0};
  std::atomic<std::uint64_t> reclaimed_requests{0};
  std::atomic<std::uint64_t> dropped_replies{0};
  bool recovered_stale = false;

  // grace tracking of an unattributable torn push
  bool stalled_seen = false;
  std::uint64_t stalled_pos = 0;
  Clock::time_point stalled_since{};
};

ShmServer::ShmServer(const std::string& name, PlanningService& service,
                     const ShmOptions& options)
    : name_(name), service_(service), impl_(std::make_unique<Impl>()) {
  impl_->oname = object_name(name);
  impl_->path = segment_path(name);
  impl_->options = normalize(options);
  const Geometry geo = layout(impl_->options);

  int fd = ::shm_open(impl_->oname.c_str(), O_RDWR | O_CREAT | O_EXCL,
                      0600);
  if (fd < 0 && errno == EEXIST) {
    // A segment of this name exists. Refuse anything we cannot prove
    // stale; recover (unlink + recreate) a compatible segment whose
    // serving pid is gone — the killed-server signature.
    Mapping existing = map_existing(impl_->oname, impl_->path);
    const std::uint32_t pid =
        existing.header->server_pid.load(std::memory_order_acquire);
    if (pid_alive(pid)) {
      existing.unmap();
      throw ShmError(impl_->path,
                     "already served by live pid " + std::to_string(pid) +
                         " (refusing to double-serve)");
    }
    existing.unmap();
    ::shm_unlink(impl_->oname.c_str());
    impl_->recovered_stale = true;
    fd = ::shm_open(impl_->oname.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  }
  if (fd < 0) {
    throw ShmError(impl_->path, std::string("shm_open failed: ") +
                                    std::strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(geo.total_bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    ::shm_unlink(impl_->oname.c_str());
    throw ShmError(impl_->path, std::string("ftruncate failed: ") +
                                    std::strerror(err));
  }
  void* base = ::mmap(nullptr, geo.total_bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const int err = errno;
    ::close(fd);
    ::shm_unlink(impl_->oname.c_str());
    throw ShmError(impl_->path, std::string("mmap failed: ") +
                                    std::strerror(err));
  }
  impl_->map.fd = fd;
  impl_->map.base = base;
  impl_->map.size = geo.total_bytes;
  impl_->map.header = new (base) SegmentHeader;

  SegmentHeader* h = impl_->map.header;
  std::memcpy(h->magic, kMagic, sizeof(kMagic));
  h->version = kShmFormatVersion;
  h->reserved = 0;
  h->total_bytes = geo.total_bytes;
  h->request_slots = static_cast<std::uint32_t>(impl_->options.request_slots);
  h->frame_bytes = static_cast<std::uint32_t>(impl_->options.frame_bytes);
  h->max_clients = static_cast<std::uint32_t>(impl_->options.max_clients);
  h->reply_slots = static_cast<std::uint32_t>(impl_->options.reply_slots);
  h->server_pid.store(0, std::memory_order_relaxed);
  h->shutdown.store(0, std::memory_order_relaxed);
  h->request_ring_offset = geo.request_ring_offset;
  h->client_table_offset = geo.client_table_offset;
  h->client_stride = geo.client_stride;

  impl_->request_ring =
      ShmRing::init(impl_->map.at(geo.request_ring_offset),
                    impl_->options.request_slots, impl_->options.frame_bytes);
  impl_->clients.reserve(impl_->options.max_clients);
  for (std::size_t i = 0; i < impl_->options.max_clients; ++i) {
    auto view = std::make_unique<Impl::ClientView>();
    char* block = impl_->map.at(geo.client_table_offset +
                                i * geo.client_stride);
    auto* slot = new (block) ClientSlot;
    slot->pid.store(0, std::memory_order_relaxed);
    slot->generation.store(0, std::memory_order_relaxed);
    view->slot = slot;
    view->reply_ring =
        ShmRing::init(block + sizeof(ClientSlot),
                      impl_->options.reply_slots, impl_->options.frame_bytes);
    impl_->clients.push_back(std::move(view));
  }
  impl_->max_inflight = std::max<std::size_t>(64, 4 * service_.workers());

  // Publishing the pid is the "segment is ready" signal clients wait
  // for; everything above must be visible first.
  h->server_pid.store(static_cast<std::uint32_t>(::getpid()),
                      std::memory_order_release);

  thread_ = std::thread([this] { transport_loop(); });
  service_.attach_transport(this);
}

ShmServer::~ShmServer() { stop(); }

void ShmServer::stop() {
  if (impl_->stopped) return;
  impl_->stop_flag.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  service_.detach_transport(this);
  // The transport loop drained in-flight requests before exiting, so no
  // worker can touch the mapping past this point.
  impl_->map.header->shutdown.store(1, std::memory_order_release);
  impl_->map.header->server_pid.store(0, std::memory_order_release);
  impl_->map.unmap();
  ::shm_unlink(impl_->oname.c_str());
  impl_->stopped = true;
}

ShmServerStats ShmServer::stats() const {
  ShmServerStats s;
  s.recovered_stale = impl_->recovered_stale;
  s.requests = impl_->requests.load(std::memory_order_relaxed);
  s.reclaimed_clients =
      impl_->reclaimed_clients.load(std::memory_order_relaxed);
  s.reclaimed_requests =
      impl_->reclaimed_requests.load(std::memory_order_relaxed);
  s.dropped_replies = impl_->dropped_replies.load(std::memory_order_relaxed);
  return s;
}

void ShmServer::transport_loop() {
  std::string frame;
  ShmBackoff backoff;
  auto last_housekeeping = Clock::now();
  while (!impl_->stop_flag.load(std::memory_order_acquire)) {
    bool progressed = false;
    while (impl_->inflight.load(std::memory_order_relaxed) <
           impl_->max_inflight) {
      const ShmRing::Pop r = impl_->request_ring.try_pop(frame);
      if (r == ShmRing::Pop::kEmpty) break;
      progressed = true;
      if (r == ShmRing::Pop::kFrame) dispatch(std::move(frame));
      frame.clear();
    }
    const auto now = Clock::now();
    if (now - last_housekeeping > std::chrono::milliseconds(5)) {
      reap_dead_clients();
      reclaim_torn_request();
      last_housekeeping = now;
    }
    if (progressed) {
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
  // Drain: every dispatched request must deliver (or drop) its reply
  // before the destructor unmaps the segment.
  while (impl_->inflight.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void ShmServer::dispatch(std::string frame) {
  if (frame.size() < sizeof(RequestPrefix)) return;  // torn frame: drop
  RequestPrefix prefix{};
  std::memcpy(&prefix, frame.data(), sizeof(prefix));
  if (prefix.client >= impl_->clients.size()) return;
  std::string line = frame.substr(sizeof(prefix));
  impl_->requests.fetch_add(1, std::memory_order_relaxed);
  impl_->inflight.fetch_add(1, std::memory_order_acq_rel);
  service_.handle_async(
      std::move(line),
      [this, client = prefix.client,
       generation = prefix.generation](std::string reply) {
        deliver(client, generation, reply);
        impl_->inflight.fetch_sub(1, std::memory_order_acq_rel);
      });
}

void ShmServer::deliver(std::uint32_t client, std::uint32_t generation,
                        const std::string& reply) {
  Impl::ClientView& view = *impl_->clients[client];
  const std::lock_guard lock(view.deliver_mutex);
  const auto stale = [&] {
    return view.slot->pid.load(std::memory_order_acquire) == 0 ||
           view.slot->generation.load(std::memory_order_acquire) !=
               generation;
  };
  if (stale()) {
    impl_->dropped_replies.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::string* payload = &reply;
  std::string fallback;
  if (reply.size() > impl_->options.frame_bytes) {
    fallback = oversize_reply_envelope(reply, impl_->options.frame_bytes);
    payload = &fallback;
  }
  const auto deadline = Clock::now() + kReplyPushDeadline;
  const auto pid = static_cast<std::uint32_t>(::getpid());
  ShmBackoff backoff;
  while (!view.reply_ring.try_push({}, *payload, pid)) {
    // A full reply ring means the client stopped draining; give it the
    // deadline, but bail immediately if it died or detached (its slot
    // cannot be reclaimed while we hold the deliver mutex).
    if (stale() ||
        !pid_alive(view.slot->pid.load(std::memory_order_acquire)) ||
        Clock::now() > deadline) {
      impl_->dropped_replies.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    backoff.pause();
  }
}

void ShmServer::reap_dead_clients() {
  for (auto& view_ptr : impl_->clients) {
    Impl::ClientView& view = *view_ptr;
    const std::uint32_t pid =
        view.slot->pid.load(std::memory_order_acquire);
    if (pid == 0 || pid_alive(pid)) continue;
    const std::lock_guard lock(view.deliver_mutex);
    if (view.slot->pid.load(std::memory_order_acquire) != pid) continue;
    // Invalidate the generation first: any in-flight delivery for the
    // dead client now fails its generation check (under this mutex)
    // instead of landing in a ring we are about to reset — or worse, in
    // a future client's ring.
    view.slot->generation.fetch_add(1, std::memory_order_acq_rel);
    view.reply_ring.reset();
    view.slot->pid.store(0, std::memory_order_release);
    impl_->reclaimed_clients.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShmServer::reclaim_torn_request() {
  const auto stalled = impl_->request_ring.stalled_claim();
  if (!stalled.has_value()) {
    impl_->stalled_seen = false;
    return;
  }
  if (!impl_->stalled_seen || impl_->stalled_pos != stalled->position) {
    impl_->stalled_seen = true;
    impl_->stalled_pos = stalled->position;
    impl_->stalled_since = Clock::now();
  }
  if (stalled->claimant != 0) {
    // Attributed: retire as soon as the claimant is dead; a live
    // claimant is a slow producer mid-copy — never force it.
    if (pid_alive(stalled->claimant)) return;
  } else if (Clock::now() - impl_->stalled_since < kTornPushGrace) {
    // Unattributable (death inside the claim/stamp window, a couple of
    // instructions wide): give a live-but-unlucky producer the grace
    // period before forcing.
    return;
  }
  if (impl_->request_ring.tombstone_stalled(stalled->position)) {
    impl_->reclaimed_requests.fetch_add(1, std::memory_order_relaxed);
  }
  impl_->stalled_seen = false;
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

struct ShmClient::Impl {
  std::string path;
  Mapping map;
  ShmRing request_ring;
  ShmRing reply_ring;
  ClientSlot* slot = nullptr;
  std::uint32_t index = 0;
  std::uint32_t generation = 0;
};

ShmClient::ShmClient(const std::string& name)
    : impl_(std::make_unique<Impl>()) {
  const std::string oname = object_name(name);
  impl_->path = ShmServer::segment_path(name);
  impl_->map = map_existing(oname, impl_->path);
  SegmentHeader* h = impl_->map.header;
  const std::uint32_t server =
      h->server_pid.load(std::memory_order_acquire);
  if (h->shutdown.load(std::memory_order_acquire) != 0) {
    impl_->map.unmap();
    throw ShmError(impl_->path, "server has shut down");
  }
  if (server == 0) {
    impl_->map.unmap();
    throw ShmError(impl_->path,
                   "segment exists but no server pid is published "
                   "(server still initialising, or died mid-create)");
  }
  if (!pid_alive(server)) {
    impl_->map.unmap();
    throw ShmError(impl_->path,
                   "stale segment: serving pid " + std::to_string(server) +
                       " is gone (a restarted server will recover it)");
  }
  // Claim a client-table slot.
  const auto my_pid = static_cast<std::uint32_t>(::getpid());
  ClientSlot* claimed = nullptr;
  for (std::uint32_t i = 0; i < h->max_clients; ++i) {
    auto* slot = reinterpret_cast<ClientSlot*>(
        impl_->map.at(h->client_table_offset + i * h->client_stride));
    std::uint32_t expected = 0;
    if (slot->pid.compare_exchange_strong(expected, my_pid,
                                          std::memory_order_acq_rel)) {
      claimed = slot;
      impl_->index = i;
      break;
    }
  }
  if (claimed == nullptr) {
    const std::uint32_t n = h->max_clients;
    impl_->map.unmap();
    throw ShmError(impl_->path, "all " + std::to_string(n) +
                                    " client slots are in use");
  }
  impl_->slot = claimed;
  impl_->generation =
      claimed->generation.fetch_add(1, std::memory_order_acq_rel) + 1;
  impl_->request_ring = ShmRing::view(impl_->map.at(h->request_ring_offset));
  impl_->reply_ring = ShmRing::view(
      impl_->map.at(h->client_table_offset +
                    impl_->index * h->client_stride + sizeof(ClientSlot)));
}

ShmClient::~ShmClient() {
  if (impl_->slot != nullptr) {
    impl_->slot->pid.store(0, std::memory_order_release);
  }
  impl_->map.unmap();
}

std::size_t ShmClient::frame_bytes() const {
  return impl_->map.header->frame_bytes -
         sizeof(RequestPrefix);  // usable request payload
}

std::string ShmClient::call(const std::string& line,
                            std::uint64_t timeout_ms) {
  SegmentHeader* h = impl_->map.header;
  if (sizeof(RequestPrefix) + line.size() > h->frame_bytes) {
    throw util::InvalidArgument(
        "request of " + std::to_string(line.size()) +
        " bytes exceeds the segment's frame capacity of " +
        std::to_string(h->frame_bytes - sizeof(RequestPrefix)) +
        " bytes (resize with --shm-frame-bytes or use the pipe "
        "transport)");
  }
  const RequestPrefix prefix{impl_->index, impl_->generation};
  char prefix_bytes[sizeof(RequestPrefix)];
  std::memcpy(prefix_bytes, &prefix, sizeof(prefix));
  const auto my_pid = static_cast<std::uint32_t>(::getpid());
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);

  const auto server_gone = [&] {
    if (h->shutdown.load(std::memory_order_acquire) != 0) {
      return std::string("server shut down");
    }
    const std::uint32_t pid = h->server_pid.load(std::memory_order_acquire);
    if (!pid_alive(pid)) {
      return "serving pid " + std::to_string(pid) + " is gone";
    }
    return std::string();
  };

  ShmBackoff backoff;
  auto last_liveness = Clock::now();
  while (!impl_->request_ring.try_push(
      std::string_view(prefix_bytes, sizeof(prefix_bytes)), line, my_pid)) {
    const std::string gone = server_gone();
    if (!gone.empty()) throw ShmError(impl_->path, gone);
    if (Clock::now() > deadline) {
      throw ShmError(impl_->path,
                     "request ring full for " + std::to_string(timeout_ms) +
                         " ms (server overloaded or wedged)");
    }
    backoff.pause();
  }

  std::string reply;
  backoff.reset();
  for (;;) {
    const ShmRing::Pop r = impl_->reply_ring.try_pop(reply);
    if (r == ShmRing::Pop::kFrame) return reply;
    if (r == ShmRing::Pop::kTombstone) continue;
    // The liveness syscall is rate-limited so a hot warm-hit round trip
    // stays syscall-free.
    const auto now = Clock::now();
    if (now - last_liveness > std::chrono::milliseconds(50)) {
      last_liveness = now;
      const std::string gone = server_gone();
      if (!gone.empty()) {
        throw ShmError(impl_->path, gone + " before replying");
      }
    }
    if (now > deadline) {
      throw ShmError(impl_->path, "no reply within " +
                                      std::to_string(timeout_ms) + " ms");
    }
    backoff.pause();
  }
}

}  // namespace ayd::service
