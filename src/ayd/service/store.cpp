#include "ayd/service/store.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "ayd/service/canonical.hpp"

namespace ayd::service {

namespace {

constexpr char kMagic[8] = {'A', 'Y', 'D', 'S', 'T', 'O', 'R', 'E'};
constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kRecordPrefixBytes = 16;
constexpr std::size_t kCrcBytes = 4;
/// Per-field sanity bound: a length beyond this is garbage, not data.
constexpr std::uint32_t kMaxFieldBytes = 1u << 30;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::uint32_t crc32(std::uint32_t crc, std::string_view bytes) {
  const auto& table = crc32_table();
  crc ^= 0xFFFFFFFFu;
  for (const char ch : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// Explicit little-endian packing so the on-disk format does not depend
// on host byte order.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint32_t get_u32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) |
        static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

std::uint64_t get_u64(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) |
        static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

std::string header_bytes() {
  std::string out(kMagic, sizeof kMagic);
  put_u32(out, AnswerStore::kFormatVersion);
  put_u32(out, 0);  // flags, reserved
  put_u64(out, AnswerStore::kHashSeed);
  return out;
}

/// One serialised record: prefix | key | value | crc.
std::string record_bytes(std::string_view key, std::uint64_t key_hash,
                         std::string_view value) {
  std::string out;
  out.reserve(kRecordPrefixBytes + key.size() + value.size() + kCrcBytes);
  put_u32(out, static_cast<std::uint32_t>(key.size()));
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  put_u64(out, key_hash);
  out.append(key);
  out.append(value);
  put_u32(out, crc32(0, out));
  return out;
}

/// Validates the 24-byte header; throws StoreError naming `path` and the
/// precise mismatch (truncated / bad magic / version / hash seed).
void validate_header(const std::string& path, std::string_view bytes) {
  if (bytes.size() < kHeaderBytes) {
    throw StoreError(path, "truncated header (" +
                               std::to_string(bytes.size()) +
                               " bytes; a store header is " +
                               std::to_string(kHeaderBytes) + ")");
  }
  if (bytes.substr(0, sizeof kMagic) !=
      std::string_view(kMagic, sizeof kMagic)) {
    throw StoreError(path, "bad magic (not an answer-store file)");
  }
  const std::uint32_t version = get_u32(bytes, 8);
  if (version != AnswerStore::kFormatVersion) {
    throw StoreError(
        path, "format version mismatch (file has v" +
                  std::to_string(version) + ", this build reads v" +
                  std::to_string(AnswerStore::kFormatVersion) + ")");
  }
  const std::uint64_t seed = get_u64(bytes, 16);
  if (seed != AnswerStore::kHashSeed) {
    throw StoreError(path,
                     "hash-seed mismatch (records were keyed under a "
                     "different hash function; refusing to mix)");
  }
}

struct ScannedRecord {
  std::uint64_t offset = 0;  ///< record start within the file
  std::uint32_t key_len = 0;
  std::uint32_t value_len = 0;
  std::string key;
};

struct ScanOutcome {
  std::vector<ScannedRecord> records;
  std::uint64_t good_end = 0;      ///< end of the last valid record
  bool corrupt_middle = false;     ///< bad record with valid data after it
  std::string corrupt_reason;
};

/// Walks the record log after the header. A record that runs past EOF or
/// fails its checksum *at the tail* is the crash-mid-append signature
/// (good_end stops before it); the same failure with bytes after it is
/// unexplainable by a crash and flags corrupt_middle.
ScanOutcome scan_records(std::string_view bytes) {
  ScanOutcome out;
  out.good_end = kHeaderBytes;
  std::size_t pos = kHeaderBytes;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kRecordPrefixBytes) break;  // torn prefix
    const std::uint32_t key_len = get_u32(bytes, pos);
    const std::uint32_t value_len = get_u32(bytes, pos + 4);
    const std::uint64_t key_hash = get_u64(bytes, pos + 8);
    if (key_len > kMaxFieldBytes || value_len > kMaxFieldBytes) {
      // Garbage lengths: treat like a failed checksum at this offset.
      out.corrupt_middle = true;
      out.corrupt_reason = "record at offset " + std::to_string(pos) +
                           " has implausible lengths";
      return out;
    }
    const std::uint64_t extent = kRecordPrefixBytes +
                                 std::uint64_t{key_len} + value_len +
                                 kCrcBytes;
    if (bytes.size() - pos < extent) break;  // torn tail
    const std::string_view body =
        bytes.substr(pos, static_cast<std::size_t>(extent) - kCrcBytes);
    const std::uint32_t stored_crc =
        get_u32(bytes, pos + static_cast<std::size_t>(extent) - kCrcBytes);
    const std::string_view key =
        bytes.substr(pos + kRecordPrefixBytes, key_len);
    if (crc32(0, body) != stored_crc || fnv1a64(key) != key_hash) {
      if (pos + extent >= bytes.size()) break;  // bad final record: torn
      out.corrupt_middle = true;
      out.corrupt_reason = "record at offset " + std::to_string(pos) +
                           " failed its checksum but valid data follows";
      return out;
    }
    ScannedRecord rec;
    rec.offset = pos;
    rec.key_len = key_len;
    rec.value_len = value_len;
    rec.key.assign(key);
    out.records.push_back(std::move(rec));
    pos += static_cast<std::size_t>(extent);
    out.good_end = pos;
  }
  return out;
}

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw StoreError(path, "cannot open for reading");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) throw StoreError(path, "read failed");
  return bytes;
}

}  // namespace

AnswerStore::AnswerStore(std::string path) : path_(std::move(path)) {
  open_and_scan();
}

std::string AnswerStore::path_in_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw StoreError(dir, "cannot create cache directory: " + ec.message());
  }
  return (std::filesystem::path(dir) / kFileName).string();
}

void AnswerStore::open_and_scan() {
  namespace fs = std::filesystem;
  if (!fs::exists(path_)) {
    std::ofstream create(path_, std::ios::binary);
    if (!create) throw StoreError(path_, "cannot create");
    create << header_bytes();
    create.flush();
    if (!create) throw StoreError(path_, "cannot write header");
  } else {
    std::string bytes = read_whole_file(path_);
    if (bytes.empty()) {
      // A zero-byte file (e.g. a crash immediately after create):
      // rewrite the header and start fresh.
      std::ofstream create(path_, std::ios::binary);
      create << header_bytes();
      create.flush();
      if (!create) throw StoreError(path_, "cannot write header");
    } else {
      validate_header(path_, bytes);
      ScanOutcome scan = scan_records(bytes);
      if (scan.corrupt_middle) {
        // Damage, not a crash: never serve any byte of this file. Move
        // it aside and start an empty log.
        const std::string quarantine = path_ + ".quarantine";
        std::error_code ec;
        fs::rename(path_, quarantine, ec);
        if (ec) {
          throw StoreError(path_, "corrupt record (" + scan.corrupt_reason +
                                      ") and quarantine rename failed: " +
                                      ec.message());
        }
        open_stats_.quarantined = true;
        open_stats_.quarantine_path = quarantine;
        std::ofstream create(path_, std::ios::binary);
        create << header_bytes();
        create.flush();
        if (!create) throw StoreError(path_, "cannot write header");
      } else {
        if (scan.good_end < bytes.size()) {
          // Torn tail: drop the partial record so the next append
          // starts a clean one.
          open_stats_.truncated_bytes = bytes.size() - scan.good_end;
          std::error_code ec;
          fs::resize_file(path_, scan.good_end, ec);
          if (ec) {
            throw StoreError(path_, "cannot truncate torn tail: " +
                                        ec.message());
          }
        }
        open_stats_.records_scanned = scan.records.size();
        for (ScannedRecord& rec : scan.records) {
          // Later records win (import/merge semantics).
          index_[std::move(rec.key)] =
              IndexEntry{rec.offset, rec.key_len, rec.value_len};
        }
      }
    }
  }
  file_.open(path_, std::ios::in | std::ios::out | std::ios::binary);
  if (!file_) throw StoreError(path_, "cannot open for read/write");
  file_.seekg(0, std::ios::end);
  file_bytes_ = static_cast<std::uint64_t>(file_.tellg());
}

std::string AnswerStore::read_value_locked(const IndexEntry& e) {
  const std::size_t extent = kRecordPrefixBytes + e.key_len + e.value_len +
                             kCrcBytes;
  std::string bytes(extent, '\0');
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(e.offset));
  file_.read(bytes.data(), static_cast<std::streamsize>(extent));
  if (file_.gcount() != static_cast<std::streamsize>(extent)) {
    throw StoreError(path_, "record at offset " + std::to_string(e.offset) +
                                " no longer readable");
  }
  const std::string_view view(bytes);
  const std::uint32_t stored_crc = get_u32(view, extent - kCrcBytes);
  if (crc32(0, view.substr(0, extent - kCrcBytes)) != stored_crc) {
    throw StoreError(path_, "record at offset " + std::to_string(e.offset) +
                                " failed its checksum on read");
  }
  return bytes.substr(kRecordPrefixBytes + e.key_len, e.value_len);
}

std::optional<std::string> AnswerStore::get(std::string_view key_text) {
  const std::lock_guard lock(mutex_);
  const auto it = index_.find(std::string(key_text));
  if (it == index_.end()) return std::nullopt;
  return read_value_locked(it->second);
}

void AnswerStore::append_locked(std::string_view key_text,
                                std::uint64_t key_hash,
                                std::string_view value) {
  const std::string rec = record_bytes(key_text, key_hash, value);
  file_.clear();
  file_.seekp(static_cast<std::streamoff>(file_bytes_));
  file_.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  file_.flush();
  if (!file_) throw StoreError(path_, "append failed");
  index_[std::string(key_text)] =
      IndexEntry{file_bytes_, static_cast<std::uint32_t>(key_text.size()),
                 static_cast<std::uint32_t>(value.size())};
  file_bytes_ += rec.size();
}

void AnswerStore::put(std::string_view key_text, std::uint64_t key_hash,
                      std::string_view value) {
  if (fnv1a64(key_text) != key_hash) {
    throw StoreError(path_, "put: key_hash is not fnv1a64(key)");
  }
  const std::lock_guard lock(mutex_);
  if (index_.count(std::string(key_text)) != 0) return;
  append_locked(key_text, key_hash, value);
}

std::size_t AnswerStore::entries() const {
  const std::lock_guard lock(mutex_);
  return index_.size();
}

std::uint64_t AnswerStore::file_bytes() const {
  const std::lock_guard lock(mutex_);
  return file_bytes_;
}

void AnswerStore::for_each(
    const std::function<void(const std::string&, const std::string&)>& fn) {
  const std::lock_guard lock(mutex_);
  std::vector<const std::string*> keys;
  keys.reserve(index_.size());
  for (const auto& [key, entry] : index_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* key : keys) {
    fn(*key, read_value_locked(index_.at(*key)));
  }
}

void AnswerStore::export_to(const std::string& out_path) {
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) throw StoreError(out_path, "cannot create export file");
  out << header_bytes();
  for_each([&](const std::string& key, const std::string& value) {
    out << record_bytes(key, fnv1a64(key), value);
  });
  out.flush();
  if (!out) throw StoreError(out_path, "export write failed");
}

AnswerStore::ImportStats AnswerStore::import_from(
    const std::string& other_path) {
  const std::string bytes = read_whole_file(other_path);
  validate_header(other_path, bytes);
  const ScanOutcome scan = scan_records(bytes);
  if (scan.corrupt_middle) {
    throw StoreError(other_path, scan.corrupt_reason);
  }
  // Last record wins within the source, mirroring open_and_scan.
  std::vector<const ScannedRecord*> live;
  {
    std::unordered_map<std::string_view, std::size_t> latest;
    for (std::size_t i = 0; i < scan.records.size(); ++i) {
      latest[scan.records[i].key] = i;
    }
    for (const auto& [key, i] : latest) live.push_back(&scan.records[i]);
    std::sort(live.begin(), live.end(),
              [](const ScannedRecord* a, const ScannedRecord* b) {
                return a->key < b->key;
              });
  }
  ImportStats stats;
  const std::lock_guard lock(mutex_);
  for (const ScannedRecord* rec : live) {
    if (index_.count(rec->key) != 0) {
      ++stats.skipped;
      continue;
    }
    const std::string_view value(
        bytes.data() + rec->offset + kRecordPrefixBytes + rec->key_len,
        rec->value_len);
    append_locked(rec->key, fnv1a64(rec->key), value);
    ++stats.imported;
  }
  return stats;
}

}  // namespace ayd::service
