// Persistent content-addressed answer store — the planning service's
// tier-2 cache (ROADMAP item 3).
//
// Every answer the service produces is a pure function of its canonical
// scenario key (canonical.hpp), so a stored reply never goes stale: the
// only correctness question a disk tier has to answer is "are these the
// exact bytes that were written?". The store is therefore built as an
// append-only record log whose every record is independently
// checksummed, with the index rebuilt by a full scan on open and kept in
// memory — no mutable on-disk index structure exists that a crash could
// corrupt.
//
// File layout (little-endian, `answers.aydstore` inside --cache-dir):
//
//   header   "AYDSTORE" | u32 version | u32 flags | u64 hash_seed
//   record*  u32 key_len | u32 value_len | u64 key_hash(FNV-1a of key)
//            | key bytes | value bytes | u32 crc32
//
// The CRC-32 (IEEE 802.3) covers the 16-byte record prefix plus the key
// and value bytes. `hash_seed` is the FNV-1a offset basis the writer
// keyed with; readers reject a store hashed under any other seed (or
// any other format version) instead of mixing records keyed by
// different functions.
//
// Recovery is robust by construction (pinned by
// tests/service_store_test.cpp):
//  * A *torn tail* — the crash-mid-append signature: the final record's
//    declared extent runs past EOF, or its CRC fails with nothing after
//    it — is silently truncated on open; everything before it is intact
//    by checksum and the store keeps appending where the good prefix
//    ends.
//  * A *corrupt middle record* (bad CRC with valid records after it)
//    cannot be explained by a crash; it means the file was damaged.
//    The store refuses to serve any of its bytes: the file is moved
//    aside to `<name>.quarantine` and a fresh, empty log is started.
//  * `get` re-reads and re-checksums the record on every hit, so bytes
//    corrupted after open are detected rather than served.
//  * Duplicate keys (e.g. from an import) resolve last-record-wins;
//    `export_to` writes a compacted copy with exactly one record per
//    live key.
//
// Concurrency: every public member takes one internal mutex — the store
// sits behind the sharded MemoCache (memo_cache.hpp), which only
// consults it on a shard miss, so the single lock is not a hot path.

#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "ayd/util/error.hpp"

namespace ayd::service {

/// A store file could not be opened, validated, or written. The message
/// always carries both the offending path and the reason, so CLI errors
/// and service error envelopes alike are actionable.
class StoreError : public util::IoError {
 public:
  StoreError(std::string path, std::string reason)
      : util::IoError("answer store " + path + ": " + reason),
        path_(std::move(path)),
        reason_(std::move(reason)) {}
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::string& reason() const { return reason_; }

 private:
  std::string path_;
  std::string reason_;
};

/// What the opening scan found (served by `ayd cache stats` and the
/// service's "stats" op).
struct StoreOpenStats {
  std::uint64_t records_scanned = 0;  ///< valid records read (incl. superseded)
  std::uint64_t truncated_bytes = 0;  ///< torn tail dropped on open
  bool quarantined = false;           ///< a corrupt middle record was found
  std::string quarantine_path;        ///< where the damaged file was moved
};

/// The append-only, content-hash-keyed record log (see the file header
/// comment for the format and recovery semantics). One instance owns
/// one store file; the in-memory index maps canonical key text to the
/// record's file extent.
class AnswerStore {
 public:
  /// v2: canonical keys gained the system "ext" member (correlated /
  /// multi-level failure worlds, model/correlated.hpp). The key schema
  /// is part of a record's identity, so older stores are refused rather
  /// than reinterpreted — see tests/service_store_test.cpp.
  static constexpr std::uint32_t kFormatVersion = 2;
  /// FNV-1a offset basis: the hash seed every record's key_hash is
  /// derived from. Stored in the header; a mismatch rejects the file.
  static constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ull;
  static constexpr const char* kFileName = "answers.aydstore";

  /// Opens (or creates) the store file at `path`, scanning and
  /// validating every record to rebuild the in-memory index. Throws
  /// StoreError when the file exists but is not a compatible store
  /// (bad magic, header version or hash-seed mismatch, unreadable).
  explicit AnswerStore(std::string path);

  AnswerStore(const AnswerStore&) = delete;
  AnswerStore& operator=(const AnswerStore&) = delete;

  /// `dir` + "/answers.aydstore", creating `dir` (and parents) first.
  /// Throws StoreError when the directory cannot be created.
  [[nodiscard]] static std::string path_in_dir(const std::string& dir);

  /// The stored answer for `key_text`, re-read and re-checksummed from
  /// disk. Returns nullopt on a miss; throws StoreError if the record's
  /// bytes no longer validate (never serves bad bytes).
  [[nodiscard]] std::optional<std::string> get(std::string_view key_text);

  /// Appends one record (write-behind tier: called after a computation
  /// completes) and flushes it. A key that is already live is skipped —
  /// answers are deterministic, so rewriting could only grow the log.
  /// `key_hash` must be fnv1a64(key_text); throws StoreError otherwise.
  void put(std::string_view key_text, std::uint64_t key_hash,
           std::string_view value);

  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::uint64_t file_bytes() const;
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const StoreOpenStats& open_stats() const {
    return open_stats_;
  }

  /// Visits every live (key, value) pair in deterministic (sorted-key)
  /// order, loading each value from disk.
  void for_each(
      const std::function<void(const std::string& key, const std::string&
                                                           value)>& fn);

  /// Writes a compacted copy — one record per live key, sorted — to
  /// `out_path` (the `ayd cache export` artifact).
  void export_to(const std::string& out_path);

  struct ImportStats {
    std::uint64_t imported = 0;  ///< new records appended
    std::uint64_t skipped = 0;   ///< keys already live here
  };

  /// Merges every live record of the store file at `other_path` into
  /// this store. The source must be a compatible store (same format
  /// version and hash seed) — otherwise StoreError, carrying the path
  /// and the reason, and *nothing* is imported. A torn tail in the
  /// source is tolerated (the good prefix imports); a corrupt middle
  /// record rejects the source file.
  ImportStats import_from(const std::string& other_path);

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;  ///< record start (the key_len field)
    std::uint32_t key_len = 0;
    std::uint32_t value_len = 0;
  };

  /// Reads + validates the record at `e` from the open file; the mutex
  /// must be held.
  [[nodiscard]] std::string read_value_locked(const IndexEntry& e);
  void append_locked(std::string_view key_text, std::uint64_t key_hash,
                     std::string_view value);
  void open_and_scan();

  mutable std::mutex mutex_;
  std::string path_;
  std::fstream file_;
  std::uint64_t file_bytes_ = 0;
  std::unordered_map<std::string, IndexEntry> index_;
  StoreOpenStats open_stats_;
};

}  // namespace ayd::service
