// Persistent answer store (service/store.hpp): round trips, crash
// recovery (torn tail vs corrupt middle), header validation,
// export/import, the committed golden fixture, and the byte-identity
// guarantee across a service restart.

#include "ayd/service/store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ayd/service/canonical.hpp"
#include "ayd/service/server.hpp"

namespace ayd::service {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the system temp dir.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ayd_store_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string store_path() const {
    return (dir_ / AnswerStore::kFileName).string();
  }

  void put(AnswerStore& store, const std::string& key,
           const std::string& value) {
    store.put(key, fnv1a64(key), value);
  }

  /// Raw bytes of a file (for surgical corruption).
  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  static void spit(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kRecordPrefixBytes = 16;

/// Byte offset where record `i` of a store holding `kvs[0..i)` starts.
std::size_t record_offset(
    const std::vector<std::pair<std::string, std::string>>& kvs,
    std::size_t i) {
  std::size_t off = kHeaderBytes;
  for (std::size_t j = 0; j < i; ++j) {
    off += kRecordPrefixBytes + kvs[j].first.size() +
           kvs[j].second.size() + /*crc*/ 4;
  }
  return off;
}

TEST_F(StoreTest, RoundTripAndReopenPersists) {
  {
    AnswerStore store(store_path());
    EXPECT_EQ(store.entries(), 0u);
    EXPECT_EQ(store.get("missing"), std::nullopt);
    put(store, "alpha", "answer-1");
    put(store, "beta", R"({"overhead":0.25})");
    EXPECT_EQ(store.entries(), 2u);
    EXPECT_EQ(store.get("alpha"), "answer-1");
  }
  AnswerStore reopened(store_path());
  EXPECT_EQ(reopened.entries(), 2u);
  EXPECT_EQ(reopened.open_stats().records_scanned, 2u);
  EXPECT_EQ(reopened.open_stats().truncated_bytes, 0u);
  EXPECT_FALSE(reopened.open_stats().quarantined);
  EXPECT_EQ(reopened.get("beta"), R"({"overhead":0.25})");
  // Appending after a reopen lands where the good prefix ends.
  reopened.put("gamma", fnv1a64("gamma"), "answer-3");
  AnswerStore again(store_path());
  EXPECT_EQ(again.entries(), 3u);
}

TEST_F(StoreTest, PathInDirCreatesDirectories) {
  const std::string nested = (dir_ / "a" / "b").string();
  const std::string path = AnswerStore::path_in_dir(nested);
  EXPECT_TRUE(fs::exists(nested));
  EXPECT_EQ(fs::path(path).filename().string(), AnswerStore::kFileName);
}

TEST_F(StoreTest, PutRejectsMismatchedHash) {
  AnswerStore store(store_path());
  EXPECT_THROW(store.put("key", fnv1a64("key") ^ 1u, "value"), StoreError);
  EXPECT_EQ(store.entries(), 0u);
}

TEST_F(StoreTest, DuplicatePutIsSkippedAnswersAreDeterministic) {
  AnswerStore store(store_path());
  put(store, "k", "v");
  const std::uint64_t bytes = store.file_bytes();
  put(store, "k", "v");
  EXPECT_EQ(store.file_bytes(), bytes);
  EXPECT_EQ(store.entries(), 1u);
}

TEST_F(StoreTest, GetDetectsBitRotUnderTheOpenStore) {
  const std::vector<std::pair<std::string, std::string>> kvs = {
      {"alpha", "answer-1"}};
  AnswerStore store(store_path());
  put(store, "alpha", "answer-1");
  // Flip one value byte behind the store's back: the per-read CRC check
  // must refuse to serve the record.
  std::string bytes = slurp(store_path());
  bytes[record_offset(kvs, 0) + kRecordPrefixBytes + 5 + 3] ^= 0x01;
  spit(store_path(), bytes);
  EXPECT_THROW((void)store.get("alpha"), StoreError);
}

TEST_F(StoreTest, TornTailIsTruncatedOnOpen) {
  const std::vector<std::pair<std::string, std::string>> kvs = {
      {"alpha", "answer-1"}, {"beta", "answer-2"}, {"gamma", "answer-3"}};
  {
    AnswerStore store(store_path());
    for (const auto& [k, v] : kvs) put(store, k, v);
  }
  // Chop the file mid-way through the third record — exactly what a
  // crash (or full disk) during append leaves behind.
  const std::string bytes = slurp(store_path());
  const std::size_t cut = record_offset(kvs, 2) + kRecordPrefixBytes + 2;
  ASSERT_LT(cut, bytes.size());
  spit(store_path(), bytes.substr(0, cut));

  AnswerStore recovered(store_path());
  EXPECT_EQ(recovered.entries(), 2u);
  EXPECT_EQ(recovered.open_stats().truncated_bytes,
            cut - record_offset(kvs, 2));
  EXPECT_FALSE(recovered.open_stats().quarantined);
  EXPECT_EQ(recovered.get("alpha"), "answer-1");
  EXPECT_EQ(recovered.get("beta"), "answer-2");
  EXPECT_EQ(recovered.get("gamma"), std::nullopt);
  // The file itself was truncated back to the good prefix, and appends
  // continue from there.
  EXPECT_EQ(recovered.file_bytes(), record_offset(kvs, 2));
  recovered.put("gamma", fnv1a64("gamma"), "answer-3b");
  AnswerStore reopened(store_path());
  EXPECT_EQ(reopened.get("gamma"), "answer-3b");
  EXPECT_EQ(reopened.open_stats().truncated_bytes, 0u);
}

TEST_F(StoreTest, CrcFailingFinalRecordIsAlsoTorn) {
  const std::vector<std::pair<std::string, std::string>> kvs = {
      {"alpha", "answer-1"}, {"beta", "answer-2"}};
  {
    AnswerStore store(store_path());
    for (const auto& [k, v] : kvs) put(store, k, v);
  }
  // Damage the *last* record's value: with nothing after it, this is
  // indistinguishable from a partially flushed append -> truncate.
  std::string bytes = slurp(store_path());
  bytes[record_offset(kvs, 1) + kRecordPrefixBytes + 4 + 2] ^= 0x40;
  spit(store_path(), bytes);

  AnswerStore recovered(store_path());
  EXPECT_EQ(recovered.entries(), 1u);
  EXPECT_GT(recovered.open_stats().truncated_bytes, 0u);
  EXPECT_FALSE(recovered.open_stats().quarantined);
  EXPECT_EQ(recovered.get("alpha"), "answer-1");
}

TEST_F(StoreTest, CorruptMiddleRecordQuarantinesTheStore) {
  const std::vector<std::pair<std::string, std::string>> kvs = {
      {"alpha", "answer-1"}, {"beta", "answer-2"}, {"gamma", "answer-3"}};
  {
    AnswerStore store(store_path());
    for (const auto& [k, v] : kvs) put(store, k, v);
  }
  // Damage the middle record while valid records follow: not a crash
  // signature — the file is damaged and none of it can be trusted.
  std::string bytes = slurp(store_path());
  bytes[record_offset(kvs, 1) + kRecordPrefixBytes + 1] ^= 0x80;
  spit(store_path(), bytes);

  AnswerStore recovered(store_path());
  EXPECT_TRUE(recovered.open_stats().quarantined);
  EXPECT_EQ(recovered.entries(), 0u);
  EXPECT_TRUE(fs::exists(recovered.open_stats().quarantine_path));
  // The quarantined bytes are preserved for forensics; the fresh log is
  // immediately usable.
  EXPECT_EQ(slurp(recovered.open_stats().quarantine_path), bytes);
  recovered.put("delta", fnv1a64("delta"), "answer-4");
  EXPECT_EQ(recovered.get("delta"), "answer-4");
}

TEST_F(StoreTest, HeaderVersionMismatchIsRejectedWithPathAndReason) {
  { AnswerStore store(store_path()); }
  std::string bytes = slurp(store_path());
  bytes[8] = 99;  // u32 version, little-endian low byte
  spit(store_path(), bytes);
  try {
    AnswerStore store(store_path());
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.path(), store_path());
    EXPECT_NE(e.reason().find("version"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find(store_path()), std::string::npos);
  }
}

// A store persisted by a binary with an older canonical-key schema must
// be refused, not reinterpreted: v1 keys lack the system "ext" member,
// so a v1 record could alias a v2 answer. The committed v1 fixture is a
// real artifact of the version-1 code, not a patched header.
TEST_F(StoreTest, OldFormatPersistedStoreIsRefusedWithPathAndReason) {
  const std::string golden_v1 =
      std::string(AYD_TEST_DATA_DIR) + "/golden_v1.aydstore";
  ASSERT_TRUE(fs::exists(golden_v1))
      << "missing fixture " << golden_v1
      << " (a v1-era store; see tests/data/README.md)";
  const std::string copy = (dir_ / "golden_v1.aydstore").string();
  fs::copy_file(golden_v1, copy);
  try {
    AnswerStore store(copy);
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.path(), copy);
    EXPECT_NE(e.reason().find("version"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find(copy), std::string::npos);
  }
  // Refusal, not destruction: the old store is left byte-identical.
  EXPECT_EQ(slurp(copy), slurp(golden_v1));
}

TEST_F(StoreTest, HashSeedMismatchIsRejected) {
  { AnswerStore store(store_path()); }
  std::string bytes = slurp(store_path());
  bytes[16] ^= 0xFF;  // u64 hash_seed
  spit(store_path(), bytes);
  try {
    AnswerStore store(store_path());
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_NE(e.reason().find("seed"), std::string::npos) << e.what();
  }
}

TEST_F(StoreTest, ForeignFileIsRejectedNotQuarantined) {
  spit(store_path(), "{\"not\":\"a store\"}\n");
  EXPECT_THROW(AnswerStore store(store_path()), StoreError);
  // Refusal, not destruction: the foreign file is left untouched.
  EXPECT_EQ(slurp(store_path()), "{\"not\":\"a store\"}\n");
}

TEST_F(StoreTest, ExportImportRoundTrip) {
  const std::string artifact = (dir_ / "artifact.aydstore").string();
  {
    AnswerStore store(store_path());
    put(store, "alpha", "answer-1");
    put(store, "beta", "answer-2");
    store.export_to(artifact);
  }
  AnswerStore other((dir_ / "other.aydstore").string());
  put(other, "beta", "answer-2");
  const AnswerStore::ImportStats stats = other.import_from(artifact);
  EXPECT_EQ(stats.imported, 1u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(other.entries(), 2u);
  EXPECT_EQ(other.get("alpha"), "answer-1");
}

TEST_F(StoreTest, ImportRejectsIncompatibleHeaderAndImportsNothing) {
  const std::string artifact = (dir_ / "artifact.aydstore").string();
  {
    AnswerStore source((dir_ / "src.aydstore").string());
    put(source, "alpha", "answer-1");
    source.export_to(artifact);
  }
  std::string bytes = slurp(artifact);
  bytes[8] = static_cast<char>(AnswerStore::kFormatVersion + 1);
  spit(artifact, bytes);

  AnswerStore store(store_path());
  try {
    (void)store.import_from(artifact);
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.path(), artifact);
    EXPECT_NE(e.reason().find("version"), std::string::npos) << e.what();
  }
  EXPECT_EQ(store.entries(), 0u);
}

TEST_F(StoreTest, ExportIsCompactedToLiveRecordsOnly) {
  const std::string artifact = (dir_ / "artifact.aydstore").string();
  AnswerStore store(store_path());
  put(store, "alpha", "answer-1");
  // Superseded duplicates can only enter via import; fake one by
  // importing a store that disagrees -- imports skip live keys, so
  // instead exercise compaction via the dup-free invariant: export of
  // N live keys has exactly N records.
  put(store, "beta", "answer-2");
  store.export_to(artifact);
  AnswerStore exported(artifact);
  EXPECT_EQ(exported.open_stats().records_scanned, 2u);
  EXPECT_EQ(exported.entries(), 2u);
}

// The committed fixture pins the on-disk format: if serialization ever
// drifts (field widths, endianness, CRC polynomial, header layout), this
// fails even though write-then-read round trips still pass.
TEST_F(StoreTest, GoldenFixtureReadsBackExactly) {
  const std::string golden =
      std::string(AYD_TEST_DATA_DIR) + "/golden.aydstore";
  ASSERT_TRUE(fs::exists(golden))
      << "missing fixture " << golden
      << " (regenerate: see tests/data/README.md)";
  // Copy first: opening must not mutate a pristine committed file.
  const std::string copy = (dir_ / "golden.aydstore").string();
  fs::copy_file(golden, copy);
  AnswerStore store(copy);
  EXPECT_EQ(store.entries(), 3u);
  EXPECT_EQ(store.open_stats().records_scanned, 3u);
  EXPECT_EQ(store.open_stats().truncated_bytes, 0u);
  EXPECT_FALSE(store.open_stats().quarantined);
  EXPECT_EQ(store.get("golden-key-1"), "golden-answer-1");
  EXPECT_EQ(store.get("golden-key-2"), R"({"overhead":0.125,"procs":512})");
  EXPECT_EQ(store.get("unicode-\xC3\xA9"), "caf\xC3\xA9");
  // Opening the valid fixture must not have rewritten a single byte.
  EXPECT_EQ(slurp(copy), slurp(golden));
}

// The tentpole guarantee: an answer served from disk after a process
// restart is byte-identical to what a fresh computation produces.
TEST_F(StoreTest, PersistedServiceHitIsByteIdenticalToRecomputation) {
  const std::string req =
      R"({"op":"optimize","id":1,"platform":"hera","scenario":2,)"
      R"("procs":256})";
  ServiceOptions with_store;
  with_store.threads = 1;
  with_store.cache_dir = dir_.string();

  std::string first_reply;
  {
    PlanningService service(with_store);
    first_reply = service.handle_line(req);
    EXPECT_EQ(service.cache_stats().misses, 1u);
    EXPECT_EQ(service.cache_stats().disk_hits, 0u);
  }  // service gone -- only the store survives, like a process restart

  PlanningService restarted(with_store);
  const std::string disk_reply = restarted.handle_line(req);
  EXPECT_EQ(disk_reply, first_reply);
  EXPECT_EQ(restarted.cache_stats().disk_hits, 1u);
  EXPECT_EQ(restarted.cache_stats().misses, 0u);
  // Promoted into RAM: the next hit is a plain memory hit.
  EXPECT_EQ(restarted.handle_line(req), first_reply);
  EXPECT_EQ(restarted.cache_stats().hits, 1u);

  // And a service with no disk tier computes the same bytes from
  // scratch.
  ServiceOptions fresh;
  fresh.threads = 1;
  PlanningService computed(fresh);
  EXPECT_EQ(computed.handle_line(req), first_reply);
}

TEST_F(StoreTest, ServiceRefusesToStartOnIncompatibleStore) {
  { AnswerStore store(store_path()); }
  std::string bytes = slurp(store_path());
  bytes[8] = 42;
  spit(store_path(), bytes);
  ServiceOptions options;
  options.threads = 1;
  options.cache_dir = dir_.string();
  EXPECT_THROW(PlanningService service(options), StoreError);
}

}  // namespace
}  // namespace ayd::service
