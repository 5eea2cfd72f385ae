// Manifest format tests: round-trip fidelity, crash-atomic commit
// mechanics (tmp file + rename), and rejection of every corruption mode —
// a manifest that doesn't validate byte-for-byte must never load.
#include "core/manifest.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace bandana {
namespace {

std::string tmp_path(const std::string& name) {
  return "/tmp/bandana_manifest_test_" + std::to_string(::getpid()) + "_" +
         name;
}

Manifest sample_manifest() {
  Manifest m;
  m.commit_seq = 7;
  m.trickle_epoch = 3;
  m.block_bytes = 4096;
  m.vector_bytes = 128;
  m.vectors_per_block = 32;
  m.storage_blocks = 300;
  m.next_block = 260;
  m.block_file = "/tmp/blocks.bin";

  ManifestTable t0;
  t0.first_block = 0;
  t0.order = {3, 1, 0, 2, 4, 5};
  t0.block_map = {17, 4};
  t0.access_counts = {9, 0, 4, 2, 2, 1};
  t0.policy.cache_vectors = 2;
  t0.policy.policy = PrefetchPolicy::kShadowPosition;
  t0.policy.access_threshold = 5;
  t0.policy.insertion_position = 0.25;
  t0.policy.shadow_multiplier = 2.0;
  t0.free_blocks = {128, 131};
  m.tables.push_back(t0);

  ManifestTable t1;
  t1.first_block = 2;
  t1.order = {0, 1, 2, 3};
  t1.block_map = {2, 3};
  t1.policy.cache_vectors = 1;
  t1.policy.policy = PrefetchPolicy::kNone;
  t1.retired = true;  // a tombstone that still carries its final mapping
  m.tables.push_back(t1);

  m.free_pool = {40, 7, 255};
  m.reservations = {{100, 101, 102}, {}, {259}};
  return m;
}

void expect_equal(const Manifest& a, const Manifest& b) {
  EXPECT_EQ(a.commit_seq, b.commit_seq);
  EXPECT_EQ(a.trickle_epoch, b.trickle_epoch);
  EXPECT_EQ(a.block_bytes, b.block_bytes);
  EXPECT_EQ(a.vector_bytes, b.vector_bytes);
  EXPECT_EQ(a.vectors_per_block, b.vectors_per_block);
  EXPECT_EQ(a.storage_blocks, b.storage_blocks);
  EXPECT_EQ(a.next_block, b.next_block);
  EXPECT_EQ(a.block_file, b.block_file);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (std::size_t i = 0; i < a.tables.size(); ++i) {
    const ManifestTable& x = a.tables[i];
    const ManifestTable& y = b.tables[i];
    EXPECT_EQ(x.first_block, y.first_block);
    EXPECT_EQ(x.order, y.order);
    EXPECT_EQ(x.block_map, y.block_map);
    EXPECT_EQ(x.access_counts, y.access_counts);
    EXPECT_EQ(x.free_blocks, y.free_blocks);
    EXPECT_EQ(x.retired, y.retired);
    EXPECT_EQ(x.policy.cache_vectors, y.policy.cache_vectors);
    EXPECT_EQ(x.policy.policy, y.policy.policy);
    EXPECT_EQ(x.policy.access_threshold, y.policy.access_threshold);
    EXPECT_DOUBLE_EQ(x.policy.insertion_position, y.policy.insertion_position);
    EXPECT_DOUBLE_EQ(x.policy.shadow_multiplier, y.policy.shadow_multiplier);
  }
  EXPECT_EQ(a.free_pool, b.free_pool);
  EXPECT_EQ(a.reservations, b.reservations);
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ManifestTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_ = tmp_path("m.manifest");
};

TEST_F(ManifestTest, RoundTripsEveryField) {
  const Manifest m = sample_manifest();
  write_manifest(path_, m);
  std::string err;
  auto loaded = load_manifest(path_, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  expect_equal(m, *loaded);
  EXPECT_TRUE(manifest_valid(path_));
}

TEST_F(ManifestTest, EmptyManifestRoundTrips) {
  Manifest m;
  m.block_bytes = 4096;
  m.vector_bytes = 128;
  write_manifest(path_, m);
  auto loaded = load_manifest(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->tables.empty());
  EXPECT_TRUE(loaded->block_file.empty());
}

TEST_F(ManifestTest, CommitOverwritesAtomicallyAndCleansTmp) {
  Manifest m = sample_manifest();
  write_manifest(path_, m);
  m.commit_seq = 8;
  m.tables.pop_back();
  write_manifest(path_, m);
  auto loaded = load_manifest(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->commit_seq, 8u);
  EXPECT_EQ(loaded->tables.size(), 1u);
  // The tmp file was renamed over the target, not left behind.
  EXPECT_NE(::access((path_ + ".tmp").c_str(), F_OK), 0);
}

TEST_F(ManifestTest, MissingFileIsInvalid) {
  std::string err;
  EXPECT_FALSE(load_manifest(path_, &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(manifest_valid(path_));
}

TEST_F(ManifestTest, EveryTruncationPointIsInvalid) {
  write_manifest(path_, sample_manifest());
  const std::vector<char> blob = read_file(path_);
  ASSERT_GT(blob.size(), 28u);
  // A torn write can stop at any byte; each prefix must be rejected (step
  // a few bytes to keep the sweep fast).
  for (std::size_t n = 0; n < blob.size(); n += 7) {
    write_file(path_, {blob.begin(), blob.begin() + n});
    EXPECT_FALSE(manifest_valid(path_)) << "prefix " << n << " accepted";
  }
}

TEST_F(ManifestTest, EveryFlippedByteIsInvalid) {
  write_manifest(path_, sample_manifest());
  std::vector<char> blob = read_file(path_);
  for (std::size_t i = 0; i < blob.size(); i += 11) {
    std::vector<char> bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    write_file(path_, bad);
    EXPECT_FALSE(manifest_valid(path_)) << "flip at " << i << " accepted";
  }
  // The pristine blob still loads (the corruption sweep is the thing that
  // invalidates, not the rewrite plumbing).
  write_file(path_, blob);
  EXPECT_TRUE(manifest_valid(path_));
}

TEST_F(ManifestTest, TrailingGarbageIsInvalid) {
  write_manifest(path_, sample_manifest());
  std::vector<char> blob = read_file(path_);
  blob.push_back('x');
  write_file(path_, blob);
  EXPECT_FALSE(manifest_valid(path_));
}

TEST_F(ManifestTest, UnknownVersionIsInvalid) {
  write_manifest(path_, sample_manifest());
  std::vector<char> blob = read_file(path_);
  blob[8] = static_cast<char>(kManifestVersion + 1);  // version field
  write_file(path_, blob);
  std::string err;
  EXPECT_FALSE(load_manifest(path_, &err).has_value());
  EXPECT_NE(err.find("version"), std::string::npos);
}

TEST_F(ManifestTest, HooksFireAroundTheFlip) {
  // before_flip: tmp exists, target does not yet. after_flip: target
  // exists. This is the boundary pair the crash-injection suite kills at.
  int order = 0;
  int before_at = 0;
  int after_at = 0;
  ManifestCommitHooks hooks;
  hooks.before_flip = [&] {
    before_at = ++order;
    EXPECT_EQ(::access((path_ + ".tmp").c_str(), F_OK), 0);
    EXPECT_NE(::access(path_.c_str(), F_OK), 0);
  };
  hooks.after_flip = [&] {
    after_at = ++order;
    EXPECT_EQ(::access(path_.c_str(), F_OK), 0);
  };
  write_manifest(path_, sample_manifest(), &hooks);
  EXPECT_EQ(before_at, 1);
  EXPECT_EQ(after_at, 2);
  EXPECT_TRUE(manifest_valid(path_));
}

TEST_F(ManifestTest, ThrowingBeforeFlipPreservesPreviousManifest) {
  Manifest m = sample_manifest();
  write_manifest(path_, m);
  m.commit_seq = 99;
  ManifestCommitHooks hooks;
  hooks.before_flip = [] { throw std::runtime_error("killed before flip"); };
  EXPECT_THROW(write_manifest(path_, m, &hooks), std::runtime_error);
  auto loaded = load_manifest(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->commit_seq, 7u);  // the old version survived intact
}

}  // namespace
}  // namespace bandana
