#include "nvm/block_storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/manifest.h"

namespace bandana {

namespace detail {

std::uint64_t checked_file_bytes(std::uint64_t num_blocks,
                                 std::size_t block_bytes) {
  // num_blocks * block_bytes must fit an off_t or ftruncate would size a
  // silently-wrapped (wrong) file.
  if (block_bytes != 0 &&
      num_blocks > std::numeric_limits<std::uint64_t>::max() / block_bytes) {
    throw std::runtime_error(
        "FileBlockStorage: file size overflows for " +
        std::to_string(num_blocks) + " blocks x " +
        std::to_string(block_bytes) + " bytes");
  }
  const std::uint64_t bytes = num_blocks * block_bytes;
  if (bytes > static_cast<std::uint64_t>(std::numeric_limits<off_t>::max())) {
    throw std::runtime_error(
        "FileBlockStorage: file size " + std::to_string(bytes) +
        " exceeds off_t for " + std::to_string(num_blocks) + " blocks x " +
        std::to_string(block_bytes) + " bytes");
  }
  return bytes;
}

}  // namespace detail

void BlockStorage::read_blocks(std::span<const BlockReadOp> ops) const {
  for (const auto& op : ops) read_block(op.block, op.out);
}

void BlockStorage::write_blocks(std::span<const BlockWriteOp> ops) {
  for (const auto& op : ops) write_block(op.block, op.in);
}

void StagedBlockReads::fetch(const BlockStorage& storage,
                             std::uint64_t wave_blocks) {
  block_bytes_ = storage.block_bytes();
  staged_ = WaveComposeBuffer(storage, blocks_.size() * block_bytes_);
  std::vector<BlockReadOp> ops(blocks_.size());
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    ops[i] = {blocks_[i], staged_.buf.subspan(i * block_bytes_, block_bytes_)};
  }
  const std::size_t wave =
      wave_blocks == 0 ? ops.size() : static_cast<std::size_t>(wave_blocks);
  for (std::size_t i = 0; i < ops.size(); i += wave) {
    const std::size_t n = std::min(wave, ops.size() - i);
    storage.read_blocks(std::span<const BlockReadOp>(ops).subspan(i, n));
  }
}

MemoryBlockStorage::MemoryBlockStorage(std::uint64_t num_blocks,
                                       std::size_t block_bytes)
    : num_blocks_(num_blocks),
      block_bytes_(block_bytes),
      data_(num_blocks * block_bytes) {}

void MemoryBlockStorage::read_block(BlockId b, std::span<std::byte> out) const {
  assert(b < num_blocks_);
  assert(out.size() == block_bytes_);
  std::memcpy(out.data(), data_.data() + static_cast<std::size_t>(b) * block_bytes_,
              block_bytes_);
}

std::span<const std::byte> MemoryBlockStorage::view_block(
    BlockId b, std::vector<std::byte>& /*scratch*/) const {
  assert(b < num_blocks_);
  return {data_.data() + static_cast<std::size_t>(b) * block_bytes_,
          block_bytes_};
}

void MemoryBlockStorage::write_block(BlockId b,
                                     std::span<const std::byte> in) {
  assert(b < num_blocks_);
  assert(in.size() == block_bytes_);
  std::memcpy(data_.data() + static_cast<std::size_t>(b) * block_bytes_, in.data(),
              block_bytes_);
}

FileBlockStorage::FileBlockStorage(const std::string& path,
                                   std::uint64_t num_blocks,
                                   std::size_t block_bytes,
                                   bool preserve_contents)
    : num_blocks_(num_blocks), block_bytes_(block_bytes) {
  const std::uint64_t file_bytes =
      detail::checked_file_bytes(num_blocks, block_bytes);
  const int flags =
      preserve_contents ? O_RDWR | O_CREAT : O_RDWR | O_CREAT | O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) throw std::runtime_error("FileBlockStorage: cannot open " + path);
  if (::ftruncate(fd_, static_cast<off_t>(file_bytes)) != 0) {
    ::close(fd_);
    throw std::runtime_error("FileBlockStorage: cannot size " + path);
  }
}

FileBlockStorage::~FileBlockStorage() {
  if (fd_ >= 0) ::close(fd_);
}

void FileBlockStorage::read_block(BlockId b, std::span<std::byte> out) const {
  assert(out.size() == block_bytes_);
  transfer_blocks(b, out.data(), block_bytes_, /*write=*/false);
}

void FileBlockStorage::write_block(BlockId b, std::span<const std::byte> in) {
  assert(in.size() == block_bytes_);
  transfer_blocks(b, const_cast<std::byte*>(in.data()), block_bytes_,
                  /*write=*/true);
}

void FileBlockStorage::transfer_blocks(BlockId first, std::byte* data,
                                       std::size_t bytes, bool write) const {
  assert(first + bytes / block_bytes_ <= num_blocks_);
  const auto off =
      static_cast<off_t>(static_cast<std::uint64_t>(first) * block_bytes_);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t r =
        write ? ::pwrite(fd_, data + done, bytes - done,
                         off + static_cast<off_t>(done))
              : ::pread(fd_, data + done, bytes - done,
                        off + static_cast<off_t>(done));
    if (r < 0 && errno == EINTR) continue;  // interrupted, not failed
    if (r <= 0) {
      const int err = errno;
      const std::string what =
          std::string("FileBlockStorage: ") + (write ? "pwrite" : "pread") +
          " of block " + std::to_string(first + done / block_bytes_);
      const std::string at = " at byte " + std::to_string(done % block_bytes_);
      if (r < 0) {
        throw std::runtime_error(what + " failed" + at + ": " +
                                 std::strerror(err));
      }
      throw std::runtime_error(
          what + (write ? " made no progress" + at
                        : " hit EOF" + at +
                              " (file shorter than its block geometry)"));
    }
    done += static_cast<std::size_t>(r);
  }
}

void FileBlockStorage::sync() {
  if (::fdatasync(fd_) != 0) {
    throw std::runtime_error(std::string("FileBlockStorage: fdatasync failed: ") +
                             std::strerror(errno));
  }
}

bool FileBlockStorage::same_backing(const BlockStorage& other) const {
  if (this == &other) return true;
  const auto* file = dynamic_cast<const FileBlockStorage*>(&other);
  if (file == nullptr) return false;
  struct stat a{}, b{};
  if (::fstat(fd_, &a) != 0 || ::fstat(file->fd_, &b) != 0) return false;
  return a.st_dev == b.st_dev && a.st_ino == b.st_ino;
}

BlockStorageFactory memory_storage_factory() {
  return [](std::uint64_t num_blocks, std::size_t block_bytes) {
    return std::make_unique<MemoryBlockStorage>(num_blocks, block_bytes);
  };
}

namespace detail {

// Fresh-vs-preserve for a file factory's FIRST invocation. Invocation
// order alone is wrong after a crash: truncating on "first call of this
// process" would destroy a store the manifest can still recover. So the
// decision is routed through the manifest — a valid one means the block
// file holds committed data and must be preserved (and its geometry
// verified); no valid manifest means there is nothing to recover and a
// clean slate is correct.
bool preserve_for_first_open(const std::string& path,
                             const std::string& manifest_path,
                             std::uint64_t num_blocks,
                             std::size_t block_bytes) {
  if (manifest_path.empty() || !manifest_valid(manifest_path)) return false;
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    throw std::runtime_error(
        "FileBlockStorage: manifest " + manifest_path +
        " is valid but block file " + path + " is missing: " +
        std::strerror(errno));
  }
  const std::uint64_t need = checked_file_bytes(num_blocks, block_bytes);
  if (static_cast<std::uint64_t>(st.st_size) < need) {
    throw std::runtime_error(
        "FileBlockStorage: block file " + path + " holds " +
        std::to_string(st.st_size) + " bytes but the manifest geometry needs " +
        std::to_string(need) + " (" + std::to_string(num_blocks) +
        " blocks x " + std::to_string(block_bytes) + " bytes)");
  }
  return true;
}

}  // namespace detail

BlockStorageFactory file_storage_factory(std::string path,
                                         std::string manifest_path) {
  // The first invocation consults the manifest for fresh-vs-preserve (see
  // preserve_for_first_open); growth re-invocations resize the same file in
  // place so the store can stream published blocks without a full drain.
  return [path = std::move(path), manifest_path = std::move(manifest_path),
          created = false](std::uint64_t num_blocks,
                           std::size_t block_bytes) mutable {
    const bool preserve =
        created || detail::preserve_for_first_open(path, manifest_path,
                                                   num_blocks, block_bytes);
    auto storage = std::make_unique<FileBlockStorage>(
        path, num_blocks, block_bytes, /*preserve_contents=*/preserve);
    created = true;
    return storage;
  };
}

}  // namespace bandana
