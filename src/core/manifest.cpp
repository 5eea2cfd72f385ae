#include "core/manifest.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace bandana {
namespace {

// "BNDMNFST" little-endian.
constexpr std::uint64_t kMagic = 0x5453464e4d444e42ull;

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " +
                           std::system_category().message(errno));
}

// ---- serialization -------------------------------------------------------

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_bytes(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

template <typename T>
void put_u32_vec(std::vector<std::uint8_t>& out, const std::vector<T>& v) {
  static_assert(sizeof(T) == 4);
  put_u64(out, v.size());
  for (T x : v) put_u32(out, static_cast<std::uint32_t>(x));
}

std::vector<std::uint8_t> serialize_payload(const Manifest& m) {
  std::vector<std::uint8_t> out;
  put_u64(out, m.commit_seq);
  put_u64(out, m.trickle_epoch);
  put_u64(out, m.block_bytes);
  put_u64(out, m.vector_bytes);
  put_u64(out, m.vectors_per_block);
  put_u64(out, m.storage_blocks);
  put_u64(out, m.next_block);
  put_bytes(out, m.block_file);
  put_u64(out, m.tables.size());
  for (const ManifestTable& t : m.tables) {
    put_u32(out, t.first_block);
    put_u64(out, t.policy.cache_vectors);
    put_u32(out, static_cast<std::uint32_t>(t.policy.policy));
    put_u32(out, t.policy.access_threshold);
    put_f64(out, t.policy.insertion_position);
    put_f64(out, t.policy.shadow_multiplier);
    put_u32_vec(out, t.order);
    put_u32_vec(out, t.block_map);
    put_u32_vec(out, t.access_counts);
    put_u32_vec(out, t.free_blocks);
    put_u32(out, t.retired ? 1u : 0u);
  }
  put_u32_vec(out, m.free_pool);
  put_u64(out, m.reservations.size());
  for (const std::vector<BlockId>& blocks : m.reservations) {
    put_u32_vec(out, blocks);
  }
  return out;
}

// ---- bounds-checked deserialization --------------------------------------

// Cursor over the payload; every get_* either succeeds or flips `ok` and
// returns zero, so the parser can't read past a truncated buffer.
struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  bool ok = true;

  std::uint32_t get_u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(data[pos - 4 + i]) << (8 * i);
    return v;
  }

  std::uint64_t get_u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(data[pos - 8 + i]) << (8 * i);
    return v;
  }

  double get_f64() { return std::bit_cast<double>(get_u64()); }

  std::string get_bytes() {
    std::uint64_t n = get_u64();
    if (!take(n)) return {};
    return std::string(reinterpret_cast<const char*>(data + pos - n),
                       static_cast<std::size_t>(n));
  }

  template <typename T>
  std::vector<T> get_u32_vec() {
    static_assert(sizeof(T) == 4);
    std::uint64_t n = get_u64();
    // An element count can't exceed the bytes left to hold it.
    if (!ok || n > (size - pos) / 4) {
      ok = false;
      return {};
    }
    std::vector<T> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(static_cast<T>(get_u32()));
    return v;
  }

  bool take(std::uint64_t n) {
    if (!ok || n > size - pos) {
      ok = false;
      return false;
    }
    pos += static_cast<std::size_t>(n);
    return true;
  }
};

std::optional<Manifest> parse_payload(const std::uint8_t* data,
                                      std::size_t size, std::string* error) {
  Reader r{data, size};
  Manifest m;
  m.commit_seq = r.get_u64();
  m.trickle_epoch = r.get_u64();
  m.block_bytes = r.get_u64();
  m.vector_bytes = r.get_u64();
  m.vectors_per_block = r.get_u64();
  m.storage_blocks = r.get_u64();
  m.next_block = r.get_u64();
  m.block_file = r.get_bytes();
  std::uint64_t num_tables = r.get_u64();
  if (!r.ok || num_tables > (size - r.pos)) {
    if (error) *error = "manifest payload truncated";
    return std::nullopt;
  }
  m.tables.reserve(static_cast<std::size_t>(num_tables));
  for (std::uint64_t i = 0; i < num_tables && r.ok; ++i) {
    ManifestTable t;
    t.first_block = static_cast<BlockId>(r.get_u32());
    t.policy.cache_vectors = r.get_u64();
    t.policy.policy = static_cast<PrefetchPolicy>(r.get_u32());
    t.policy.access_threshold = r.get_u32();
    t.policy.insertion_position = r.get_f64();
    t.policy.shadow_multiplier = r.get_f64();
    t.order = r.get_u32_vec<VectorId>();
    t.block_map = r.get_u32_vec<BlockId>();
    t.access_counts = r.get_u32_vec<std::uint32_t>();
    t.free_blocks = r.get_u32_vec<BlockId>();
    t.retired = r.get_u32() != 0;
    m.tables.push_back(std::move(t));
  }
  m.free_pool = r.get_u32_vec<BlockId>();
  std::uint64_t num_pending = r.get_u64();
  if (!r.ok || num_pending > (size - r.pos)) {
    if (error) *error = "manifest payload truncated";
    return std::nullopt;
  }
  m.reservations.reserve(static_cast<std::size_t>(num_pending));
  for (std::uint64_t i = 0; i < num_pending && r.ok; ++i) {
    m.reservations.push_back(r.get_u32_vec<BlockId>());
  }
  if (!r.ok || r.pos != size) {
    if (error) *error = "manifest payload truncated or overlong";
    return std::nullopt;
  }
  return m;
}

// RAII fd so every error path closes.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

void write_all(int fd, const std::uint8_t* data, std::size_t n,
               const std::string& path) {
  std::size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("manifest write failed for " + path);
    }
    off += static_cast<std::size_t>(w);
  }
}

void fsync_path_dir(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  Fd d;
  d.fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (d.fd < 0) throw_errno("manifest directory open failed for " + dir);
  if (::fsync(d.fd) != 0)
    throw_errno("manifest directory fsync failed for " + dir);
}

}  // namespace

void write_manifest(const std::string& path, const Manifest& m,
                    const ManifestCommitHooks* hooks) {
  std::vector<std::uint8_t> payload = serialize_payload(m);
  std::vector<std::uint8_t> blob;
  blob.reserve(28 + payload.size());
  put_u64(blob, kMagic);
  put_u32(blob, kManifestVersion);
  put_u64(blob, payload.size());
  put_u64(blob, fnv1a64(payload.data(), payload.size()));
  blob.insert(blob.end(), payload.begin(), payload.end());

  const std::string tmp = path + ".tmp";
  {
    Fd f;
    f.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (f.fd < 0) throw_errno("manifest tmp open failed for " + tmp);
    write_all(f.fd, blob.data(), blob.size(), tmp);
    if (::fsync(f.fd) != 0) throw_errno("manifest tmp fsync failed for " + tmp);
  }
  if (hooks && hooks->before_flip) hooks->before_flip();
  // The pointer flip: rename is atomic, so `path` transitions from the
  // previous complete manifest to the new complete one in one step.
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    throw_errno("manifest rename failed for " + path);
  if (hooks && hooks->after_flip) hooks->after_flip();
  fsync_path_dir(path);
}

std::optional<Manifest> load_manifest(const std::string& path,
                                      std::string* error) {
  Fd f;
  f.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (f.fd < 0) {
    if (error) *error = "manifest open failed for " + path + ": " +
                        std::system_category().message(errno);
    return std::nullopt;
  }
  struct stat st{};
  if (::fstat(f.fd, &st) != 0 || st.st_size < 28) {
    if (error) *error = "manifest too small at " + path;
    return std::nullopt;
  }
  std::vector<std::uint8_t> blob(static_cast<std::size_t>(st.st_size));
  std::size_t off = 0;
  while (off < blob.size()) {
    ssize_t r = ::read(f.fd, blob.data() + off, blob.size() - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (error) *error = "manifest read failed for " + path + ": " +
                          std::system_category().message(errno);
      return std::nullopt;
    }
    if (r == 0) break;
    off += static_cast<std::size_t>(r);
  }
  if (off != blob.size()) {
    if (error) *error = "manifest short read at " + path;
    return std::nullopt;
  }

  Reader h{blob.data(), blob.size()};
  if (h.get_u64() != kMagic) {
    if (error) *error = "manifest bad magic at " + path;
    return std::nullopt;
  }
  std::uint32_t version = h.get_u32();
  if (version != kManifestVersion) {
    if (error)
      *error = "manifest version " + std::to_string(version) +
               " unsupported at " + path;
    return std::nullopt;
  }
  std::uint64_t payload_bytes = h.get_u64();
  std::uint64_t checksum = h.get_u64();
  if (!h.ok || payload_bytes != blob.size() - h.pos) {
    if (error) *error = "manifest payload length mismatch at " + path;
    return std::nullopt;
  }
  const std::uint8_t* payload = blob.data() + h.pos;
  if (fnv1a64(payload, static_cast<std::size_t>(payload_bytes)) != checksum) {
    if (error) *error = "manifest checksum mismatch at " + path;
    return std::nullopt;
  }
  return parse_payload(payload, static_cast<std::size_t>(payload_bytes), error);
}

bool manifest_valid(const std::string& path) {
  return load_manifest(path).has_value();
}

}  // namespace bandana
