#include "util/ipc.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/proc.hpp"

namespace sdd::ipc {
namespace {

// Wire layout: | u32 magic | u8 type | u8[3] reserved=0 | u64 payload_len |
// then payload_len payload bytes, then u64 xxh64(payload, seed=type).
constexpr std::uint32_t kMagic = 0x53444449;  // "SDDI"
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kChecksumBytes = 8;

// Once a frame has started, the remainder must arrive within this budget; a
// writer that died or wedged mid-frame is indistinguishable from a torn write
// and both are classified worker_lost.
constexpr std::int64_t kContinuationBudgetMs = 2000;

// A payload is read (and its buffer grown) at most this many bytes at a time.
constexpr std::size_t kReadStepBytes = 64 << 10;

[[noreturn]] void throw_lost(const std::string& what) {
  throw Error(ErrorKind::kWorkerLost, "ipc: " + what);
}

// Blocks until `fd` is readable or `deadline` (monotonic_ms) passes. POLLHUP
// and POLLERR count as readable so the subsequent read() observes EOF/error.
// A deadline already past still polls once, so a zero timeout reads a
// descriptor that is ready without waiting.
bool wait_readable(int fd, std::int64_t deadline) {
  for (;;) {
    const std::int64_t remain =
        std::max<std::int64_t>(0, deadline - proc::monotonic_ms());
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int rc =
        ::poll(&pfd, 1, static_cast<int>(remain > 1000 ? 1000 : remain));
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_lost(std::string{"poll failed: "} + std::strerror(errno));
    }
    if (rc > 0) return true;
    if (remain == 0) return false;
  }
}

// Reads exactly `len` bytes of an already-started frame; EOF or a stall here
// means the frame tore.
void read_rest(int fd, void* buf, std::size_t len, std::int64_t deadline,
               const char* stage) {
  auto* out = static_cast<unsigned char*>(buf);
  while (len > 0) {
    if (!wait_readable(fd, deadline)) {
      throw_lost(std::string{"torn frame (writer stalled mid-"} + stage + ")");
    }
    const ssize_t got = ::read(fd, out, len);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw_lost(std::string{"read failed: "} + std::strerror(errno));
    }
    if (got == 0) {
      throw_lost(std::string{"torn frame (EOF mid-"} + stage + ")");
    }
    out += got;
    len -= static_cast<std::size_t>(got);
  }
}

void write_all(int fd, const void* buf, std::size_t len) {
  const auto* data = static_cast<const unsigned char*>(buf);
  while (len > 0) {
    const ssize_t wrote = ::write(fd, data, len);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw_lost(std::string{"write failed: "} + std::strerror(errno));
    }
    data += wrote;
    len -= static_cast<std::size_t>(wrote);
  }
}

std::string build_header(std::uint8_t type, std::uint64_t payload_len) {
  std::string header(kHeaderBytes, '\0');
  std::memcpy(header.data(), &kMagic, sizeof(kMagic));
  header[4] = static_cast<char>(type);
  std::memcpy(header.data() + 8, &payload_len, sizeof(payload_len));
  return header;
}

}  // namespace

SocketPair socket_pair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw_lost(std::string{"socketpair failed: "} + std::strerror(errno));
  }
  return SocketPair{fds[0], fds[1]};
}

void write_frame(int fd, std::uint8_t type, std::string_view payload) {
  if (payload.size() > kMaxPayloadBytes) {
    throw Error(ErrorKind::kFatal,
                "ipc: payload exceeds frame cap: " +
                    std::to_string(payload.size()) + " bytes");
  }
  // One contiguous buffer so a frame is a single write() on the fast path;
  // callers still serialize concurrent writers with their own mutex.
  std::string wire = build_header(type, payload.size());
  wire.append(payload);
  const std::uint64_t checksum = xxh64(payload, type);
  wire.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  write_all(fd, wire.data(), wire.size());
}

void write_torn_frame(int fd, std::uint8_t type, std::string_view payload) {
  std::string wire = build_header(type, payload.size());
  wire.append(payload.substr(0, payload.size() / 2));
  write_all(fd, wire.data(), wire.size());
}

ReadStatus read_frame(int fd, Frame* out, std::int64_t timeout_ms) {
  if (timeout_ms < 0) timeout_ms = 0;
  unsigned char header[kHeaderBytes];
  if (!wait_readable(fd, proc::monotonic_ms() + timeout_ms)) {
    return ReadStatus::kTimeout;
  }
  // First read: zero bytes here is the one place EOF is clean (frame
  // boundary). Any bytes after that commit us to a whole frame.
  ssize_t got = 0;
  for (;;) {
    got = ::read(fd, header, sizeof(header));
    if (got >= 0) break;
    if (errno == EINTR) continue;
    throw_lost(std::string{"read failed: "} + std::strerror(errno));
  }
  if (got == 0) return ReadStatus::kClosed;

  const std::int64_t deadline = proc::monotonic_ms() + kContinuationBudgetMs;
  read_rest(fd, header + got, sizeof(header) - static_cast<std::size_t>(got),
            deadline, "header");

  std::uint32_t magic = 0;
  std::memcpy(&magic, header, sizeof(magic));
  if (magic != kMagic || header[5] != 0 || header[6] != 0 || header[7] != 0) {
    throw_lost("bad frame magic (stream desynchronized or corrupt)");
  }
  std::uint64_t payload_len = 0;
  std::memcpy(&payload_len, header + 8, sizeof(payload_len));
  if (payload_len > kMaxPayloadBytes) {
    throw_lost("oversized frame length " + std::to_string(payload_len) +
               " (corrupt header)");
  }

  out->type = header[4];
  // Grown as the bytes arrive, so a corrupt length under the cap costs what
  // the peer actually sent, not the length it claims.
  out->payload.clear();
  while (out->payload.size() < payload_len) {
    const std::size_t have = out->payload.size();
    const std::size_t step = std::min<std::uint64_t>(payload_len - have, kReadStepBytes);
    out->payload.resize(have + step);
    read_rest(fd, out->payload.data() + have, step, deadline, "payload");
  }
  std::uint64_t claimed = 0;
  read_rest(fd, &claimed, kChecksumBytes, deadline, "checksum");
  const std::uint64_t actual = xxh64(out->payload, out->type);
  if (claimed != actual) {
    throw_lost("frame checksum mismatch (torn or corrupt payload)");
  }
  return ReadStatus::kFrame;
}

// ---- payload codec ---------------------------------------------------------
//
// Host byte order throughout: both ends of the socketpair are the same binary
// on the same machine.

namespace {
template <typename T>
void append_raw(std::string& buffer, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  buffer.append(reinterpret_cast<const char*>(&value), sizeof(value));
}
}  // namespace

void PayloadWriter::u8(std::uint8_t value) { append_raw(buffer_, value); }
void PayloadWriter::i32(std::int32_t value) { append_raw(buffer_, value); }
void PayloadWriter::i64(std::int64_t value) { append_raw(buffer_, value); }
void PayloadWriter::u64(std::uint64_t value) { append_raw(buffer_, value); }
void PayloadWriter::f32(float value) { append_raw(buffer_, value); }

void PayloadWriter::str(std::string_view value) {
  u64(value.size());
  buffer_.append(value);
}

void PayloadWriter::vec_i32(const std::vector<std::int32_t>& values) {
  u64(values.size());
  buffer_.append(reinterpret_cast<const char*>(values.data()),
                 values.size() * sizeof(std::int32_t));
}

void PayloadReader::need(std::size_t bytes) {
  if (payload_.size() - pos_ < bytes) {
    throw Error(ErrorKind::kWorkerLost, "ipc: truncated payload");
  }
}

std::uint8_t PayloadReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(payload_[pos_++]);
}

std::int32_t PayloadReader::i32() {
  need(sizeof(std::int32_t));
  std::int32_t value = 0;
  std::memcpy(&value, payload_.data() + pos_, sizeof(value));
  pos_ += sizeof(value);
  return value;
}

std::int64_t PayloadReader::i64() {
  need(sizeof(std::int64_t));
  std::int64_t value = 0;
  std::memcpy(&value, payload_.data() + pos_, sizeof(value));
  pos_ += sizeof(value);
  return value;
}

std::uint64_t PayloadReader::u64() {
  need(sizeof(std::uint64_t));
  std::uint64_t value = 0;
  std::memcpy(&value, payload_.data() + pos_, sizeof(value));
  pos_ += sizeof(value);
  return value;
}

float PayloadReader::f32() {
  need(sizeof(float));
  float value = 0;
  std::memcpy(&value, payload_.data() + pos_, sizeof(value));
  pos_ += sizeof(value);
  return value;
}

std::string PayloadReader::str() {
  const std::uint64_t len = u64();
  need(len);
  std::string value{payload_.substr(pos_, len)};
  pos_ += len;
  return value;
}

std::vector<std::int32_t> PayloadReader::vec_i32() {
  const std::uint64_t count = u64();
  if (count > kMaxPayloadBytes / sizeof(std::int32_t)) {
    throw Error(ErrorKind::kWorkerLost, "ipc: truncated payload");
  }
  need(count * sizeof(std::int32_t));
  std::vector<std::int32_t> values(count);
  // An empty vector's data() may be null, and memcpy's pointers must not be
  // even for zero bytes.
  if (count > 0) {
    std::memcpy(values.data(), payload_.data() + pos_,
                count * sizeof(std::int32_t));
  }
  pos_ += count * sizeof(std::int32_t);
  return values;
}

}  // namespace sdd::ipc
