// Framed inter-process messaging for cross-process serving replicas.
//
// A frame is a 16-byte header (magic, type byte, payload length), the
// payload, and an XXH64 checksum trailer seeded with the type byte. Framing
// errors — short reads, a torn trailer, a checksum mismatch, an oversized
// length — all throw Error{kWorkerLost} (retryable): a mangled frame means
// the peer process died mid-write or the channel is corrupt, and the caller's
// recovery is the same either way (fail the in-flight work over, reap, and
// respawn). A clean EOF at a frame boundary is NOT an error; it is the
// orderly-close signal (ReadStatus::kClosed).
//
// All reads and writes are EINTR-safe: the fleet/serving processes install
// SIGTERM handlers, and a frame must never tear just because a signal landed
// mid-syscall. Writers should ignore_sigpipe() (util/signals) so a vanished
// peer surfaces as a thrown Error, not SIGPIPE.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sdd::ipc {

// Hard cap on a frame payload; a length beyond this is treated as a torn or
// corrupt header (Error{kWorkerLost}), not an allocation request.
inline constexpr std::uint64_t kMaxPayloadBytes = 64ULL << 20;

struct Frame {
  std::uint8_t type = 0;
  std::string payload;
};

enum class ReadStatus {
  kFrame,    // a whole, checksum-verified frame landed in *out
  kTimeout,  // no frame started within timeout_ms; nothing consumed
  kClosed,   // clean EOF at a frame boundary (peer closed in good order)
};

// Connected AF_UNIX stream pair. Both ends are CLOEXEC; proc::spawn's
// inherit_fds clears the flag on the child's end between fork and exec.
struct SocketPair {
  int parent_fd = -1;
  int child_fd = -1;
};
SocketPair socket_pair();

// Writes one complete frame; loops over partial writes and EINTR. Throws
// Error{kWorkerLost} when the peer is gone (EPIPE/ECONNRESET) or any write
// fails.
void write_frame(int fd, std::uint8_t type, std::string_view payload);

// Chaos helper (fault `ipc_torn_frame`): writes the header and roughly half
// the payload, then returns — the caller is expected to die, leaving the
// reader a torn frame to classify as worker_lost.
void write_torn_frame(int fd, std::uint8_t type, std::string_view payload);

// Reads one frame. `timeout_ms` bounds the wait for the frame to *start*
// (0 = take one that has started without waiting, as after a poll()); once
// the first header byte arrives the rest must follow within an internal
// continuation budget (a writer that dies or wedges mid-frame surfaces as
// Error{kWorkerLost, "torn frame"}). Returns kTimeout when nothing arrived,
// kClosed on EOF at a frame boundary. Throws Error{kWorkerLost} on torn or
// corrupt frames and on read errors.
ReadStatus read_frame(int fd, Frame* out, std::int64_t timeout_ms);

// ---- payload codec ---------------------------------------------------------
//
// Little-endian, append-only encoders and bounds-checked decoders for frame
// payloads. Reader overruns throw Error{kWorkerLost} ("truncated payload"):
// a short payload inside a checksum-valid frame still means the peer and we
// disagree on the schema, and the transport treats it as a lost worker.

class PayloadWriter {
 public:
  void u8(std::uint8_t value);
  void i32(std::int32_t value);
  void i64(std::int64_t value);
  void u64(std::uint64_t value);
  void f32(float value);
  void str(std::string_view value);
  void vec_i32(const std::vector<std::int32_t>& values);

  const std::string& bytes() const { return buffer_; }

 private:
  std::string buffer_;
};

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : payload_{payload} {}

  std::uint8_t u8();
  std::int32_t i32();
  std::int64_t i64();
  std::uint64_t u64();
  float f32();
  std::string str();
  std::vector<std::int32_t> vec_i32();

  bool exhausted() const { return pos_ == payload_.size(); }

 private:
  void need(std::size_t bytes);

  std::string_view payload_;
  std::size_t pos_ = 0;
};

}  // namespace sdd::ipc
