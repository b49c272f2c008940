// Tests for the framed IPC transport (src/util/ipc) and the POSIX process
// helpers (src/util/proc): frame round-trips, torn/corrupt frame
// classification, payload codec bounds, the pid<=1 guard rails, and — in
// non-TSan builds — real proc::Child behaviour (env_overrides precedence,
// exec-failure exit 127, pidfd wake-up, SIGTERM -> SIGKILL escalation,
// group kills, adoption of forked and non-child pids).
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/ipc.hpp"
#include "util/proc.hpp"
#include "test_helpers.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDD_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define SDD_TSAN 1
#endif

namespace sdd {
namespace {

// A socketpair that closes whatever ends are still open on scope exit.
struct Pair {
  Pair() {
    const ipc::SocketPair p = ipc::socket_pair();
    a = p.parent_fd;
    b = p.child_fd;
  }
  ~Pair() {
    close_a();
    close_b();
  }
  void close_a() {
    if (a >= 0) ::close(a);
    a = -1;
  }
  void close_b() {
    if (b >= 0) ::close(b);
    b = -1;
  }
  int a = -1;
  int b = -1;
};

ErrorKind thrown_kind(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected an sdd::Error";
  return ErrorKind::kFatal;
}

TEST(Ipc, FrameRoundTrip) {
  Pair p;
  const std::string payload = "hello across the boundary";
  ipc::write_frame(p.a, 7, payload);

  ipc::Frame frame;
  ASSERT_EQ(ipc::read_frame(p.b, &frame, 1000), ipc::ReadStatus::kFrame);
  EXPECT_EQ(frame.type, 7);
  EXPECT_EQ(frame.payload, payload);
}

TEST(Ipc, EmptyPayloadAndBackToBackFramesKeepBoundaries) {
  Pair p;
  ipc::write_frame(p.a, 1, "");
  ipc::write_frame(p.a, 2, "second");
  ipc::write_frame(p.a, 3, std::string(4096, 'x'));

  ipc::Frame frame;
  ASSERT_EQ(ipc::read_frame(p.b, &frame, 1000), ipc::ReadStatus::kFrame);
  EXPECT_EQ(frame.type, 1);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_EQ(ipc::read_frame(p.b, &frame, 1000), ipc::ReadStatus::kFrame);
  EXPECT_EQ(frame.type, 2);
  EXPECT_EQ(frame.payload, "second");
  ASSERT_EQ(ipc::read_frame(p.b, &frame, 1000), ipc::ReadStatus::kFrame);
  EXPECT_EQ(frame.type, 3);
  EXPECT_EQ(frame.payload.size(), 4096U);
}

TEST(Ipc, TimeoutWhenNothingArrives) {
  Pair p;
  ipc::Frame frame;
  EXPECT_EQ(ipc::read_frame(p.b, &frame, 30), ipc::ReadStatus::kTimeout);
}

TEST(Ipc, CleanEofAtFrameBoundaryIsClosedNotError) {
  Pair p;
  ipc::write_frame(p.a, 4, "last words");
  p.close_a();

  ipc::Frame frame;
  ASSERT_EQ(ipc::read_frame(p.b, &frame, 1000), ipc::ReadStatus::kFrame);
  EXPECT_EQ(frame.payload, "last words");
  EXPECT_EQ(ipc::read_frame(p.b, &frame, 1000), ipc::ReadStatus::kClosed);
}

TEST(Ipc, TornFrameThenEofIsWorkerLost) {
  Pair p;
  ipc::write_torn_frame(p.a, 4, "this frame will never finish");
  p.close_a();  // the writer "dies" mid-frame

  ipc::Frame frame;
  EXPECT_EQ(thrown_kind([&] { ipc::read_frame(p.b, &frame, 1000); }),
            ErrorKind::kWorkerLost);
}

// Capture one valid frame's raw bytes so corruption tests mangle the real
// wire format instead of duplicating the header layout here.
std::string raw_frame_bytes(std::uint8_t type, const std::string& payload) {
  Pair p;
  ipc::write_frame(p.a, type, payload);
  std::string raw(payload.size() + 64, '\0');
  const ssize_t n = ::read(p.b, raw.data(), raw.size());
  EXPECT_GT(n, 0);
  raw.resize(static_cast<std::size_t>(n));
  return raw;
}

void write_raw(int fd, const std::string& bytes) {
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
}

TEST(Ipc, CorruptedPayloadFailsChecksum) {
  std::string raw = raw_frame_bytes(9, "checksummed payload");
  raw[20] ^= 0x5A;  // flip a payload byte; header stays valid

  Pair p;
  write_raw(p.a, raw);
  ipc::Frame frame;
  EXPECT_EQ(thrown_kind([&] { ipc::read_frame(p.b, &frame, 1000); }),
            ErrorKind::kWorkerLost);
}

TEST(Ipc, CorruptedMagicIsWorkerLost) {
  std::string raw = raw_frame_bytes(9, "payload");
  raw[0] ^= 0xFF;

  Pair p;
  write_raw(p.a, raw);
  ipc::Frame frame;
  EXPECT_EQ(thrown_kind([&] { ipc::read_frame(p.b, &frame, 1000); }),
            ErrorKind::kWorkerLost);
}

TEST(Ipc, OversizedLengthIsRejectedNotAllocated) {
  std::string raw = raw_frame_bytes(9, "payload");
  // Length field: bytes 8..15 of the header, little-endian. Max it out so a
  // naive reader would try to allocate ~2^64 bytes.
  for (int i = 8; i < 16; ++i) raw[static_cast<std::size_t>(i)] = '\xFF';

  Pair p;
  write_raw(p.a, raw);
  ipc::Frame frame;
  EXPECT_EQ(thrown_kind([&] { ipc::read_frame(p.b, &frame, 1000); }),
            ErrorKind::kWorkerLost);
}

TEST(Ipc, PayloadCodecRoundTrip) {
  ipc::PayloadWriter w;
  w.u8(0xAB);
  w.i32(-123456);
  w.i64(-987654321012345LL);
  w.u64(0xDEADBEEFCAFEF00DULL);
  w.f32(3.5F);
  w.str("variant-name");
  w.vec_i32({1, -2, 3, -4});
  w.vec_i32({});

  ipc::PayloadReader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.i32(), -123456);
  EXPECT_EQ(r.i64(), -987654321012345LL);
  EXPECT_EQ(r.u64(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(r.f32(), 3.5F);
  EXPECT_EQ(r.str(), "variant-name");
  EXPECT_EQ(r.vec_i32(), (std::vector<std::int32_t>{1, -2, 3, -4}));
  EXPECT_TRUE(r.vec_i32().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Ipc, PayloadReaderOverrunIsWorkerLost) {
  ipc::PayloadWriter w;
  w.i32(42);
  ipc::PayloadReader r{w.bytes()};
  EXPECT_EQ(r.i32(), 42);
  EXPECT_EQ(thrown_kind([&] { r.u64(); }), ErrorKind::kWorkerLost);
}

// Seeded mutation fuzz of the frame reader: every mutant of a stream of
// valid frames, written whole and then closed, reads as frames and then a
// clean close, or stops at an Error{worker_lost}. Nothing else may escape,
// and no mutant may hang the reader or make it allocate past what arrived.
TEST(Ipc, MutatedFramesGiveAFrameClosedOrWorkerLost) {
  const std::vector<std::string> corpus = {
      raw_frame_bytes(1, ""),
      raw_frame_bytes(3, std::string(40, 'q')),
      raw_frame_bytes(4, "a response payload with some length to it"),
      raw_frame_bytes(2, "") + raw_frame_bytes(5, std::string(8, '\x01')),
  };
  Rng rng{0x1FC0};
  std::int64_t frames = 0;
  std::int64_t lost = 0;
  for (int i = 0; i < 10'000; ++i) {
    const std::string mutant = testing::mutate_bytes(corpus, rng);
    Pair p;
    if (!mutant.empty()) write_raw(p.a, mutant);
    p.close_a();
    ipc::Frame frame;
    try {
      ipc::ReadStatus status = ipc::ReadStatus::kFrame;
      for (int n = 0; n < 8 && status == ipc::ReadStatus::kFrame; ++n) {
        status = ipc::read_frame(p.b, &frame, 1000);
        if (status == ipc::ReadStatus::kFrame) ++frames;
      }
      ASSERT_EQ(status, ipc::ReadStatus::kClosed) << "mutant " << i;
    } catch (const Error& e) {
      ASSERT_EQ(e.kind(), ErrorKind::kWorkerLost) << "mutant " << i << ": " << e.what();
      ++lost;
    }
  }
  // The mutants reach both outcomes, not only the rejection path.
  EXPECT_GT(frames, 500);
  EXPECT_GT(lost, 5'000);
}

// ---- pid guard rails (no fork needed) --------------------------------------

TEST(ProcGuard, AdoptRefusesSentinelPids) {
  // kill(-1)/kill(0) would signal the whole group/session and waitpid(-1)
  // would reap an arbitrary child; a stale sentinel never becomes a Child.
  EXPECT_EQ(thrown_kind([] { proc::Child::adopt(-1); }), ErrorKind::kFatal);
  EXPECT_EQ(thrown_kind([] { proc::Child::adopt(0); }), ErrorKind::kFatal);
  EXPECT_EQ(thrown_kind([] { proc::Child::adopt(1); }), ErrorKind::kFatal);
}

TEST(ProcGuard, TryReapRefusesSentinelPids) {
  // An empty Child holds the sentinel pid -1, which waitpid(-1) would read as
  // "any child": both reaps refuse it, and wait() does not sit out its timeout.
  proc::Child empty;
  EXPECT_EQ(thrown_kind([&] { empty.try_reap(); }), ErrorKind::kFatal);
  const std::int64_t start = proc::monotonic_ms();
  EXPECT_EQ(thrown_kind([&] { empty.wait(10'000); }), ErrorKind::kFatal);
  EXPECT_LT(proc::monotonic_ms() - start, 1'000);
  EXPECT_EQ(thrown_kind([] { proc::Child::adopt(-1).try_reap(); }), ErrorKind::kFatal);
}

TEST(ProcGuard, TerminateRefusesSentinelPids) {
  // kill(-(-1)) would signal init: an empty Child signals no group, waits out
  // no grace, and reports the sentinel status.
  proc::Child empty;
  const std::int64_t start = proc::monotonic_ms();
  const proc::ExitStatus status = empty.terminate(/*grace_ms=*/10'000);
  EXPECT_LT(proc::monotonic_ms() - start, 1'000);
  EXPECT_EQ(status.pid, -1);
  EXPECT_EQ(status.exit_code, -1);
  EXPECT_EQ(status.term_signal, 0);
  EXPECT_EQ(thrown_kind([] { proc::Child::adopt(0).terminate(100); }), ErrorKind::kFatal);
}

TEST(ProcGuard, EmptyChildSignalsNothing) {
  // An empty Child owns no pidfd, so signal() reaches no process. Surviving
  // the call IS the test.
  const proc::Child empty;
  EXPECT_FALSE(empty);
  EXPECT_EQ(empty.pid(), -1);
  empty.signal(SIGTERM);
}

#if !defined(SDD_TSAN)
// ---- fork/exec behaviour (compiled out under TSan) -------------------------

TEST(ProcFork, EnvOverridesTakePrecedenceOverInherited) {
  ASSERT_EQ(::setenv("SDD_PROC_TEST_VAR", "inherited", 1), 0);
  proc::Child child = proc::Child::spawn(
      {"/bin/sh", "-c", "test \"$SDD_PROC_TEST_VAR\" = override"},
      {"SDD_PROC_TEST_VAR=override"});
  const auto status = child.wait(5'000);
  ::unsetenv("SDD_PROC_TEST_VAR");
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->clean()) << "child saw exit " << status->exit_code;
}

TEST(ProcFork, ExecFailureExits127) {
  proc::Child child = proc::Child::spawn({"/nonexistent/sdd_no_such_binary"});
  const auto status = child.wait(5'000);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->exit_code, 127);
  EXPECT_EQ(status->term_signal, 0);
}

// The pidfd turns readable when the child exits, so a poll() wakes at once;
// the status stays readable, and a signal after the reap reaches nothing.
TEST(ProcFork, ExitWakesThePidfd) {
  proc::Child child = proc::Child::spawn({"/bin/sh", "-c", "exit 3"});
  pollfd pfd{child.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5'000), 1);
  const auto status = child.try_reap();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->exit_code, 3);
  EXPECT_EQ(status->pid, child.pid());
  EXPECT_EQ(child.try_reap()->exit_code, 3);
  child.signal(SIGKILL);
  EXPECT_EQ(child.terminate(100).exit_code, 3);
}

TEST(ProcFork, TerminateEscalatesToSigkillWhenTermIsIgnored) {
  // The child reports over an inherited fd once the trap is installed;
  // terminating earlier would race the default TERM disposition.
  Pair ready;
  proc::Child child = proc::Child::spawn(
      {"/bin/sh", "-c",
       "trap '' TERM; printf r >&" + std::to_string(ready.b) + "; sleep 30"},
      {}, {ready.b});
  char byte = 0;
  ASSERT_EQ(::read(ready.a, &byte, 1), 1);
  const auto status = child.terminate(/*grace_ms=*/300);
  EXPECT_EQ(status.term_signal, SIGKILL);
  EXPECT_TRUE(child.try_reap().has_value());
}

// True while `pid` exists and is not a zombie. A killed grandchild is
// reparented and reaped by someone else, possibly later; its zombie no
// longer runs.
bool running(std::int64_t pid) {
  std::ifstream stat{"/proc/" + std::to_string(pid) + "/stat"};
  std::string line;
  if (!std::getline(stat, line)) return false;
  // The state field follows the parenthesized command name.
  const std::size_t close = line.rfind(')');
  return close != std::string::npos && close + 2 < line.size() &&
         line[close + 2] != 'Z';
}

// Spawns a shell that starts a background grandchild, reports its pid and
// waits; the grandchild stays in the shell's process group.
std::int64_t spawn_with_grandchild(proc::Child* child) {
  Pair ready;
  *child = proc::Child::spawn(
      {"/bin/sh", "-c",
       "sleep 30 & echo $! >&" + std::to_string(ready.b) + "; wait"},
      {}, {ready.b});
  std::string line;
  char byte = 0;
  while (::read(ready.a, &byte, 1) == 1 && byte != '\n') line.push_back(byte);
  return std::stoll(line);
}

bool stops_running(std::int64_t pid) {
  const std::int64_t deadline = proc::monotonic_ms() + 5'000;
  while (running(pid) && proc::monotonic_ms() < deadline) ::usleep(5'000);
  return !running(pid);
}

TEST(ProcFork, TerminateKillsTheWholeProcessGroup) {
  // Terminating the child alone would leave the grandchild running.
  proc::Child child;
  const std::int64_t grandchild = spawn_with_grandchild(&child);
  ASSERT_TRUE(running(grandchild));
  child.terminate(/*grace_ms=*/300);
  EXPECT_TRUE(child.try_reap().has_value());
  EXPECT_TRUE(stops_running(grandchild)) << "grandchild " << grandchild << " survived";
}

TEST(ProcFork, DroppedChildKillsItsGroupAndIsReaped) {
  proc::Child child;
  const std::int64_t grandchild = spawn_with_grandchild(&child);
  const auto pid = static_cast<pid_t>(child.pid());
  child = proc::Child{};
  EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), -1) << "child left unreaped";
  EXPECT_TRUE(stops_running(grandchild)) << "grandchild " << grandchild << " survived";
}

TEST(ProcFork, AdoptNonChildIsWorkerLost) {
  // The grandchild exists but is not our child: waitid says ECHILD, and the
  // refused pid is never signalled.
  proc::Child child;
  const std::int64_t grandchild = spawn_with_grandchild(&child);
  EXPECT_EQ(thrown_kind([&] { proc::Child::adopt(grandchild); }),
            ErrorKind::kWorkerLost);
  EXPECT_TRUE(running(grandchild));
}

// The fork-based test seams adopt what they forked, even a child that has
// already exited: the zombie still holds its pid.
TEST(ProcFork, AdoptReapsAForkedChild) {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(5);
  siginfo_t info{};
  ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT), 0);
  proc::Child child = proc::Child::adopt(pid);
  const auto status = child.wait(5'000);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->exit_code, 5);
}

TEST(ProcFork, InheritedFdSurvivesExec) {
  Pair p;
  proc::Child child = proc::Child::spawn(
      {"/bin/sh", "-c", "printf x >&" + std::to_string(p.b)}, {}, {p.b});
  const auto status = child.wait(5'000);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->clean()) << "redirect failed: fd did not survive exec";
  char byte = 0;
  EXPECT_EQ(::read(p.a, &byte, 1), 1);
  EXPECT_EQ(byte, 'x');
}
#endif  // !SDD_TSAN

}  // namespace
}  // namespace sdd
