// Tests for the transport-layer utility trio: EINTR-safe fd I/O
// (util::io), the capped deterministic backoff schedule (util::BackoffPolicy),
// and the minimal TCP layer (util::net) the fleet drivers run on.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/backoff.hpp"
#include "util/io.hpp"
#include "util/net.hpp"
#include "temp_path.hpp"

namespace hdtest::util {
namespace {

TEST(IoFull, PipeRoundTripAndShortReadAtEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = "the quick brown fox jumps over the lazy dog";
  ASSERT_EQ(io::write_full(fds[1], payload.data(), payload.size()),
            static_cast<long>(payload.size()));
  ASSERT_EQ(io::close_fd(fds[1]), 0);

  std::vector<char> buf(payload.size() + 16, '\0');
  // Asking for more than was written: read_full must return exactly the
  // bytes present (EOF is a short read, not an error).
  const long got = io::read_full(fds[0], buf.data(), buf.size());
  ASSERT_EQ(got, static_cast<long>(payload.size()));
  EXPECT_EQ(std::string(buf.data(), payload.size()), payload);
  // At EOF a further read_full returns 0.
  EXPECT_EQ(io::read_full(fds[0], buf.data(), buf.size()), 0);
  EXPECT_EQ(io::close_fd(fds[0]), 0);
}

TEST(IoFull, ErrorsReturnMinusOneWithErrno) {
  char byte = 0;
  errno = 0;
  EXPECT_EQ(io::read_full(-1, &byte, 1), -1);
  EXPECT_EQ(errno, EBADF);
  errno = 0;
  EXPECT_EQ(io::write_full(-1, &byte, 1), -1);
  EXPECT_EQ(errno, EBADF);
  errno = 0;
  EXPECT_EQ(io::close_fd(-1), -1);
}

TEST(IoFull, OpenReadonly) {
  const auto path = unique_temp_path("hdtest_io_test", ".bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "abc";
  }
  const int fd = io::open_readonly(path.c_str());
  ASSERT_GE(fd, 0);
  char buf[8];
  EXPECT_EQ(io::read_full(fd, buf, sizeof buf), 3);
  EXPECT_EQ(io::close_fd(fd), 0);
  std::filesystem::remove(path);

  errno = 0;
  EXPECT_EQ(io::open_readonly("/nonexistent/hdtest/nope"), -1);
  EXPECT_EQ(errno, ENOENT);
}

TEST(Backoff, NoJitterDoublesAndCaps) {
  const BackoffPolicy policy{/*initial_ms=*/50, /*max_ms=*/800,
                             /*jitter=*/false};
  EXPECT_EQ(policy.delay_ms(0), 50u);
  EXPECT_EQ(policy.delay_ms(1), 100u);
  EXPECT_EQ(policy.delay_ms(2), 200u);
  EXPECT_EQ(policy.delay_ms(3), 400u);
  EXPECT_EQ(policy.delay_ms(4), 800u);
  EXPECT_EQ(policy.delay_ms(5), 800u);   // capped
  EXPECT_EQ(policy.delay_ms(60), 800u);  // no overflow at large attempts
}

TEST(Backoff, JitterIsBoundedAndPure) {
  const BackoffPolicy policy;  // defaults: 50..5000, jitter on
  for (std::size_t attempt = 0; attempt < 12; ++attempt) {
    for (const std::uint64_t seed : {0ULL, 1ULL, 0xfeedULL}) {
      const std::uint64_t delay = policy.delay_ms(attempt, seed);
      std::uint64_t base = 50;
      for (std::size_t k = 0; k < attempt && base < 5000; ++k) base *= 2;
      if (base > 5000) base = 5000;
      EXPECT_GE(delay, base / 2);
      EXPECT_LE(delay, base);
      // Pure: the same (policy, attempt, seed) replays the same delay —
      // this is what makes simulated retry storms reproducible.
      EXPECT_EQ(policy.delay_ms(attempt, seed), delay);
    }
  }
  // Different seeds decorrelate at least somewhere in the schedule.
  bool differs = false;
  for (std::size_t attempt = 0; attempt < 12 && !differs; ++attempt) {
    differs = policy.delay_ms(attempt, 1) != policy.delay_ms(attempt, 2);
  }
  EXPECT_TRUE(differs);
}

TEST(Net, LoopbackRoundTrip) {
  net::Socket listener = net::listen_tcp(/*port=*/0);
  ASSERT_TRUE(listener.valid());
  const std::uint16_t port = net::local_port(listener);
  ASSERT_NE(port, 0);

  // Nothing pending yet: accept times out with an invalid socket.
  EXPECT_FALSE(net::accept_tcp(listener, /*timeout_ms=*/10).valid());

  net::Socket client = net::connect_tcp("127.0.0.1", port);
  ASSERT_TRUE(client.valid());
  net::Socket server = net::accept_tcp(listener, /*timeout_ms=*/1000);
  ASSERT_TRUE(server.valid());

  const char message[] = "hdtest fleet";
  ASSERT_TRUE(net::send_all(client, message, sizeof message));
  char buf[64];
  std::size_t total = 0;
  while (total < sizeof message) {
    const long got = net::recv_some(server, buf + total,
                                    sizeof buf - total, /*timeout_ms=*/1000);
    ASSERT_GT(got, 0);
    total += static_cast<std::size_t>(got);
  }
  EXPECT_EQ(total, sizeof message);
  EXPECT_STREQ(buf, message);

  // Quiet peer: timeout is -1, not an error.
  EXPECT_EQ(net::recv_some(server, buf, sizeof buf, /*timeout_ms=*/10), -1);

  // Closed peer: clean 0.
  client.close();
  EXPECT_EQ(net::recv_some(server, buf, sizeof buf, /*timeout_ms=*/1000), 0);
}

TEST(Net, ConnectToClosedPortFailsWithoutThrowing) {
  // Bind-then-close to get a port that is very likely unused.
  std::uint16_t port = 0;
  {
    net::Socket listener = net::listen_tcp(0);
    port = net::local_port(listener);
  }
  EXPECT_FALSE(net::connect_tcp("127.0.0.1", port).valid());
}

TEST(Net, MonotonicClockAdvances) {
  const std::uint64_t before = net::now_ms();
  net::sleep_ms(2);
  EXPECT_GE(net::now_ms(), before);
}

}  // namespace
}  // namespace hdtest::util
