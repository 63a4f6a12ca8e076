// Transport seam: loopback pair semantics (ordering, bounded-queue
// backpressure, link partitions, close/EOF), the seeded transport fault
// matrix (drop/dup/reorder/truncate at the send side), and socket framing
// over Unix-domain links.  Companion: test_replication.cpp drives
// the replication protocol through the same seam.
#include "service/transport.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"

namespace gapart {
namespace {

TEST(TransportLoopback, DeliversFramesInOrder) {
  auto [leader, follower] = LoopbackTransport::create_pair();
  leader->send("alpha");
  leader->send("beta");
  leader->send("gamma");
  EXPECT_EQ(follower->pending(), 3u);
  EXPECT_EQ(follower->receive(0.0), "alpha");
  EXPECT_EQ(follower->receive(0.0), "beta");
  EXPECT_EQ(follower->receive(0.0), "gamma");
  EXPECT_FALSE(follower->receive(0.0).has_value());

  // Both directions are independent.
  follower->send("ack");
  EXPECT_EQ(leader->receive(0.0), "ack");
}

TEST(TransportLoopback, BoundedQueueBackpressures) {
  auto [a, b] = LoopbackTransport::create_pair(/*max_queued_frames=*/2);
  a->send("one");
  a->send("two");
  EXPECT_THROW(a->send("three"), TransportError);
  // Draining makes room again: backpressure, not frame loss.
  EXPECT_EQ(b->receive(0.0), "one");
  a->send("three");
  EXPECT_EQ(b->receive(0.0), "two");
  EXPECT_EQ(b->receive(0.0), "three");
}

TEST(TransportLoopback, LinkPartitionCutsBothDirectionsButKeepsQueue) {
  auto [a, b] = LoopbackTransport::create_pair();
  a->send("before");
  a->set_link_down(true);
  EXPECT_THROW(a->send("during"), TransportError);
  EXPECT_THROW(b->send("during"), TransportError);
  // A partition cuts the link; it does not eat what was already in flight.
  EXPECT_EQ(b->receive(0.0), "before");
  a->set_link_down(false);
  a->send("after");
  EXPECT_EQ(b->receive(0.0), "after");
}

TEST(TransportLoopback, CloseSurfacesAsPeerClosedAfterDrain) {
  auto [a, b] = LoopbackTransport::create_pair();
  a->send("last");
  a->close();
  EXPECT_FALSE(b->peer_closed());  // one frame still queued
  EXPECT_EQ(b->receive(0.0), "last");
  EXPECT_TRUE(b->peer_closed());
  EXPECT_FALSE(b->receive(0.0).has_value());
  EXPECT_THROW(b->send("into the void"), TransportError);
}

TEST(TransportLoopback, ReceiveTimeoutReturnsEmpty) {
  auto [a, b] = LoopbackTransport::create_pair();
  (void)a;
  EXPECT_FALSE(b->receive(0.01).has_value());
}

// ---------------------------------------------------------------------------
// The fault matrix: every network pathology, surgically injectable.

#if GAPART_FAULT_INJECTION

TEST(TransportFaults, SendFaultThrowsAndLosesNothingQueued) {
  auto [a, b] = LoopbackTransport::create_pair();
  a->send("first");
  {
    ScopedFaultInjection scope(FaultSite::kTransportSend, 1);
    EXPECT_THROW(a->send("second"), TransportError);
  }
  a->send("third");
  EXPECT_EQ(b->receive(0.0), "first");
  EXPECT_EQ(b->receive(0.0), "third");
  EXPECT_FALSE(b->receive(0.0).has_value());
}

TEST(TransportFaults, DropLosesExactlyTheFaultedFrame) {
  auto [a, b] = LoopbackTransport::create_pair();
  {
    ScopedFaultInjection scope(FaultSite::kTransportDrop, 2);
    a->send("kept");
    a->send("dropped");
    a->send("also kept");
  }
  EXPECT_EQ(b->receive(0.0), "kept");
  EXPECT_EQ(b->receive(0.0), "also kept");
  EXPECT_FALSE(b->receive(0.0).has_value());
}

TEST(TransportFaults, DupDeliversTheFrameTwice) {
  auto [a, b] = LoopbackTransport::create_pair();
  {
    ScopedFaultInjection scope(FaultSite::kTransportDup, 1);
    a->send("echo");
  }
  EXPECT_EQ(b->receive(0.0), "echo");
  EXPECT_EQ(b->receive(0.0), "echo");
  EXPECT_FALSE(b->receive(0.0).has_value());
}

TEST(TransportFaults, ReorderOvertakesThePredecessor) {
  auto [a, b] = LoopbackTransport::create_pair();
  {
    ScopedFaultInjection scope(FaultSite::kTransportReorder, 2);
    a->send("first");
    a->send("second");  // injected: arrives before "first"
  }
  EXPECT_EQ(b->receive(0.0), "second");
  EXPECT_EQ(b->receive(0.0), "first");
}

TEST(TransportFaults, TruncateCutsTheFrameShort) {
  auto [a, b] = LoopbackTransport::create_pair();
  const std::string frame(90, 'x');
  {
    ScopedFaultInjection scope(FaultSite::kTransportTruncate, 1);
    a->send(frame);
  }
  const auto got = b->receive(0.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_LT(got->size(), frame.size());
  EXPECT_EQ(*got, frame.substr(0, got->size()));
}

#else  // !GAPART_FAULT_INJECTION

TEST(TransportFaults, SendFaultThrowsAndLosesNothingQueued) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
TEST(TransportFaults, DropLosesExactlyTheFaultedFrame) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
TEST(TransportFaults, DupDeliversTheFrameTwice) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
TEST(TransportFaults, ReorderOvertakesThePredecessor) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
TEST(TransportFaults, TruncateCutsTheFrameShort) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}

#endif  // GAPART_FAULT_INJECTION

// ---------------------------------------------------------------------------
// Sockets: real byte streams with u32 length-prefix framing.

void exercise_stream_pair(Transport& client, Transport& server) {
  client.send("ping");
  EXPECT_EQ(server.receive(5.0), "ping");
  server.send("pong");
  EXPECT_EQ(client.receive(5.0), "pong");

  // A frame larger than one read() buffer exercises reassembly, and an
  // empty frame exercises the zero-length edge.  The frame must still fit
  // the kernel socket buffer: this test is single-threaded, so a blocking
  // send with no concurrent reader would deadlock.
  const std::string big(100000, 'z');
  client.send(big);
  client.send("");
  client.send("tail");
  EXPECT_EQ(server.receive(5.0), big);
  EXPECT_EQ(server.receive(5.0), "");
  EXPECT_EQ(server.receive(5.0), "tail");

  client.close();
  EXPECT_FALSE(server.receive(5.0).has_value());
  EXPECT_TRUE(server.peer_closed());
}

TEST(TransportSocket, UnixRoundTripAndEof) {
  const std::string path =
      std::string(::testing::TempDir()) + "/gapart_transport.sock";
  std::unique_ptr<SocketTransport> server;
  std::thread accepter(
      [&] { server = SocketTransport::listen_unix(path); });
  std::unique_ptr<SocketTransport> client;
  for (int attempt = 0; attempt < 200 && client == nullptr; ++attempt) {
    try {
      client = SocketTransport::connect_unix(path);
    } catch (const TransportError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  accepter.join();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  exercise_stream_pair(*client, *server);
}

/// A plain stream socket connected to the Unix socket at `path`, or -1.
int connect_raw_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(TransportSocket, UnixResetAfterFramesDeliversThemThenEnds) {
  // A peer killed with data still unread in its own receive queue resets
  // the connection instead of closing it: the reader gets the bytes the
  // peer sent, then ECONNRESET, then EOF.  The frames it sent before the
  // reset must still be delivered, and the reset must then read as end of
  // stream rather than as an error.
  const std::string path =
      std::string(::testing::TempDir()) + "/gapart_transport_reset.sock";
  std::unique_ptr<SocketTransport> server;
  std::thread accepter(
      [&] { server = SocketTransport::listen_unix(path); });
  int peer = -1;
  for (int attempt = 0; attempt < 200 && peer < 0; ++attempt) {
    peer = connect_raw_unix(path);
    if (peer < 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  accepter.join();
  ASSERT_GE(peer, 0);
  ASSERT_NE(server, nullptr);

  server->send("never read");  // stays queued at the peer
  for (const std::string frame : {"first", "second"}) {
    const auto len = static_cast<std::uint32_t>(frame.size());
    std::string wire(sizeof(len), '\0');
    std::memcpy(wire.data(), &len, sizeof(len));
    wire += frame;
    ASSERT_EQ(::write(peer, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
  }
  ::close(peer);

  EXPECT_EQ(server->receive(5.0), "first");
  EXPECT_EQ(server->receive(5.0), "second");
  EXPECT_FALSE(server->receive(5.0).has_value());
  EXPECT_TRUE(server->peer_closed());
}

}  // namespace
}  // namespace gapart
