// Transport: the byte-frame seam between a replication leader and its
// follower.
//
// The replication layer (service/replication.hpp) is written against this
// tiny interface — send one opaque frame, receive one opaque frame — so the
// same shipper/follower code runs over two very different links:
//
//   * LoopbackTransport — an in-process bounded queue pair.  Deterministic,
//     no file descriptors, and the place where the transport fault matrix
//     lives: the send side consults common/fault_injection for seeded
//     drop / duplicate / reorder / truncate / link-down schedules, so every
//     network pathology is reproducible in a unit test.
//   * SocketTransport — a Unix-domain stream socket with u32 length-prefix
//     framing, for separate processes on one host (or a chaos script
//     kill -9'ing the leader process mid-stream).
//
// Frames are opaque byte strings here; integrity (CRC) and ordering
// (sequence numbers, epochs, fencing generations) are the replication
// protocol's job — precisely BECAUSE this layer is allowed to lose, repeat,
// reorder, and cut frames.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/assert.hpp"

namespace gapart {

/// The link failed (connection refused/reset, bounded queue overflow, an
/// injected partition).  Frames already handed to send() may or may not
/// arrive; the replication layer must treat this as "unknown" and resume
/// from the follower's acknowledged position after reconnecting.
class TransportError : public IoError {
 public:
  explicit TransportError(const std::string& what) : IoError(what) {}
};

/// One direction-agnostic endpoint of a frame link.  Implementations are
/// thread-safe for one sender plus one receiver thread.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Queues/writes one frame.  Throws TransportError when the link is down
  /// or the peer's inbound queue is full (backpressure).
  virtual void send(const std::string& frame) = 0;

  /// Next inbound frame, or nullopt after `timeout_seconds` with nothing to
  /// read (0 = poll without blocking).  Returns nullopt forever once the
  /// peer has closed and the queue is drained — check peer_closed().
  virtual std::optional<std::string> receive(double timeout_seconds) = 0;

  /// True once the other endpoint has closed (EOF) — a drained receive()
  /// will never yield another frame.
  virtual bool peer_closed() const = 0;

  /// Closes this endpoint; the peer observes EOF after draining.
  virtual void close() = 0;
};

/// In-process pair of endpoints over two bounded queues.  All the
/// fault-matrix behaviour (drop/dup/reorder/truncate via FaultSite, plus an
/// explicit set_link_down switch for partition tests) happens on the send
/// side, so the receive side sees exactly what a faulty network delivers.
class LoopbackTransport : public Transport {
 public:
  /// Connected (leader_end, follower_end) pair.  `max_queued_frames` bounds
  /// each direction; a full queue makes send() throw TransportError
  /// (backpressure, not silent loss).
  static std::pair<std::unique_ptr<LoopbackTransport>,
                   std::unique_ptr<LoopbackTransport>>
  create_pair(std::size_t max_queued_frames = 1024);

  ~LoopbackTransport() override;

  void send(const std::string& frame) override;
  std::optional<std::string> receive(double timeout_seconds) override;
  bool peer_closed() const override;
  void close() override;

  /// Explicit link partition: while down, send() throws TransportError in
  /// BOTH directions (set on either endpoint).  Frames already queued stay
  /// queued — a partition cuts the link, it does not eat the queue.
  void set_link_down(bool down);

  /// Frames currently queued toward this endpoint (test/metrics hook).
  std::size_t pending() const;

  LoopbackTransport(const LoopbackTransport&) = delete;
  LoopbackTransport& operator=(const LoopbackTransport&) = delete;

 private:
  LoopbackTransport();
  struct Shared;
  std::shared_ptr<Shared> shared_;
  int side_ = 0;  ///< which of the two directions this endpoint reads
};

/// Unix-domain stream-socket endpoint with u32 little-endian length-prefix
/// framing.  Blocking connect/accept; poll()-based receive.
class SocketTransport : public Transport {
 public:
  /// Binds + listens on a Unix socket path, accepts ONE peer, returns the
  /// connected endpoint.  Removes a stale socket file first.
  static std::unique_ptr<SocketTransport> listen_unix(const std::string& path);
  static std::unique_ptr<SocketTransport> connect_unix(const std::string& path);

  ~SocketTransport() override;

  void send(const std::string& frame) override;
  std::optional<std::string> receive(double timeout_seconds) override;
  bool peer_closed() const override;
  void close() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

 private:
  explicit SocketTransport(int fd);

  int fd_ = -1;
  bool peer_closed_ = false;
  std::string carry_;  ///< partial frame bytes across receive() timeouts
};

}  // namespace gapart
