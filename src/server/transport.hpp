#pragma once

/// @file transport.hpp
/// The pluggable transport seam between clients and the serving daemon.
///
/// A Channel is one tenant-side connection: it carries an "ABCQ" request
/// frame to a Server and returns the "ABCS" response. Two implementations
/// ship:
///
///  * LoopbackChannel — in-process, zero-copy into Server::submit; the
///    form every test battery uses by default (deterministic, no fds);
///  * UdsChannel / UdsServer — AF_UNIX SOCK_STREAM with 4-byte LE length
///    framing, proving the frames survive a real byte pipe. The length
///    prefix is bounded *before* any allocation — an adversarial peer can
///    name a huge frame but never make either side reserve it.
///
/// as_session_transport() adapts a Channel into the
/// engine::ClientSession::Transport callable, so the PR 5 retrying
/// round-trip facade drives the daemon unchanged: upload "ABCB" bytes go
/// in as a request payload, the response payload comes back as the
/// download envelope, and any non-ok status surfaces as the throw that
/// round_trip_with_retry already treats as a failed round.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/client_session.hpp"
#include "server/server.hpp"

namespace abc::server {

/// One client-side connection to a serving daemon.
class Channel {
 public:
  virtual ~Channel() = default;

  /// Carries @p request to the server and returns its response. Throws on
  /// *transport* failure (broken pipe, malformed peer bytes); application
  /// failures come back as the response's typed status.
  virtual ckks::ResponseFrame call(const ckks::RequestFrame& request) = 0;
};

/// In-process transport: call() is Server::call(). What the soak and
/// determinism suites use — every observable behavior except the byte
/// pipe is identical to the socket path.
class LoopbackChannel final : public Channel {
 public:
  explicit LoopbackChannel(Server& server) : server_(server) {}

  ckks::ResponseFrame call(const ckks::RequestFrame& request) override {
    return server_.call(request);
  }

 private:
  Server& server_;
};

/// Accepts AF_UNIX connections on @p path and serves framed requests
/// against @p server: one accept thread, one thread per connection, each
/// request answered in order on its connection. Frames are
/// `u32 length (LE) || bytes`; a length above max_frame_bytes() is
/// rejected with a typed kTooLarge response and the connection closed —
/// without ever allocating the named amount. A connection that ends closes
/// its fd at once, and the accept thread joins its thread before the next
/// accept, so a long-lived daemon holds fds and threads only for open
/// connections. Running out of fds (EMFILE/ENFILE) or a peer aborting
/// before accept (ECONNABORTED) backs off and retries.
class UdsServer {
 public:
  UdsServer(Server& server, std::string path);
  ~UdsServer();

  UdsServer(const UdsServer&) = delete;
  UdsServer& operator=(const UdsServer&) = delete;

  const std::string& path() const noexcept { return path_; }

  /// Admission bound on a framed request: the daemon's payload bound plus
  /// envelope slack.
  std::size_t max_frame_bytes() const noexcept;

  /// Stops accepting, unblocks in-flight reads, joins every thread, and
  /// removes the socket file. Idempotent.
  void stop();

 private:
  struct Connection {
    int fd;
    std::thread thread;
  };

  void accept_loop();
  void serve_connection(int fd);
  /// Runs last on a connection's own thread: closes its fd, drops it from
  /// conns_ and hands the thread to finished_ for joining.
  void retire(std::list<Connection>::iterator conn);

  Server& server_;
  std::string path_;
  // Atomic: stop() publishes the shutdown while accept_loop() still reads
  // the fd for ::accept. The fd itself is only closed after the accept
  // thread is joined, so its number can't be reused under a live accept.
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conns_m_;
  std::condition_variable conns_cv_;  // signalled by retire()
  std::list<Connection> conns_;       // open connections (for shutdown)
  std::vector<std::thread> finished_;  // retired, not yet joined
};

/// Client side of the socket transport. call() is serialized internally,
/// so one channel may be shared, but each client thread usually opens its
/// own (connections are cheap, and per-thread channels exercise the
/// daemon's cross-connection concurrency).
class UdsChannel final : public Channel {
 public:
  explicit UdsChannel(const std::string& path);
  ~UdsChannel();

  UdsChannel(const UdsChannel&) = delete;
  UdsChannel& operator=(const UdsChannel&) = delete;

  ckks::ResponseFrame call(const ckks::RequestFrame& request) override;

  /// Carries one already-encoded "ABCQ" frame, whatever its bytes: the
  /// daemon answers an undecodable frame with a typed kBadRequest.
  ckks::ResponseFrame call_bytes(std::span<const u8> request_frame);

 private:
  int fd_ = -1;
  std::mutex m_;  // one in-flight request per connection
};

/// Registers @p bundle (a ClientSession key upload) with the daemon behind
/// @p channel under parameter-menu index @p param_index. Returns the
/// assigned tenant id; throws std::runtime_error when the daemon answers
/// with a non-ok status.
u64 register_over_channel(Channel& channel, std::size_t param_index,
                          const engine::KeyBundle& bundle);

/// Adapts a Channel into the ClientSession::Transport callable: each
/// upload ships as one request frame for @p tenant running @p op with
/// @p op_arg, and the response payload is the download envelope. A non-ok
/// status throws (which round_trip_with_retry records as that round's
/// failure and retries).
engine::ClientSession::Transport as_session_transport(Channel& channel,
                                                      u64 tenant, Op op,
                                                      i64 op_arg = 0);

}  // namespace abc::server
