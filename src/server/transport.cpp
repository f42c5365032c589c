#include "server/transport.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace abc::server {
namespace {

// Leaked (like the global registry) so frames sent during static teardown
// still have live handles. Counts both directions of both UDS endpoints —
// the process-level wire traffic view.
struct TransportMetrics {
  obs::Counter bytes_in =
      obs::registry().counter(obs::catalog::kTransportBytesIn);
  obs::Counter bytes_out =
      obs::registry().counter(obs::catalog::kTransportBytesOut);
  obs::Counter frame_errors =
      obs::registry().counter(obs::catalog::kTransportFrameErrors);
};

TransportMetrics& transport_metrics() {
  static TransportMetrics* m = new TransportMetrics;
  return *m;
}

// Frame = u32 length (LE) || bytes. The length is a *claim* by the peer;
// both sides bound it against their own limit before reserving anything.

bool send_all(int fd, const u8* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Returns false on EOF-before-first-byte; throws on a mid-frame error.
bool recv_all(int fd, u8* data, std::size_t len) {
  bool any = false;
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("uds recv failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      if (any) throw std::runtime_error("uds peer closed mid-frame");
      return false;
    }
    any = true;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool send_frame(int fd, std::span<const u8> bytes) {
  ABC_CHECK_ARG(bytes.size() <= 0xffffffffu, "frame exceeds u32 length");
  u8 header[4];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<u8>(bytes.size() >> (8 * i));
  }
  if (!send_all(fd, header, 4) ||
      !send_all(fd, bytes.data(), bytes.size())) {
    return false;
  }
  transport_metrics().bytes_out.inc(4 + bytes.size());
  return true;
}

/// Reads one frame into @p out. Returns false on clean EOF. @p max_bytes
/// bounds the claimed length before the buffer is reserved.
bool recv_frame(int fd, std::vector<u8>& out, std::size_t max_bytes) {
  u8 header[4];
  try {
    if (!recv_all(fd, header, 4)) return false;
  } catch (...) {
    transport_metrics().frame_errors.inc();  // peer died inside the header
    throw;
  }
  u64 len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<u64>(header[i]) << (8 * i);
  try {
    if (len > max_bytes) {
      throw InvalidArgument("framed message claims " + std::to_string(len) +
                            " bytes, above the transport bound");
    }
    out.resize(static_cast<std::size_t>(len));
    if (len > 0 && !recv_all(fd, out.data(), out.size())) {
      throw std::runtime_error("uds peer closed mid-frame");
    }
  } catch (...) {
    // Every post-header failure — oversize claim, mid-frame EOF, socket
    // error — leaves the stream unrecoverable: one frame error each.
    transport_metrics().frame_errors.inc();
    throw;
  }
  transport_metrics().bytes_in.inc(4 + len);
  return true;
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ABC_CHECK_ARG(path.size() < sizeof(addr.sun_path),
                "unix socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

// -- UdsServer ---------------------------------------------------------------

UdsServer::UdsServer(Server& server, std::string path)
    : server_(server), path_(std::move(path)) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("uds socket failed: ") +
                             std::strerror(errno));
  }
  ::unlink(path_.c_str());  // stale socket from a crashed predecessor
  const sockaddr_un addr = make_addr(path_);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("uds bind/listen failed: ") +
                             std::strerror(err));
  }
  listen_fd_.store(fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

UdsServer::~UdsServer() { stop(); }

std::size_t UdsServer::max_frame_bytes() const noexcept {
  // The daemon bounds the payload; the frame adds the fixed-field envelope
  // (magic, ids, op, error text) — 1 MiB of slack covers it many times
  // over without weakening the admission story.
  return server_.config().max_request_bytes + (1u << 20);
}

void UdsServer::stop() {
  if (stopping_.exchange(true)) return;
  const int lfd = listen_fd_.load(std::memory_order_acquire);
  if (lfd >= 0) ::shutdown(lfd, SHUT_RDWR);  // wakes a blocked ::accept
  if (accept_thread_.joinable()) accept_thread_.join();
  if (lfd >= 0) {
    ::close(lfd);  // only after the join: the fd number must not be
    listen_fd_.store(-1, std::memory_order_release);  // reused mid-accept
  }
  // accept_loop has exited, so conns_ only shrinks from here: wake every
  // blocked read and wait for each connection to retire itself.
  std::vector<std::thread> done;
  {
    std::unique_lock<std::mutex> lock(conns_m_);
    for (const Connection& c : conns_) ::shutdown(c.fd, SHUT_RDWR);
    conns_cv_.wait(lock, [this] { return conns_.empty(); });
    done.swap(finished_);
  }
  for (auto& t : done) t.join();
  ::unlink(path_.c_str());
}

void UdsServer::accept_loop() {
  const int lfd = listen_fd_.load(std::memory_order_acquire);
  while (!stopping_.load(std::memory_order_acquire)) {
    std::vector<std::thread> done;
    {
      std::lock_guard<std::mutex> lock(conns_m_);
      done.swap(finished_);
    }
    for (auto& t : done) t.join();

    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ECONNABORTED) {
        // Transient: fds come back as connections retire, and an aborted
        // peer only costs this one accept.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      return;  // stop() shut the listener down (or it truly broke)
    }
    std::lock_guard<std::mutex> lock(conns_m_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    const auto conn = conns_.insert(conns_.end(), Connection{fd, {}});
    // The thread reads conn->fd, set before it starts; retire() reads
    // conn->thread under conns_m_, which is held until it is assigned.
    conn->thread = std::thread([this, conn] {
      serve_connection(conn->fd);
      retire(conn);
    });
  }
}

void UdsServer::retire(std::list<Connection>::iterator conn) {
  std::lock_guard<std::mutex> lock(conns_m_);
  ::close(conn->fd);
  finished_.push_back(std::move(conn->thread));
  conns_.erase(conn);
  conns_cv_.notify_all();
}

void UdsServer::serve_connection(int fd) {
  std::vector<u8> frame;
  while (!stopping_.load(std::memory_order_acquire)) {
    ckks::ResponseFrame resp;
    try {
      if (!recv_frame(fd, frame, max_frame_bytes())) return;  // clean EOF
    } catch (const InvalidArgument& e) {
      // Oversized claim: answer typed, then drop the connection — the
      // unread payload makes the stream unrecoverable.
      resp.status = static_cast<u8>(Status::kTooLarge);
      resp.error = e.what();
      send_frame(fd, ckks::serialize_response_frame(resp));
      return;
    } catch (const std::exception&) {
      return;  // broken pipe mid-frame; nothing sane to answer
    }

    try {
      ckks::RequestFrame req = ckks::deserialize_request_frame(frame);
      resp = server_.call(std::move(req));
    } catch (const InvalidArgument& e) {
      resp.status = static_cast<u8>(Status::kBadRequest);
      resp.error = e.what();
    } catch (const std::exception& e) {
      resp.status = static_cast<u8>(Status::kInternal);
      resp.error = e.what();
    }
    if (!send_frame(fd, ckks::serialize_response_frame(resp))) return;
  }
}

// -- UdsChannel --------------------------------------------------------------

UdsChannel::UdsChannel(const std::string& path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("uds socket failed: ") +
                             std::strerror(errno));
  }
  const sockaddr_un addr = make_addr(path);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(std::string("uds connect failed: ") +
                             std::strerror(err));
  }
}

UdsChannel::~UdsChannel() {
  if (fd_ >= 0) ::close(fd_);
}

ckks::ResponseFrame UdsChannel::call(const ckks::RequestFrame& request) {
  return call_bytes(ckks::serialize_request_frame(request));
}

ckks::ResponseFrame UdsChannel::call_bytes(
    std::span<const u8> request_frame) {
  std::lock_guard<std::mutex> lock(m_);
  if (!send_frame(fd_, request_frame)) {
    throw std::runtime_error("uds send failed: connection lost");
  }
  std::vector<u8> frame;
  // The client trusts its own server a little further than the server
  // trusts clients, but still bounds the claim (responses can't exceed
  // what a request could produce by much).
  if (!recv_frame(fd_, frame, (1u << 30))) {
    throw std::runtime_error("uds server closed the connection");
  }
  return ckks::deserialize_response_frame(frame);
}

// -- session plumbing --------------------------------------------------------

u64 register_over_channel(Channel& channel, std::size_t param_index,
                          const engine::KeyBundle& bundle) {
  ckks::KeyBundleFrames frames;
  frames.public_key = bundle.public_key;
  frames.relin_key = bundle.relin_key;
  frames.galois_keys = bundle.galois_keys;

  ckks::RequestFrame req;
  req.op = static_cast<u8>(Op::kRegister);
  req.op_arg = static_cast<i64>(param_index);
  req.payload = ckks::serialize_key_bundle(frames);

  const ckks::ResponseFrame resp = channel.call(req);
  if (resp.status != static_cast<u8>(Status::kOk)) {
    throw std::runtime_error(
        "tenant registration failed (" +
        std::string(status_name(static_cast<Status>(resp.status))) +
        "): " + resp.error);
  }
  ABC_CHECK_STATE(resp.payload.size() == 8,
                  "registration response payload is not a tenant id");
  u64 id = 0;
  for (int i = 0; i < 8; ++i) {
    id |= static_cast<u64>(resp.payload[static_cast<std::size_t>(i)])
          << (8 * i);
  }
  return id;
}

engine::ClientSession::Transport as_session_transport(Channel& channel,
                                                      u64 tenant, Op op,
                                                      i64 op_arg) {
  // One monotone request-id stream per adapter, shared across copies of
  // the callable (ClientSession may copy its Transport).
  auto next_id = std::make_shared<std::atomic<u64>>(1);
  return [&channel, tenant, op, op_arg,
          next_id](std::span<const u8> upload) -> std::vector<u8> {
    ckks::RequestFrame req;
    req.tenant = tenant;
    req.request_id = next_id->fetch_add(1, std::memory_order_relaxed);
    req.op = static_cast<u8>(op);
    req.op_arg = op_arg;
    req.payload.assign(upload.begin(), upload.end());
    ckks::ResponseFrame resp = channel.call(req);
    if (resp.status != static_cast<u8>(Status::kOk)) {
      throw std::runtime_error(
          "server answered " +
          std::string(status_name(static_cast<Status>(resp.status))) +
          ": " + resp.error);
    }
    return std::move(resp.payload);
  };
}

}  // namespace abc::server
