#include "server/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/string_utils.hpp"

namespace aadlsched::server {

namespace {

/// Largest read one recv asks for: a whole cruise-control request line
/// (~5.6 KB) arrives in one call, and a 16 MiB line in 256.
constexpr std::size_t kRecvBytes = std::size_t{64} << 10;

/// Send `line` and its newline in one sendmsg, so under TCP_NODELAY the
/// pair leaves as one segment and the reader wakes up once for it. A short
/// send continues where it stopped.
bool send_line(int fd, std::string_view line) {
  char newline = '\n';
  iovec iov[2] = {{const_cast<char*>(line.data()), line.size()},
                  {&newline, 1}};
  std::size_t first = 0;  // the first iovec with bytes left to send
  while (first < 2) {
    msghdr msg{};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = 2 - first;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    auto sent = static_cast<std::size_t>(n);
    while (first < 2 && sent >= iov[first].iov_len)
      sent -= iov[first++].iov_len;
    if (first < 2) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + sent;
      iov[first].iov_len -= sent;
    }
  }
  return true;
}

enum class RecvStatus : std::uint8_t {
  Line,     // `line` holds the next line
  Closed,   // EOF or a socket error with no complete line pending
  TooLong,  // the pending line exceeds kMaxLineBytes
};

/// Read up to the next '\n' into `line` (newline stripped), keeping any
/// overshoot in `rx` for the next call. recv writes straight into the
/// buffer's spare room, and only newly received bytes are scanned, so a
/// long line costs linear time; the line is copied out once.
RecvStatus recv_line(int fd, RxBuffer& rx, std::string& line) {
  std::size_t scanned = rx.begin;
  while (true) {
    const char* base = rx.bytes.data();
    const void* nl = std::memchr(base + scanned, '\n', rx.end - scanned);
    if (nl != nullptr) {
      const auto at =
          static_cast<std::size_t>(static_cast<const char*>(nl) - base);
      std::size_t len = at - rx.begin;
      if (len > kMaxLineBytes) return RecvStatus::TooLong;
      if (len > 0 && base[at - 1] == '\r') --len;
      line.assign(base + rx.begin, len);
      rx.begin = at + 1;
      if (rx.begin == rx.end) rx.begin = rx.end = 0;  // nothing pending
      return RecvStatus::Line;
    }
    if (rx.end - rx.begin > kMaxLineBytes) return RecvStatus::TooLong;
    if (rx.bytes.size() - rx.end < kRecvBytes && rx.begin > 0) {
      // Make room: move the pending bytes to the front.
      std::memmove(rx.bytes.data(), base + rx.begin, rx.end - rx.begin);
      rx.end -= rx.begin;
      rx.begin = 0;
    }
    // The string never shrinks, so growing it zeroes each byte only once.
    if (rx.bytes.size() - rx.end < kRecvBytes)
      rx.bytes.resize(rx.end + kRecvBytes);
    scanned = rx.end;
    const ssize_t n =
        ::recv(fd, rx.bytes.data() + rx.end, rx.bytes.size() - rx.end, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return RecvStatus::Closed;
    rx.end += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool parse_endpoint(std::string_view spec, std::string& host,
                    std::uint16_t& port) {
  const auto colon = spec.rfind(':');
  if (colon == std::string_view::npos) return false;
  host = std::string(spec.substr(0, colon));
  if (host.empty()) host = "127.0.0.1";
  const auto p = util::parse_int64(spec.substr(colon + 1));
  if (!p || *p < 1 || *p > 65535) return false;
  port = static_cast<std::uint16_t>(*p);
  return true;
}

// ---------------------------------------------------------------------------
// TcpServer
// ---------------------------------------------------------------------------

TcpServer::TcpServer(Service& service, TcpConfig cfg)
    : service_(service), cfg_(std::move(cfg)) {}

TcpServer::~TcpServer() { stop(); }

bool TcpServer::start(std::string& error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    error = "bad bind address '" + cfg_.host + "'";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    error = "bind " + cfg_.host + ":" + std::to_string(cfg_.port) + ": " +
            std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) < 0) {
    error = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void TcpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop()
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::vector<std::thread> done;
    {
      std::lock_guard lock(mu_);
      if (stopping_.load(std::memory_order_relaxed)) {
        ::close(fd);
        break;
      }
      // Reap the connections that ended since the last accept: an unjoined
      // thread keeps its stack mapped.
      const auto ended = std::partition(
          conn_threads_.begin(), conn_threads_.end(), [&](const auto& t) {
            return std::find(finished_.begin(), finished_.end(),
                             t.get_id()) == finished_.end();
          });
      done.assign(std::make_move_iterator(ended),
                  std::make_move_iterator(conn_threads_.end()));
      conn_threads_.erase(ended, conn_threads_.end());
      finished_.clear();
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { connection_loop(fd); });
    }
    for (std::thread& t : done) t.join();
  }
}

void TcpServer::connection_loop(int fd) {
  RxBuffer rx;
  std::string line;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const RecvStatus status = recv_line(fd, rx, line);
    if (status == RecvStatus::Closed) break;
    if (status == RecvStatus::TooLong) {
      // The rest of the line cannot be skipped without reading it, so the
      // connection ends here; the client learns why first.
      Response resp;
      resp.error = "request line exceeds " +
                   std::to_string(kMaxLineBytes >> 20) + " MiB";
      send_line(fd, render_response(resp));
      break;
    }
    if (line.empty()) continue;  // tolerate keep-alive blank lines
    if (!send_line(fd, service_.handle_line(line))) break;
    // A shutdown request flips the service; the connection ends after
    // the ok response has been sent so the client sees the ack.
    if (service_.shutting_down()) break;
  }
  // De-register before closing so stop() can never shut down a recycled
  // descriptor: an fd is either still listed (stop() pokes it under mu_) or
  // already owned again by this thread alone.
  {
    std::lock_guard lock(mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  // Last: the accept loop may join this thread as soon as it is listed.
  std::lock_guard lock(mu_);
  finished_.push_back(std::this_thread::get_id());
}

void TcpServer::stop() {
  if (stopping_.exchange(true)) {
    // A second caller (destructor after explicit stop) has nothing to join.
    return;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    // Poke live connections under the lock (see connection_loop teardown);
    // their threads erase and close the fds themselves.
    std::lock_guard lock(mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) t.join();
  listen_fd_ = -1;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::~Client() { close(); }

bool Client::connect(const std::string& host, std::uint16_t port,
                     std::string& error) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    error = "bad host '" + host + "' (numeric IPv4 expected)";
    close();
    return false;
  }
  const std::string where = host + ":" + std::to_string(port);
  if (timeouts_.connect_ms > 0) {
    // Non-blocking connect + poll, so an unroutable daemon address fails
    // after connect_ms instead of the kernel's multi-minute SYN backoff.
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc < 0 && errno == EINPROGRESS) {
      pollfd pfd{fd_, POLLOUT, 0};
      do {
        rc = ::poll(&pfd, 1, static_cast<int>(timeouts_.connect_ms));
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) {
        error = "connect " + where + ": timed out after " +
                std::to_string(static_cast<long>(timeouts_.connect_ms)) +
                " ms";
        close();
        return false;
      }
      int so_error = 0;
      socklen_t len = sizeof so_error;
      if (rc < 0 ||
          ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
          so_error != 0) {
        error = "connect " + where + ": " +
                std::strerror(so_error != 0 ? so_error : errno);
        close();
        return false;
      }
    } else if (rc < 0) {
      error = "connect " + where + ": " + std::strerror(errno);
      close();
      return false;
    }
    ::fcntl(fd_, F_SETFL, flags);  // back to blocking for line I/O
  } else if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) < 0) {
    error = "connect " + where + ": " + std::strerror(errno);
    close();
    return false;
  }
  if (timeouts_.io_ms > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeouts_.io_ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeouts_.io_ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return true;
}

bool Client::roundtrip(const std::string& request_line,
                       std::string& response_line, std::string& error) {
  if (fd_ < 0) {
    error = "not connected";
    return false;
  }
  if (!send_line(fd_, request_line)) {
    error = std::string("send: ") + std::strerror(errno);
    return false;
  }
  switch (recv_line(fd_, rx_, response_line)) {
    case RecvStatus::Line:
      break;
    case RecvStatus::TooLong:
      error = "response line exceeds " +
              std::to_string(kMaxLineBytes >> 20) + " MiB";
      close();  // the rest of the line would poison the next roundtrip
      return false;
    case RecvStatus::Closed:
      error = (errno == EAGAIN || errno == EWOULDBLOCK)
                  ? "receive timed out before a response arrived"
                  : "connection closed before a response arrived";
      return false;
  }
  return true;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.begin = rx_.end = 0;
}

}  // namespace aadlsched::server
