#include "serve/http.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>

namespace origin::serve {

namespace {

/// A client has this long, from accept, to deliver its request head;
/// past it the server answers 408 and closes. The cap is on the whole
/// request, so a client trickling one byte at a time cannot hold the
/// (single-client) server longer than a silent one.
constexpr std::chrono::milliseconds kRequestDeadline{2000};
/// Each recv is preceded by a poll of at most this long, so stop() is
/// honored promptly even while a client holds the connection.
constexpr std::chrono::milliseconds kPollSlice{50};

}  // namespace

std::string status_reason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    default:
      return "Internal Server Error";
  }
}

std::string to_wire(const HttpResponse& response) {
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    status_reason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

std::string query_param(const std::string& query, const std::string& key,
                        const std::string& fallback) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    pos = amp + 1;
  }
  return fallback;
}

HttpServer::HttpServer(Handler handler, std::uint16_t port)
    : handler_(std::move(handler)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("HttpServer: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: cannot bind 127.0.0.1:" +
                             std::to_string(port));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { run(); });
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::run() {
  // Poll with a short timeout so stop() is honored within ~200 ms even
  // when no client ever connects.
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    serve_client(fd);
    ::close(fd);
  }
}

void HttpServer::serve_client(int fd) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + kRequestDeadline;
  // The response send is bounded too: a client that never reads cannot
  // block the server on a full socket buffer.
  const timeval send_timeout{
      static_cast<time_t>(kRequestDeadline.count() / 1000),
      static_cast<suseconds_t>((kRequestDeadline.count() % 1000) * 1000)};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof send_timeout);

  std::string request_bytes;
  char buf[2048];
  bool timed_out = false;
  while (request_bytes.find("\r\n\r\n") == std::string::npos &&
         request_bytes.size() < 16384) {
    if (stop_.load(std::memory_order_relaxed)) return;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::min(left, kPollSlice).count()));
    if (ready == 0 || (ready < 0 && errno == EINTR)) continue;
    if (ready < 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    request_bytes.append(buf, static_cast<std::size_t>(n));
  }

  HttpResponse response;
  const std::size_t line_end = request_bytes.find("\r\n");
  const std::string line = request_bytes.substr(
      0, line_end == std::string::npos ? request_bytes.size() : line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (timed_out) {
    response = {408, "application/json", "{\"error\":\"request timeout\"}\n"};
  } else if (sp2 == std::string::npos) {
    response = {400, "application/json", "{\"error\":\"malformed request\"}\n"};
  } else {
    HttpRequest request;
    request.method = line.substr(0, sp1);
    request.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t q = request.target.find('?');
    request.path = request.target.substr(0, q);
    request.query =
        q == std::string::npos ? std::string() : request.target.substr(q + 1);
    try {
      response = handler_(request);
    } catch (const std::exception&) {
      response = {500, "application/json", "{\"error\":\"internal\"}\n"};
    }
  }

  // MSG_NOSIGNAL: a client that hangs up early must not SIGPIPE the
  // serving process.
  const std::string wire = to_wire(response);
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace origin::serve
