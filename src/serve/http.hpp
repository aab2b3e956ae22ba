// Minimal HTTP/1.0 server for the serving process's query surface. One
// background acceptor thread, one connection at a time (requests are tiny
// GETs and handlers only copy published state, so concurrency buys
// nothing), `Connection: close` on every response. Each connection gets a
// fixed deadline to deliver its request head (408 past it), so a silent
// or trickling client can neither starve later requests nor hang stop().
// Binds loopback only; port 0 asks the kernel for an ephemeral port
// (`port()` reports the choice), which is what the tests and the CI smoke
// use.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

namespace origin::serve {

struct HttpRequest {
  std::string method;
  std::string target;  // as sent: path plus optional "?query"
  std::string path;    // target up to '?'
  std::string query;   // after '?', empty when absent
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Reason phrase for the handful of statuses the endpoint emits.
std::string status_reason(int status);

/// Serializes a response in HTTP/1.0 wire format (status line,
/// Content-Type, Content-Length, Connection: close, body).
std::string to_wire(const HttpResponse& response);

/// First value of `key` in an "a=1&b=2" query string, or `fallback`.
std::string query_param(const std::string& query, const std::string& key,
                        const std::string& fallback = "");

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned) and serves `handler`
  /// from a background thread until stop()/destruction. Throws
  /// std::runtime_error when the socket cannot be created or bound.
  explicit HttpServer(Handler handler, std::uint16_t port = 0);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Stops accepting, joins the acceptor thread, closes the socket.
  /// Idempotent.
  void stop();

 private:
  void run();
  void serve_client(int fd);

  Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace origin::serve
