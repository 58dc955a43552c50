#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "stats.hpp"

namespace perfbench {
namespace {

// At most 2 concurrent connections carry the load.
constexpr std::size_t kSenders = 2;

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t sent = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto lower = [](char c) {
      return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
    };
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

HttpClient::~HttpClient() { close_connection(); }

bool HttpClient::open() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;
    close_connection();
    errno = saved;
    return false;
  }
  ++connections_opened_;
  return true;
}

void HttpClient::close_connection() {
  if (fd_ < 0) return;
  // Abortive close (RST): the generator opens thousands of connections
  // a second, and TIME_WAIT entries from graceful closes would exhaust
  // loopback ephemeral ports within seconds and linger into later runs.
  const linger abort_on_close{1, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &abort_on_close,
               sizeof(abort_on_close));
  ::close(fd_);
  fd_ = -1;
}

HttpReply HttpClient::request(std::string_view method,
                              std::string_view target) {
  std::string wire;
  wire.reserve(target.size() + 64);
  wire.append(method).append(" ").append(target);
  wire.append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  const bool reused = fd_ >= 0;
  bool retry = false;
  HttpReply reply = exchange(wire, &retry);
  // A kept-open connection the server has since closed fails before any
  // byte arrives; that one request is retried on a fresh connection.
  if (!reply.transport_ok && reused && retry) reply = exchange(wire, &retry);
  return reply;
}

HttpReply HttpClient::exchange(std::string_view wire, bool* retry_on_fresh) {
  HttpReply reply;
  *retry_on_fresh = false;
  if (fd_ < 0 && !open()) {
    reply.error = std::string("connect: ") + std::strerror(errno);
    return reply;
  }
  if (!send_all(fd_, wire)) {
    reply.error = std::string("send: ") + std::strerror(errno);
    close_connection();
    *retry_on_fresh = true;
    return reply;
  }
  std::string raw;
  char chunk[65536];
  std::size_t header_end = std::string::npos;
  while (header_end == std::string::npos) {
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      reply.error = raw.empty() ? "connection closed before response"
                                : "truncated response head";
      *retry_on_fresh = raw.empty();
      close_connection();
      return reply;
    }
    raw.append(chunk, static_cast<std::size_t>(got));
    header_end = raw.find("\r\n\r\n");
  }
  const std::string_view head(raw.data(), header_end);
  const std::size_t space = head.find(' ');
  if (head.substr(0, 5) != "HTTP/" || space == std::string_view::npos) {
    reply.error = "malformed status line";
    close_connection();
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + space + 1);
  bool keep_alive = head.substr(0, 8) == "HTTP/1.1";
  long long content_length = -1;
  std::size_t line_begin = head.find("\r\n");
  while (line_begin != std::string_view::npos && line_begin < head.size()) {
    line_begin += 2;
    std::size_t line_end = head.find("\r\n", line_begin);
    if (line_end == std::string_view::npos) line_end = head.size();
    const std::string_view line = head.substr(line_begin, line_end - line_begin);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      const std::string_view name = trim(line.substr(0, colon));
      const std::string_view value = trim(line.substr(colon + 1));
      if (iequals(name, "Content-Length")) {
        content_length = std::atoll(std::string(value).c_str());
      } else if (iequals(name, "Connection")) {
        keep_alive = iequals(value, "keep-alive");
      }
    }
    line_begin = line_end;
  }
  reply.body = raw.substr(header_end + 4);
  if (content_length < 0) keep_alive = false;  // body runs to EOF
  while (content_length < 0 ||
         reply.body.size() < static_cast<std::size_t>(content_length)) {
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    reply.body.append(chunk, static_cast<std::size_t>(got));
  }
  if (content_length >= 0 &&
      reply.body.size() != static_cast<std::size_t>(content_length)) {
    reply.error = "body length " + std::to_string(reply.body.size()) +
                  " != Content-Length " + std::to_string(content_length);
    close_connection();
    return reply;
  }
  if (!keep_alive) close_connection();
  reply.transport_ok = true;
  return reply;
}

bool reply_matches(const Target& target, const HttpReply& reply) {
  return reply.transport_ok && reply.status == target.status &&
         target.body != nullptr && reply.body == *target.body;
}

PhaseResult run_open_loop(std::uint16_t port, const std::vector<Target>& targets,
                          const std::vector<Planned>& plan,
                          std::int64_t start_ns, const PhaseConfig& config,
                          SpanRecorder& spans) {
  PhaseResult result;
  result.outcomes.resize(plan.size());
  SpanRecorder untraced;  // never enabled
  std::atomic<std::uint64_t> connections{0};
  std::mutex errors_mutex;
  const auto sender = [&](std::size_t first) {
    // Wake sleeping sends on time instead of up to 50 us late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    HttpClient client(port);
    for (std::size_t i = first; i < plan.size(); i += kSenders) {
      Outcome& out = result.outcomes[i];
      out.due_ns = start_ns + plan[i].due_ns;
      if (config.send_deadline_ns > 0 &&
          now_ns() > start_ns + config.send_deadline_ns) {
        continue;
      }
      sleep_until_ns(out.due_ns);
      const Target& target = targets[plan[i].target];
      out.traced = spans.enabled() &&
                   (config.untraced_period_ns <= 0 ||
                    (plan[i].due_ns / config.untraced_period_ns) % 2 == 1);
      SpanRecorder& recorder = out.traced ? spans : untraced;
      Span op(recorder, "op.query", config.first_request_id + i);
      out.sent_ns = now_ns();
      HttpReply reply;
      {
        Span wire(recorder, "http.request");
        reply = client.request(target.method, target.target);
      }
      out.done_ns = now_ns();
      out.sent = true;
      out.replied = reply.transport_ok;
      out.status = reply.status;
      out.ok = reply_matches(target, reply);
      if (!out.ok) {
        std::lock_guard lock(errors_mutex);
        if (result.first_errors.size() < 5) {
          result.first_errors.push_back(
              target.method + " " + target.target + ": status " +
              std::to_string(reply.status) + " (want " +
              std::to_string(target.status) + ")" +
              (reply.error.empty() ? std::string(", body differs")
                                   : ", " + reply.error));
        }
      }
    }
    connections.fetch_add(client.connections_opened());
  };
  {
    std::vector<std::jthread> threads;  // joined on every exit path
    for (std::size_t s = 0; s < kSenders; ++s) {
      threads.emplace_back(sender, s);
    }
  }
  result.connections = connections.load();
  return result;
}

}  // namespace perfbench
