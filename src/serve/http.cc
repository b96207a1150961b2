#include "serve/http.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>

namespace ccnuma
{
namespace serve
{

namespace
{

constexpr std::size_t kMaxBodyBytes = 1u << 20;
constexpr std::size_t kMaxHeaderBytes = 64u * 1024;

const char *
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 202: return "Accepted";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 409: return "Conflict";
      case 413: return "Payload Too Large";
      case 429: return "Too Many Requests";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
      default: return "Status";
    }
}

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return s;
}

/** Read until @p delim is seen or the cap is hit; includes delim. */
bool
readUntil(int fd, std::string &buf, const std::string &delim,
          std::size_t cap)
{
    while (buf.find(delim) == std::string::npos) {
        if (buf.size() > cap)
            return false;
        char tmp[4096];
        ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
        if (n <= 0)
            return false;
        buf.append(tmp, static_cast<std::size_t>(n));
    }
    return true;
}

bool
readExactly(int fd, std::string &buf, std::size_t want)
{
    while (buf.size() < want) {
        char tmp[4096];
        ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
        if (n <= 0)
            return false;
        buf.append(tmp, static_cast<std::size_t>(n));
    }
    return true;
}

} // namespace

// ---------------------------------------------------------------- //
// HttpExchange
// ---------------------------------------------------------------- //

void
HttpExchange::writeAll(const char *data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        ssize_t n = ::send(fd_, data + off, len - off, MSG_NOSIGNAL);
        if (n <= 0)
            throw std::runtime_error("http: send failed");
        off += static_cast<std::size_t>(n);
    }
}

void
HttpExchange::respond(int status, const std::string &body,
                      const std::string &content_type)
{
    std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                       statusText(status) + "\r\n" +
                       "Content-Type: " + content_type + "\r\n" +
                       "Content-Length: " +
                       std::to_string(body.size()) + "\r\n" +
                       "Connection: close\r\n\r\n";
    responded_ = true;
    writeAll(head.data(), head.size());
    writeAll(body.data(), body.size());
}

void
HttpExchange::beginChunked(int status,
                           const std::string &content_type)
{
    std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                       statusText(status) + "\r\n" +
                       "Content-Type: " + content_type + "\r\n" +
                       "Transfer-Encoding: chunked\r\n" +
                       "Connection: close\r\n\r\n";
    responded_ = true;
    chunked_ = true;
    writeAll(head.data(), head.size());
}

void
HttpExchange::writeChunk(const std::string &data)
{
    if (data.empty())
        return;
    char size[24];
    std::snprintf(size, sizeof(size), "%zx\r\n", data.size());
    writeAll(size, std::strlen(size));
    writeAll(data.data(), data.size());
    writeAll("\r\n", 2);
}

void
HttpExchange::endChunked()
{
    writeAll("0\r\n\r\n", 5);
    chunked_ = false;
}

// ---------------------------------------------------------------- //
// HttpServer
// ---------------------------------------------------------------- //

HttpServer::HttpServer(std::uint16_t port, Handler handler)
    : handler_(std::move(handler))
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("http: socket() failed");
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        ::close(listenFd_);
        throw std::runtime_error(
            std::string("http: cannot bind 127.0.0.1:") +
            std::to_string(port) + " (" + std::strerror(errno) +
            ")");
    }
    if (::listen(listenFd_, 64) != 0) {
        ::close(listenFd_);
        throw std::runtime_error("http: listen() failed");
    }

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::start()
{
    bool expected = false;
    if (!running_.compare_exchange_strong(expected, true))
        return;
    acceptor_ = std::thread([this] { acceptLoop(); });
}

void
HttpServer::stop()
{
    if (!running_.exchange(false)) {
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
        return;
    }
    // Shut the listener down; accept() returns and the loop exits.
    // The descriptor is closed only after the acceptor has joined:
    // acceptLoop reads listenFd_ until then.
    ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptor_.joinable())
        acceptor_.join();
    ::close(listenFd_);
    listenFd_ = -1;
    std::vector<std::thread> workers;
    {
        std::lock_guard<std::mutex> g(workersMutex_);
        workers.swap(workers_);
    }
    for (std::thread &t : workers) {
        if (t.joinable())
            t.join();
    }
}

void
HttpServer::acceptLoop()
{
    while (running_.load()) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (!running_.load())
                return;
            continue;
        }
        std::lock_guard<std::mutex> g(workersMutex_);
        // Opportunistically reap finished workers so a long-lived
        // daemon does not accumulate joinable threads. A finished
        // worker's thread object is detached-equivalent: it has
        // already run to completion, so join() returns immediately.
        workers_.push_back(
            std::thread([this, fd] { serveConnection(fd); }));
        if (workers_.size() > 256) {
            for (std::thread &t : workers_) {
                if (t.joinable())
                    t.join();
            }
            workers_.clear();
        }
    }
}

void
HttpServer::serveConnection(int fd)
{
    HttpExchange ex(fd);
    try {
        std::string buf;
        if (!readUntil(fd, buf, "\r\n\r\n", kMaxHeaderBytes)) {
            ::close(fd);
            return;
        }
        std::size_t head_end = buf.find("\r\n\r\n");
        std::string head = buf.substr(0, head_end);
        std::string rest = buf.substr(head_end + 4);

        HttpRequest req;
        std::size_t line_end = head.find("\r\n");
        std::string request_line = head.substr(0, line_end);
        std::size_t sp1 = request_line.find(' ');
        std::size_t sp2 = request_line.find(' ', sp1 + 1);
        if (sp1 == std::string::npos || sp2 == std::string::npos) {
            ex.respond(400, "{\"error\":\"malformed request\"}");
            ::close(fd);
            return;
        }
        req.method = request_line.substr(0, sp1);
        req.path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);

        std::size_t pos = line_end == std::string::npos
                              ? head.size()
                              : line_end + 2;
        while (pos < head.size()) {
            std::size_t eol = head.find("\r\n", pos);
            if (eol == std::string::npos)
                eol = head.size();
            std::string line = head.substr(pos, eol - pos);
            pos = eol + 2;
            std::size_t colon = line.find(':');
            if (colon == std::string::npos)
                continue;
            std::string key = toLower(line.substr(0, colon));
            std::size_t vstart = colon + 1;
            while (vstart < line.size() && line[vstart] == ' ')
                ++vstart;
            req.headers[key] = line.substr(vstart);
        }

        std::size_t content_length = 0;
        auto it = req.headers.find("content-length");
        if (it != req.headers.end())
            content_length = static_cast<std::size_t>(
                std::strtoull(it->second.c_str(), nullptr, 10));
        if (content_length > kMaxBodyBytes) {
            ex.respond(413, "{\"error\":\"body too large\"}");
            ::close(fd);
            return;
        }
        if (!readExactly(fd, rest, content_length)) {
            ::close(fd);
            return;
        }
        req.body = rest.substr(0, content_length);

        handler_(req, ex);
        if (!ex.responded())
            ex.respond(500, "{\"error\":\"handler sent nothing\"}");
    } catch (const std::exception &) {
        // Connection-level failure (peer hung up mid-write, handler
        // threw after responding): nothing useful left to send.
        if (!ex.responded()) {
            try {
                ex.respond(500, "{\"error\":\"internal error\"}");
            } catch (...) {
            }
        }
    }
    ::shutdown(fd, SHUT_WR);
    // Drain whatever the client still has in flight so its send()
    // does not see a reset before it reads our response.
    char drain[1024];
    while (::recv(fd, drain, sizeof(drain), 0) > 0) {
    }
    ::close(fd);
}

// ---------------------------------------------------------------- //
// Client
// ---------------------------------------------------------------- //

HttpResponse
httpRequest(std::uint16_t port, const std::string &method,
            const std::string &path, const std::string &body)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("http client: socket() failed");

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        throw std::runtime_error(
            "http client: cannot connect to 127.0.0.1:" +
            std::to_string(port));
    }

    std::string req = method + " " + path + " HTTP/1.1\r\n" +
                      "Host: 127.0.0.1\r\n" +
                      "Content-Length: " +
                      std::to_string(body.size()) + "\r\n" +
                      "Connection: close\r\n\r\n" + body;
    std::size_t off = 0;
    while (off < req.size()) {
        ssize_t n = ::send(fd, req.data() + off, req.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0) {
            ::close(fd);
            throw std::runtime_error("http client: send failed");
        }
        off += static_cast<std::size_t>(n);
    }

    std::string raw;
    char tmp[4096];
    ssize_t n;
    while ((n = ::recv(fd, tmp, sizeof(tmp), 0)) > 0)
        raw.append(tmp, static_cast<std::size_t>(n));
    ::close(fd);

    std::size_t head_end = raw.find("\r\n\r\n");
    if (head_end == std::string::npos)
        throw std::runtime_error("http client: truncated response");
    std::string head = raw.substr(0, head_end);
    std::string payload = raw.substr(head_end + 4);

    HttpResponse resp;
    std::size_t line_end = head.find("\r\n");
    std::string status_line = head.substr(0, line_end);
    std::size_t sp = status_line.find(' ');
    if (sp == std::string::npos)
        throw std::runtime_error("http client: bad status line");
    resp.status = std::atoi(status_line.c_str() +
                            static_cast<int>(sp) + 1);

    std::size_t pos =
        line_end == std::string::npos ? head.size() : line_end + 2;
    while (pos < head.size()) {
        std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string::npos)
            eol = head.size();
        std::string line = head.substr(pos, eol - pos);
        pos = eol + 2;
        std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string key = toLower(line.substr(0, colon));
        std::size_t vstart = colon + 1;
        while (vstart < line.size() && line[vstart] == ' ')
            ++vstart;
        resp.headers[key] = line.substr(vstart);
    }

    auto te = resp.headers.find("transfer-encoding");
    if (te != resp.headers.end() &&
        te->second.find("chunked") != std::string::npos) {
        // De-chunk: <hex size>\r\n<data>\r\n ... 0\r\n\r\n
        std::size_t p = 0;
        while (p < payload.size()) {
            std::size_t eol = payload.find("\r\n", p);
            if (eol == std::string::npos)
                break;
            std::size_t size = static_cast<std::size_t>(
                std::strtoull(payload.c_str() + p, nullptr, 16));
            if (size == 0)
                break;
            std::size_t data_at = eol + 2;
            if (data_at + size > payload.size())
                break;
            resp.body.append(payload, data_at, size);
            p = data_at + size + 2;
        }
    } else {
        resp.body = std::move(payload);
    }
    return resp;
}

} // namespace serve
} // namespace ccnuma
