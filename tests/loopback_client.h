// LoopbackClient: the blocking line client the loopback tests drive a
// TcpServer with (server, catalog and replication suites alike).
//
// A 10 s receive timeout turns a protocol bug into a test failure
// instead of a hang; a failed connect or send is a test failure too.

#ifndef ISLABEL_TESTS_LOOPBACK_CLIENT_H_
#define ISLABEL_TESTS_LOOPBACK_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace islabel {
namespace testing {

class LoopbackClient {
 public:
  explicit LoopbackClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    EXPECT_TRUE(connected_);
  }
  ~LoopbackClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  bool connected() const { return connected_; }

  /// Writes all of `data`.
  void Send(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed";
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next '\n'-terminated line (without the '\n'); "<eof>" on close.
  std::string ReadLine() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "<eof>";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Sends one request line and returns its one-line response.
  std::string Ask(const std::string& line) {
    Send(line + "\n");
    return ReadLine();
  }

  /// Reads a multi-line response (`metrics`, `tracez`) through its
  /// "# EOF" terminator, inclusive. A one-line error response ends it
  /// early, as does the connection closing (a test failure).
  std::vector<std::string> ReadThroughEof() {
    std::vector<std::string> lines;
    do {
      lines.push_back(ReadLine());
    } while (lines.back() != "# EOF" && lines.back() != "<eof>" &&
             !(lines.size() == 1 && lines.back().rfind("error:", 0) == 0));
    EXPECT_NE(lines.back(), "<eof>") << "connection closed mid-response";
    return lines;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

}  // namespace testing
}  // namespace islabel

#endif  // ISLABEL_TESTS_LOOPBACK_CLIENT_H_
