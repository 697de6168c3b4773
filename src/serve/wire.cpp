#include "serve/wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>

namespace sfi::serve {

namespace {

/// Recursive-descent parser over the document. Depth-limited: the wire
/// protocol never nests more than a handful of levels, and a hostile
/// client must not be able to blow the daemon's stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw WireError("wire: bad JSON at byte " + std::to_string(pos_) + ": " +
                    why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    if (depth_ > 32) fail("nesting too deep");
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    ++depth_;
    expect('{');
    std::map<std::string, Json> members;
    if (peek() != '}') {
      while (true) {
        if (peek() != '"') fail("object key must be a string");
        std::string key = parse_string();
        expect(':');
        members.emplace(std::move(key), parse_value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        break;
      }
    }
    expect('}');
    --depth_;
    return Json::make_object(std::move(members));
  }

  Json parse_array() {
    ++depth_;
    expect('[');
    std::vector<Json> items;
    if (peek() != ']') {
      while (true) {
        items.push_back(parse_value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        break;
      }
    }
    expect(']');
    --depth_;
    return Json::make_array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("short \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                fail("bad \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // produced by our own writer; decode them as-is).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            fail("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (ec != std::errc() || ptr != text_.data() + pos_ || pos_ == start) {
      fail("bad number");
    }
    return Json::make_number(v,
                             std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::make_bool(bool v) {
  Json j;
  j.type_ = Type::Bool;
  j.bool_ = v;
  return j;
}

Json Json::make_number(double v, std::string literal) {
  Json j;
  j.type_ = Type::Number;
  j.num_ = v;
  j.str_ = std::move(literal);
  return j;
}

Json Json::make_string(std::string v) {
  Json j;
  j.type_ = Type::String;
  j.str_ = std::move(v);
  return j;
}

Json Json::make_array(std::vector<Json> items) {
  Json j;
  j.type_ = Type::Array;
  j.items_ = std::move(items);
  return j;
}

Json Json::make_object(std::map<std::string, Json> members) {
  Json j;
  j.type_ = Type::Object;
  j.members_ = std::move(members);
  return j;
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  const auto it = members_.find(key);
  return it == members_.end() ? nullptr : &it->second;
}

std::string Json::get_str(const std::string& key,
                          const std::string& dflt) const {
  const Json* v = find(key);
  return (v != nullptr && v->type_ == Type::String) ? v->str_ : dflt;
}

double Json::get_num(const std::string& key, double dflt) const {
  const Json* v = find(key);
  return (v != nullptr && v->type_ == Type::Number) ? v->num_ : dflt;
}

u64 Json::get_u64(const std::string& key, u64 dflt) const {
  const Json* v = find(key);
  if (v == nullptr || v->type_ != Type::Number) return dflt;
  u64 out = 0;
  const char* end = v->str_.data() + v->str_.size();
  const auto [ptr, ec] = std::from_chars(v->str_.data(), end, out);
  return ec == std::errc() && ptr == end ? out : dflt;
}

bool Json::get_bool(const std::string& key, bool dflt) const {
  const Json* v = find(key);
  return (v != nullptr && v->type_ == Type::Bool) ? v->bool_ : dflt;
}

std::string Address::describe() const {
  if (tcp) return "tcp:" + host + ":" + std::to_string(port);
  return "unix:" + path;
}

Address parse_address(const std::string& spec) {
  if (spec.empty()) throw WireError("wire: empty address");
  Address a;
  if (spec.rfind("unix:", 0) == 0) {
    a.path = spec.substr(5);
    if (a.path.empty()) throw WireError("wire: unix: needs a path");
    return a;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    a.tcp = true;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    std::string port_str;
    if (colon == std::string::npos) {
      a.host = "127.0.0.1";
      port_str = rest;
    } else {
      a.host = rest.substr(0, colon);
      port_str = rest.substr(colon + 1);
    }
    u64 port = 0;
    const auto [ptr, ec] = std::from_chars(
        port_str.data(), port_str.data() + port_str.size(), port);
    // Port 0 is legal for listeners: the OS assigns an ephemeral port and
    // the daemon reads it back with getsockname (connect_to rejects it).
    if (ec != std::errc() || ptr != port_str.data() + port_str.size() ||
        port > 65535) {
      throw WireError("wire: bad tcp port in '" + spec + "'");
    }
    a.port = static_cast<u16>(port);
    return a;
  }
  a.path = spec;  // bare path = unix socket
  return a;
}

namespace {

int make_unix_socket(const Address& addr, sockaddr_un& sa) {
  if (addr.path.size() >= sizeof(sa.sun_path)) {
    throw WireError("wire: unix socket path too long: " + addr.path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw WireError("wire: socket(): " + std::string(strerror(errno)));
  std::memset(&sa, 0, sizeof(sa));
  sa.sun_family = AF_UNIX;
  std::memcpy(sa.sun_path, addr.path.c_str(), addr.path.size() + 1);
  return fd;
}

int make_tcp_socket(const Address& addr, sockaddr_in& sa) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw WireError("wire: socket(): " + std::string(strerror(errno)));
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    throw WireError("wire: bad tcp host '" + addr.host +
                    "' (numeric IPv4 only)");
  }
  return fd;
}

}  // namespace

int listen_on(const Address& addr) {
  int fd = -1;
  if (addr.tcp) {
    sockaddr_in sa{};
    fd = make_tcp_socket(addr, sa);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string err = strerror(errno);
      ::close(fd);
      throw WireError("wire: bind " + addr.describe() + ": " + err);
    }
  } else {
    // A stale socket file from a dead daemon would make bind fail forever;
    // only ever unlink sockets, never a regular file someone pointed us at.
    std::error_code ec;
    if (std::filesystem::is_socket(addr.path, ec)) {
      std::filesystem::remove(addr.path, ec);
    }
    sockaddr_un sa{};
    fd = make_unix_socket(addr, sa);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string err = strerror(errno);
      ::close(fd);
      throw WireError("wire: bind " + addr.describe() + ": " + err);
    }
  }
  if (::listen(fd, 16) != 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    throw WireError("wire: listen " + addr.describe() + ": " + err);
  }
  return fd;
}

int connect_to(const Address& addr) {
  int fd = -1;
  if (addr.tcp) {
    sockaddr_in sa{};
    fd = make_tcp_socket(addr, sa);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string err = strerror(errno);
      ::close(fd);
      throw WireError("wire: connect " + addr.describe() + ": " + err);
    }
  } else {
    sockaddr_un sa{};
    fd = make_unix_socket(addr, sa);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string err = strerror(errno);
      ::close(fd);
      throw WireError("wire: connect " + addr.describe() + ": " + err);
    }
  }
  return fd;
}

bool LineChannel::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool LineChannel::recv_line(std::string& out) {
  if (fd_ < 0) return false;
  while (true) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      out.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void LineChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace sfi::serve
