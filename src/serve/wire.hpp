// Wire protocol pieces for `sfi serve`: a minimal JSON value/parser, the
// listen/connect address grammar, and blocking line-channel helpers.
//
// The protocol is newline-delimited JSON — the same shape the telemetry
// JSONL event log already uses — so the daemon's event stream IS the watch
// wire format and `sfi watch` is a line pump, not a translator. The repo's
// telemetry layer only ever needed to *emit* JSON (telemetry::JsonWriter);
// the daemon is the first consumer, hence the small recursive-descent
// parser here. It covers exactly the subset the protocol uses (objects,
// arrays, strings, numbers, booleans, null) and rejects everything else.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace sfi::serve {

/// Thrown on malformed wire input (bad JSON, bad address, socket failure).
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An immutable parsed JSON value.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Object, Array };

  /// Parse one JSON document; trailing non-whitespace throws WireError.
  static Json parse(std::string_view text);

  Json() = default;

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;

  /// Typed accessors with defaults (lenient: absent/mistyped -> default;
  /// get_u64 also for anything but an unsigned integer literal that fits).
  [[nodiscard]] std::string get_str(const std::string& key,
                                    const std::string& dflt) const;
  [[nodiscard]] double get_num(const std::string& key, double dflt) const;
  [[nodiscard]] u64 get_u64(const std::string& key, u64 dflt) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool dflt) const;

  /// A string's value, or a number's text as written: exact where num() is
  /// not (integers past 2^53), and the only way to tell 7 from 7.0.
  [[nodiscard]] const std::string& str() const { return str_; }
  [[nodiscard]] double num() const { return num_; }
  [[nodiscard]] bool boolean() const { return bool_; }
  [[nodiscard]] const std::vector<Json>& items() const { return items_; }

  /// Construction helpers (used by the parser; not a builder API — the
  /// emission side of the protocol is telemetry::JsonWriter).
  static Json make_bool(bool v);
  static Json make_number(double v, std::string literal);
  static Json make_string(std::string v);
  static Json make_array(std::vector<Json> items);
  static Json make_object(std::map<std::string, Json> members);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;  ///< string value, or a number's literal
  std::vector<Json> items_;                 ///< array elements
  std::map<std::string, Json> members_;     ///< object members
};

/// A daemon address: `unix:PATH`, `tcp:HOST:PORT`, `tcp:PORT` (localhost),
/// or a bare filesystem path (treated as unix). Unix sockets are the
/// default because the state dir is already the daemon's natural home.
struct Address {
  bool tcp = false;
  std::string path;  ///< unix socket path
  std::string host;  ///< tcp host
  u16 port = 0;      ///< tcp port
  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] Address parse_address(const std::string& spec);

/// Bind + listen (non-blocking fd). A stale unix socket file is replaced.
/// Throws WireError on failure.
[[nodiscard]] int listen_on(const Address& addr);

/// Blocking connect. Throws WireError on failure.
[[nodiscard]] int connect_to(const Address& addr);

/// Blocking newline-delimited IO over a connected socket fd. Sends never
/// raise SIGPIPE (a dead peer surfaces as a false return instead — the
/// daemon must outlive any watcher).
class LineChannel {
 public:
  explicit LineChannel(int fd) : fd_(fd) {}
  ~LineChannel() { close(); }
  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  /// Send `line` + '\n'. False on a closed/broken peer.
  bool send_line(const std::string& line);
  /// Receive one line (without the '\n'). False on EOF or error.
  bool recv_line(std::string& out);

  [[nodiscard]] int fd() const { return fd_; }
  void close();

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace sfi::serve
