// Minimal JSON value, parser and writer for bench_perf's result files.
//
// Only what the harness exchanges with itself and with BENCHMARK.json:
// objects, arrays, strings (with the common escapes), finite numbers,
// booleans and null. Numbers are written with %.17g so a value survives a
// round trip with every digit it was measured with.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perf::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool has(const std::string& key) const {
    return is_object() && object.count(key) != 0;
  }
  /// Member `key` of an object; throws naming the key when it is missing.
  const Value& at(const std::string& key) const {
    const auto it = object.find(key);
    if (!is_object() || it == object.end()) {
      throw std::runtime_error("json: missing key '" + key + "'");
    }
    return it->second;
  }
  double num() const {
    if (!is_number()) throw std::runtime_error("json: expected a number");
    return number;
  }
  const std::string& str() const {
    if (!is_string()) throw std::runtime_error("json: expected a string");
    return string;
  }
};

namespace detail {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }
  bool consume_word(const char* w) {
    const std::string word(w);
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    Value v;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.type = Value::Type::kObject;
      if (consume('}')) return v;
      do {
        skip_ws();
        std::string key = parse_string();
        expect(':');
        v.object[key] = parse_value();
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      ++pos_;
      v.type = Value::Type::kArray;
      if (consume(']')) return v;
      do {
        v.array.push_back(parse_value());
      } while (consume(','));
      expect(']');
    } else if (c == '"') {
      v.type = Value::Type::kString;
      v.string = parse_string();
    } else if (consume_word("true")) {
      v.type = Value::Type::kBool;
      v.boolean = true;
    } else if (consume_word("false")) {
      v.type = Value::Type::kBool;
    } else if (consume_word("null")) {
      v.type = Value::Type::kNull;
    } else {
      v.type = Value::Type::kNumber;
      const char* begin = s_.c_str() + pos_;
      char* end = nullptr;
      v.number = std::strtod(begin, &end);
      if (end == begin) fail("bad value");
      pos_ += static_cast<std::size_t>(end - begin);
    }
    return v;
  }

  std::string parse_string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected a string");
    ++pos_;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Only ASCII escapes are ever written by the harness.
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            c = static_cast<char>(std::stoi(s_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          default: c = e; break;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace detail

inline Value parse(const std::string& text) {
  return detail::Parser(text).parse_document();
}

inline Value parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  try {
    return parse(ss.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

inline std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

/// Every digit of a finite double; non-finite values are a harness bug.
inline std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("json: non-finite number");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Serialize a parsed value back (compact). Used to copy run records from
/// child result files into a collection without re-deriving them.
inline std::string dump(const Value& v) {
  switch (v.type) {
    case Value::Type::kNull: return "null";
    case Value::Type::kBool: return v.boolean ? "true" : "false";
    case Value::Type::kNumber: return number(v.number);
    case Value::Type::kString: return quote(v.string);
    case Value::Type::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i) out += ",";
        out += dump(v.array[i]);
      }
      return out + "]";
    }
    case Value::Type::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, item] : v.object) {
        if (!first) out += ",";
        first = false;
        out += quote(k) + ":" + dump(item);
      }
      return out + "}";
    }
  }
  return "null";
}

}  // namespace perf::json
