// A minimal JSON emitter for machine-readable reports.
//
// The bench binaries (bench/bench_util.h) and the regression gate
// (src/tools/gate_command.cc) both emit small JSON documents for CI to
// consume.  The repo deliberately has no third-party JSON dependency, so
// this header provides the 20% of JSON that those writers need: objects
// and arrays with insertion-ordered keys, strings, bools, finite doubles
// and 64-bit integers, with correct string escaping.  There is no parser;
// consumers are external tools (python -m json.tool, jq, CI scripts).

#ifndef OSPROF_SRC_CORE_JSONW_H_
#define OSPROF_SRC_CORE_JSONW_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace osjson {

// One JSON value; build with the typed factories / mutators below and
// render with Dump().  Object keys keep insertion order so emitted
// documents are deterministic and diffable.
class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : kind_(Kind::kNull) {}

  static Value Bool(bool b) {
    Value v(Kind::kBool);
    v.bool_ = b;
    return v;
  }
  static Value Int(std::int64_t i) {
    Value v(Kind::kInt);
    v.int_ = i;
    return v;
  }
  static Value Uint(std::uint64_t u) {
    // JSON has no unsigned type; 2^63 and up would need a string anyway,
    // and no counter in this codebase gets there.
    return Int(static_cast<std::int64_t>(u));
  }
  static Value Double(double d) {
    Value v(Kind::kDouble);
    v.double_ = d;
    return v;
  }
  static Value Str(std::string s) {
    Value v(Kind::kString);
    v.string_ = std::move(s);
    return v;
  }
  static Value Array() { return Value(Kind::kArray); }
  // An array of strings, in order.
  static Value Strings(const std::vector<std::string>& items) {
    Value v(Kind::kArray);
    for (const std::string& item : items) {
      v.Append(Str(item));
    }
    return v;
  }
  static Value Object() { return Value(Kind::kObject); }

  Kind kind() const { return kind_; }

  // Object mutation: sets `key` (replacing an existing entry in place).
  Value& Set(const std::string& key, Value value) {
    for (auto& [k, v] : members_) {
      if (k == key) {
        v = std::move(value);
        return *this;
      }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
  }

  // Array mutation.
  Value& Append(Value value) {
    elements_.push_back(std::move(value));
    return *this;
  }

  // Serializes with two-space indentation and a stable member order.
  std::string Dump() const {
    std::string out;
    DumpTo(&out, 0);
    out.push_back('\n');
    return out;
  }

 private:
  explicit Value(Kind kind) : kind_(kind) {}

  static void AppendEscaped(std::string* out, const std::string& s) {
    out->push_back('"');
    for (const char c : s) {
      switch (c) {
        case '"':
          *out += "\\\"";
          break;
        case '\\':
          *out += "\\\\";
          break;
        case '\n':
          *out += "\\n";
          break;
        case '\t':
          *out += "\\t";
          break;
        case '\r':
          *out += "\\r";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            *out += buf;
          } else {
            out->push_back(c);
          }
      }
    }
    out->push_back('"');
  }

  void DumpTo(std::string* out, int indent) const {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string inner_pad(static_cast<std::size_t>(indent + 1) * 2, ' ');
    char buf[64];
    switch (kind_) {
      case Kind::kNull:
        *out += "null";
        break;
      case Kind::kBool:
        *out += bool_ ? "true" : "false";
        break;
      case Kind::kInt:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(int_));
        *out += buf;
        break;
      case Kind::kDouble:
        if (!std::isfinite(double_)) {
          *out += "null";  // JSON cannot express inf/nan.
        } else {
          std::snprintf(buf, sizeof(buf), "%.17g", double_);
          *out += buf;
        }
        break;
      case Kind::kString:
        AppendEscaped(out, string_);
        break;
      case Kind::kArray: {
        if (elements_.empty()) {
          *out += "[]";
          break;
        }
        *out += "[\n";
        for (std::size_t i = 0; i < elements_.size(); ++i) {
          *out += inner_pad;
          elements_[i].DumpTo(out, indent + 1);
          *out += i + 1 < elements_.size() ? ",\n" : "\n";
        }
        *out += pad + "]";
        break;
      }
      case Kind::kObject: {
        if (members_.empty()) {
          *out += "{}";
          break;
        }
        *out += "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
          *out += inner_pad;
          AppendEscaped(out, members_[i].first);
          *out += ": ";
          members_[i].second.DumpTo(out, indent + 1);
          *out += i + 1 < members_.size() ? ",\n" : "\n";
        }
        *out += pad + "}";
        break;
      }
    }
  }

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> elements_;                          // kArray
  std::vector<std::pair<std::string, Value>> members_;   // kObject
};

}  // namespace osjson

#endif  // OSPROF_SRC_CORE_JSONW_H_
