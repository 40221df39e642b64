#include "gridmon/trace/reader.hpp"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <variant>

#include "gridmon/ascii.hpp"

namespace gridmon::trace {
namespace {

// ---- Minimal JSON value model + recursive-descent parser ----

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(v);
  }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }

  const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  const std::string& str() const { return std::get<std::string>(v); }
  double num() const { return std::get<double>(v); }

  const JsonValue* find(const std::string& key) const {
    if (!is_object()) return nullptr;
    auto it = object().find(key);
    return it == object().end() ? nullptr : &it->second;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw ReadError("JSON parse error at byte " + std::to_string(pos_) +
                    ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue{true};
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue{false};
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{nullptr};
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    auto obj = std::make_shared<JsonObject>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{obj};
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      (*obj)[std::move(key)] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{obj};
    }
  }

  JsonValue array() {
    expect('[');
    auto arr = std::make_shared<JsonArray>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{arr};
    }
    for (;;) {
      arr->push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{arr};
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Our writer only escapes control characters; decode the BMP
          // code point as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (ascii::is_digit(s_[pos_]) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    return JsonValue{std::stod(s_.substr(start, pos_ - start))};
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Intern a string into a TraceData name table.
std::uint32_t intern(TraceData& data,
                     std::map<std::string, std::uint32_t>& index,
                     const std::string& s) {
  if (s.empty()) return 0;
  auto it = index.find(s);
  if (it != index.end()) return it->second;
  data.names.push_back(s);
  auto id = static_cast<std::uint32_t>(data.names.size() - 1);
  index.emplace(s, id);
  return id;
}

}  // namespace

std::vector<SeriesTrace> read_chrome_trace(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  Parser parser(text);
  JsonValue root = parser.parse();

  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw ReadError("no traceEvents array");
  }

  struct Partial {
    SeriesTrace st;
    std::map<std::string, std::uint32_t> interned;
  };
  std::map<int, Partial> by_pid;  // keyed by pid, insertion-ordered by id
  auto slot = [&](int pid) -> Partial& {
    auto [it, inserted] = by_pid.try_emplace(pid);
    if (inserted) {
      it->second.st.series = "pid " + std::to_string(pid);
      it->second.st.data.names.push_back("");
    }
    return it->second;
  };

  for (const JsonValue& ev : events->array()) {
    const JsonValue* ph = ev.find("ph");
    const JsonValue* pid_v = ev.find("pid");
    if (ph == nullptr || !ph->is_string() || pid_v == nullptr) continue;
    int pid = pid_v->is_number() ? static_cast<int>(pid_v->num()) : 0;
    Partial& part = slot(pid);
    const JsonValue* name = ev.find("name");
    const JsonValue* args = ev.find("args");

    if (ph->str() == "M") {
      if (name != nullptr && name->str() == "process_name" &&
          args != nullptr) {
        if (const JsonValue* n = args->find("name"); n != nullptr) {
          part.st.series = n->str();
        }
      }
    } else if (ph->str() == "X") {
      if (name == nullptr || !name->is_string()) continue;
      SpanRecord rec;
      if (!kind_from_name(name->str(), rec.kind)) continue;
      const JsonValue* ts = ev.find("ts");
      const JsonValue* dur = ev.find("dur");
      if (ts == nullptr || dur == nullptr) continue;
      rec.start = ts->num() * 1e-6;
      rec.end = rec.start + dur->num() * 1e-6;
      if (args != nullptr) {
        if (const JsonValue* t = args->find("t"); t != nullptr) {
          rec.trace_id = t->is_string()
                             ? std::strtoull(t->str().c_str(), nullptr, 10)
                             : static_cast<std::uint64_t>(t->num());
        }
        if (const JsonValue* s = args->find("s"); s != nullptr) {
          rec.seq = static_cast<std::uint32_t>(s->num());
        }
        if (const JsonValue* p = args->find("p"); p != nullptr) {
          rec.parent = static_cast<std::uint32_t>(p->num());
        }
        if (const JsonValue* d = args->find("d"); d != nullptr) {
          rec.name_id = intern(part.st.data, part.interned, d->str());
        }
        if (const JsonValue* v = args->find("v"); v != nullptr) {
          rec.arg = v->num();
        }
      }
      part.st.data.spans.push_back(rec);
    } else if (ph->str() == "C") {
      if (name == nullptr || args == nullptr) continue;
      CounterSample c;
      c.track = intern(part.st.data, part.interned, name->str());
      if (const JsonValue* ts = ev.find("ts"); ts != nullptr) {
        c.t = ts->num() * 1e-6;
      }
      if (const JsonValue* a = args->find("active"); a != nullptr) {
        c.active = a->num();
      }
      if (const JsonValue* b = args->find("backlog"); b != nullptr) {
        c.backlog = b->num();
      }
      part.st.data.counters.push_back(c);
    }
  }

  std::vector<SeriesTrace> out;
  out.reserve(by_pid.size());
  for (auto& [pid, part] : by_pid) out.push_back(std::move(part.st));
  return out;
}

}  // namespace gridmon::trace
