// Minimal JSON output for the observability layer: a streaming writer
// used by Registry::snapshot_json, the event journal, and the bench
// JSON reports. Deliberately tiny -- objects, arrays, strings, integers,
// doubles, booleans, null -- because every schema we emit is flat and
// known. The reader the tests check it with is tests/support/json_value.hpp.
#ifndef SDMMON_SRC_OBS_JSON_HPP
#define SDMMON_SRC_OBS_JSON_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sdmmon::obs {

/// One JSON scalar, carried by value. Exists so call sites can pass
/// heterogeneous row values ({"app", "ipv4-cm"}, {"kpps", 12.5}) through
/// one initializer list.
class JsonScalar {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Int, Uint, Double, String };

  JsonScalar() : kind_(Kind::Null) {}
  JsonScalar(bool b) : kind_(Kind::Bool), bool_(b) {}
  JsonScalar(std::int64_t v) : kind_(Kind::Int), int_(v) {}
  JsonScalar(int v) : kind_(Kind::Int), int_(v) {}
  JsonScalar(std::uint64_t v) : kind_(Kind::Uint), uint_(v) {}
  JsonScalar(unsigned v) : kind_(Kind::Uint), uint_(v) {}
  JsonScalar(double v) : kind_(Kind::Double), double_(v) {}
  JsonScalar(const char* s) : kind_(Kind::String), string_(s) {}
  JsonScalar(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  JsonScalar(std::string_view s) : kind_(Kind::String), string_(s) {}

  Kind kind() const { return kind_; }
  bool as_bool() const { return bool_; }
  std::int64_t as_int() const { return int_; }
  std::uint64_t as_uint() const { return uint_; }
  double as_double() const { return double_; }
  const std::string& as_string() const { return string_; }

 private:
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0;
  std::string string_;
};

/// Streaming JSON writer with automatic comma placement. Usage:
///   JsonWriter w;
///   w.begin_object().key("schema").value(1).key("rows").begin_array()
///    ...
///   std::string text = w.str();
/// The writer does not validate nesting beyond a debug-level depth
/// check; callers emit fixed schemas.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) {
    return value(std::string_view(v));
  }
  JsonWriter& value(bool v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) {
    return value(static_cast<std::uint64_t>(v));
  }
  JsonWriter& value(double v);
  JsonWriter& value_null();
  JsonWriter& value(const JsonScalar& v);

  const std::string& str() const { return out_; }

  /// Escape `raw` per RFC 8259 (quotes not included).
  static std::string escape(std::string_view raw);

 private:
  void comma();

  std::string out_;
  std::vector<bool> first_;  // per open container: no element written yet
  bool after_key_ = false;
};

}  // namespace sdmmon::obs

#endif  // SDMMON_SRC_OBS_JSON_HPP
