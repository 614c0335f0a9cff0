// ClassAd value model.
//
// ClassAd expressions evaluate to one of: Undefined, Error, Boolean,
// Integer, Real or String. Undefined propagates through most operators
// (three-valued logic), with the usual ClassAd exceptions: `&&` and `||`
// short-circuit around Undefined when the other operand decides the result,
// and the is/isnt operators (`=?=`, `=!=`) never yield Undefined.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

namespace phisched::classad {

enum class ValueType { kUndefined, kError, kBoolean, kInteger, kReal, kString };

class Value {
 public:
  Value() : data_(Undefined{}) {}

  [[nodiscard]] static Value undefined() { return Value(); }
  [[nodiscard]] static Value error() { return Value(Error{}); }
  [[nodiscard]] static Value boolean(bool b) { return Value(b); }
  [[nodiscard]] static Value integer(std::int64_t i) { return Value(i); }
  [[nodiscard]] static Value real(double d) { return Value(d); }
  [[nodiscard]] static Value string(std::string s) { return Value(std::move(s)); }

  [[nodiscard]] ValueType type() const;
  [[nodiscard]] bool is_undefined() const { return type() == ValueType::kUndefined; }
  [[nodiscard]] bool is_error() const { return type() == ValueType::kError; }
  [[nodiscard]] bool is_boolean() const { return type() == ValueType::kBoolean; }
  [[nodiscard]] bool is_integer() const { return type() == ValueType::kInteger; }
  [[nodiscard]] bool is_real() const { return type() == ValueType::kReal; }
  [[nodiscard]] bool is_string() const { return type() == ValueType::kString; }
  [[nodiscard]] bool is_number() const { return is_integer() || is_real(); }

  /// Accessors; undefined behaviour if the type does not match (check first).
  [[nodiscard]] bool as_boolean() const { return std::get<bool>(data_); }
  [[nodiscard]] std::int64_t as_integer() const { return std::get<std::int64_t>(data_); }
  [[nodiscard]] double as_real() const { return std::get<double>(data_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(data_); }

  /// Numeric value as double (integer or real); error() otherwise.
  [[nodiscard]] double number() const;

  /// ClassAd display form: `undefined`, `error`, `true`, `42`, `3.5`, `"s"`.
  [[nodiscard]] std::string to_string() const;

  /// Structural identity, used by `=?=`/`=!=`: same type and same value
  /// (string comparison case-INsensitive, per classic ClassAds; integers
  /// and reals of equal magnitude are *not* identical).
  [[nodiscard]] bool same_as(const Value& other) const;

 private:
  struct Undefined {
    friend bool operator==(const Undefined&, const Undefined&) = default;
  };
  struct Error {
    friend bool operator==(const Error&, const Error&) = default;
  };

  template <typename T>
  explicit Value(T v) : data_(std::move(v)) {}

  std::variant<Undefined, Error, bool, std::int64_t, double, std::string> data_;
};

/// `x` truncated toward zero, or nullopt when x is NaN, infinite or
/// outside int64 range (where the plain cast is undefined behaviour).
[[nodiscard]] std::optional<std::int64_t> real_to_integer(double x);

/// Case-insensitive ASCII string equality (ClassAd string semantics).
[[nodiscard]] bool iequals(const std::string& a, const std::string& b);

/// Case-insensitive ASCII "less than" for ordered containers.
[[nodiscard]] bool iless(const std::string& a, const std::string& b);

// --- ClassAd operator semantics over Values -------------------------------
// Arithmetic: undefined if either side undefined; error on type mismatch.
[[nodiscard]] Value op_add(const Value& a, const Value& b);
[[nodiscard]] Value op_sub(const Value& a, const Value& b);
[[nodiscard]] Value op_mul(const Value& a, const Value& b);
[[nodiscard]] Value op_div(const Value& a, const Value& b);
[[nodiscard]] Value op_mod(const Value& a, const Value& b);
[[nodiscard]] Value op_neg(const Value& a);

// Comparison: numeric promotion; strings compare case-insensitively.
[[nodiscard]] Value op_eq(const Value& a, const Value& b);
[[nodiscard]] Value op_ne(const Value& a, const Value& b);
[[nodiscard]] Value op_lt(const Value& a, const Value& b);
[[nodiscard]] Value op_le(const Value& a, const Value& b);
[[nodiscard]] Value op_gt(const Value& a, const Value& b);
[[nodiscard]] Value op_ge(const Value& a, const Value& b);

// is / isnt: total, never undefined.
[[nodiscard]] Value op_is(const Value& a, const Value& b);
[[nodiscard]] Value op_isnt(const Value& a, const Value& b);

// Three-valued logic with ClassAd short-circuit rules.
[[nodiscard]] Value op_and(const Value& a, const Value& b);
[[nodiscard]] Value op_or(const Value& a, const Value& b);
[[nodiscard]] Value op_not(const Value& a);

}  // namespace phisched::classad
