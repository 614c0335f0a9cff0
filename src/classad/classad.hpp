// The ClassAd container: a case-insensitive attribute → expression map,
// plus the two-way matchmaking primitive Condor's negotiator uses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "classad/ast.hpp"

namespace phisched::classad {

class ClassAd {
 public:
  // --- attribute insertion -------------------------------------------------
  void insert(std::string name, ExprPtr expr);
  void insert_integer(std::string name, std::int64_t v);
  void insert_real(std::string name, double v);
  void insert_boolean(std::string name, bool v);
  void insert_string(std::string name, std::string v);
  /// Parses `expr_source` and inserts it; throws ParseError on bad syntax.
  void insert_expr(std::string name, std::string_view expr_source);

  bool erase(const std::string& name);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return attrs_.size(); }

  /// Raw (unevaluated) expression, or nullptr if absent.
  [[nodiscard]] ExprPtr lookup(const std::string& name) const;

  // --- evaluation -----------------------------------------------------------
  /// Evaluates attribute `name` with this ad as MY and `target` as TARGET
  /// (target may be null). Absent attributes evaluate to undefined.
  [[nodiscard]] Value eval(const std::string& name,
                           const ClassAd* target = nullptr) const;

  /// Typed convenience accessors; nullopt when absent / wrong type.
  [[nodiscard]] std::optional<std::int64_t> eval_integer(
      const std::string& name, const ClassAd* target = nullptr) const;
  [[nodiscard]] std::optional<double> eval_real(
      const std::string& name, const ClassAd* target = nullptr) const;
  [[nodiscard]] std::optional<bool> eval_boolean(
      const std::string& name, const ClassAd* target = nullptr) const;
  [[nodiscard]] std::optional<std::string> eval_string(
      const std::string& name, const ClassAd* target = nullptr) const;

  /// Attribute names in insertion-independent (sorted) order.
  [[nodiscard]] std::vector<std::string> attribute_names() const;

  /// Multi-line `Name = expr` rendering, sorted by attribute name.
  [[nodiscard]] std::string to_string() const;

  /// True when evaluating some attribute of this ad (as MY) can read the
  /// other ad of a match: a TARGET.x reference, or a bare x this ad does
  /// not define.
  [[nodiscard]] bool reads_target() const;

 private:
  struct ILess {
    bool operator()(const std::string& a, const std::string& b) const {
      return iless(a, b);
    }
  };
  std::map<std::string, ExprPtr, ILess> attrs_;
};

/// Evaluates `ad.Requirements` against `target`. A match requires the
/// Requirements expression to evaluate to exactly true (undefined and
/// error do NOT match, as in Condor).
[[nodiscard]] bool requirements_met(const ClassAd& ad, const ClassAd& target);

/// Condor-style symmetric match: both ads' Requirements must accept the
/// other side. An ad without a Requirements attribute accepts anything.
[[nodiscard]] bool symmetric_match(const ClassAd& a, const ClassAd& b);

/// Evaluates `ad.Rank` against target; 0.0 when absent or non-numeric.
[[nodiscard]] double eval_rank(const ClassAd& ad, const ClassAd& target);

/// Structural equality of expression trees: same node kinds, operators,
/// attribute references (names compared exactly) and literal values
/// (strings case-sensitively, reals bit for bit). A shared tree equals
/// itself without a walk; null equals only null.
[[nodiscard]] bool same_expr(const ExprPtr& a, const ExprPtr& b);

/// What evaluating an ad's Requirements can read of that ad: the key the
/// FIFO negotiator groups pending jobs into autoclusters by (see
/// docs/negotiation.md). Two ads with equal signatures get the same
/// requirements_met and symmetric_match result against any ad whose
/// reads_target() is false.
struct MatchSignature {
  ExprPtr requirements;  ///< null: the ad accepts anything
  /// The ad's own attribute values that Requirements can read — every
  /// MY.x and bare x, followed through those values' expressions — in
  /// first-visit order, each name once; null where the ad lacks x.
  std::vector<ExprPtr> reads;
  std::uint64_t hash = 0;  ///< equal signatures hash equal

  friend bool operator==(const MatchSignature& a, const MatchSignature& b);
};

[[nodiscard]] MatchSignature match_signature(const ClassAd& ad);

/// Parses a whole ClassAd from its textual form: one `Name = <expr>` per
/// line, `#` comments and blank lines ignored. Inverse of
/// ClassAd::to_string(). Throws ParseError on malformed input.
[[nodiscard]] ClassAd parse_classad(std::string_view text);

}  // namespace phisched::classad
