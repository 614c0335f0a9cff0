#include "classad/classad.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <functional>
#include <sstream>

#include "classad/eval.hpp"
#include "classad/lexer.hpp"
#include "classad/parser.hpp"
#include "common/check.hpp"

namespace phisched::classad {

void ClassAd::insert(std::string name, ExprPtr expr) {
  PHISCHED_REQUIRE(!name.empty(), "ClassAd: empty attribute name");
  PHISCHED_REQUIRE(expr != nullptr, "ClassAd: null expression");
  attrs_[std::move(name)] = std::move(expr);
}

void ClassAd::insert_integer(std::string name, std::int64_t v) {
  insert(std::move(name), make_literal(Value::integer(v)));
}

void ClassAd::insert_real(std::string name, double v) {
  insert(std::move(name), make_literal(Value::real(v)));
}

void ClassAd::insert_boolean(std::string name, bool v) {
  insert(std::move(name), make_literal(Value::boolean(v)));
}

void ClassAd::insert_string(std::string name, std::string v) {
  insert(std::move(name), make_literal(Value::string(std::move(v))));
}

void ClassAd::insert_expr(std::string name, std::string_view expr_source) {
  insert(std::move(name), parse(expr_source));
}

bool ClassAd::erase(const std::string& name) { return attrs_.erase(name) > 0; }

bool ClassAd::has(const std::string& name) const {
  return attrs_.find(name) != attrs_.end();
}

ExprPtr ClassAd::lookup(const std::string& name) const {
  auto it = attrs_.find(name);
  return it == attrs_.end() ? nullptr : it->second;
}

Value ClassAd::eval(const std::string& name, const ClassAd* target) const {
  ExprPtr e = lookup(name);
  if (e == nullptr) return Value::undefined();
  return evaluate(*e, EvalContext{this, target});
}

std::optional<std::int64_t> ClassAd::eval_integer(const std::string& name,
                                                  const ClassAd* target) const {
  const Value v = eval(name, target);
  if (v.is_integer()) return v.as_integer();
  if (v.is_real()) return real_to_integer(v.as_real());
  return std::nullopt;
}

std::optional<double> ClassAd::eval_real(const std::string& name,
                                         const ClassAd* target) const {
  const Value v = eval(name, target);
  if (v.is_number()) return v.number();
  return std::nullopt;
}

std::optional<bool> ClassAd::eval_boolean(const std::string& name,
                                          const ClassAd* target) const {
  const Value v = eval(name, target);
  if (v.is_boolean()) return v.as_boolean();
  if (v.is_number()) return v.number() != 0.0;
  return std::nullopt;
}

std::optional<std::string> ClassAd::eval_string(const std::string& name,
                                                const ClassAd* target) const {
  const Value v = eval(name, target);
  if (v.is_string()) return v.as_string();
  return std::nullopt;
}

std::vector<std::string> ClassAd::attribute_names() const {
  std::vector<std::string> out;
  out.reserve(attrs_.size());
  for (const auto& [name, _] : attrs_) out.push_back(name);
  return out;
}

std::string ClassAd::to_string() const {
  std::ostringstream os;
  for (const auto& [name, expr] : attrs_) {
    os << name << " = " << classad::to_string(*expr) << "\n";
  }
  return os.str();
}

namespace {

bool reads_target_in(const ClassAd& ad, const Expr& e) {
  if (e.kind == Expr::Kind::kAttrRef) {
    return e.scope == AttrScope::kTarget ||
           (e.scope == AttrScope::kNone && !ad.has(e.attr));
  }
  return std::any_of(e.children.begin(), e.children.end(),
                     [&](const ExprPtr& c) { return reads_target_in(ad, *c); });
}

bool same_literal(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kUndefined:
    case ValueType::kError: return true;
    case ValueType::kBoolean: return a.as_boolean() == b.as_boolean();
    case ValueType::kInteger: return a.as_integer() == b.as_integer();
    case ValueType::kReal:
      return std::bit_cast<std::uint64_t>(a.as_real()) ==
             std::bit_cast<std::uint64_t>(b.as_real());
    case ValueType::kString: return a.as_string() == b.as_string();
  }
  return false;
}

void mix(std::uint64_t& h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

void hash_into(std::uint64_t& h, const Expr& e) {
  mix(h, static_cast<std::uint64_t>(e.kind));
  switch (e.kind) {
    case Expr::Kind::kLiteral: {
      const Value& v = e.literal;
      mix(h, static_cast<std::uint64_t>(v.type()));
      if (v.is_boolean()) mix(h, v.as_boolean() ? 1 : 0);
      if (v.is_integer()) mix(h, static_cast<std::uint64_t>(v.as_integer()));
      if (v.is_real()) mix(h, std::bit_cast<std::uint64_t>(v.as_real()));
      if (v.is_string()) mix(h, std::hash<std::string>{}(v.as_string()));
      break;
    }
    case Expr::Kind::kAttrRef:
      mix(h, static_cast<std::uint64_t>(e.scope));
      mix(h, std::hash<std::string>{}(e.attr));
      break;
    case Expr::Kind::kUnary: mix(h, static_cast<std::uint64_t>(e.unary_op)); break;
    case Expr::Kind::kBinary: mix(h, static_cast<std::uint64_t>(e.binary_op)); break;
    case Expr::Kind::kTernary: break;
    case Expr::Kind::kCall: mix(h, std::hash<std::string>{}(e.function)); break;
  }
  for (const ExprPtr& c : e.children) hash_into(h, *c);
}

/// Appends to `out` what `e`, evaluated with `ad` as MY, reads of `ad`
/// (see MatchSignature::reads); `seen` holds the names already visited.
void collect_reads(const ClassAd& ad, const Expr& e,
                   std::vector<const std::string*>& seen,
                   std::vector<ExprPtr>& out) {
  if (e.kind != Expr::Kind::kAttrRef) {
    for (const ExprPtr& c : e.children) collect_reads(ad, *c, seen, out);
    return;
  }
  if (e.scope == AttrScope::kTarget) return;
  for (const std::string* name : seen) {
    if (iequals(*name, e.attr)) return;
  }
  seen.push_back(&e.attr);
  // Pre-order: each name visited is then a function of the tree and the
  // values recorded before it, so equal sequences mean equal walks.
  const ExprPtr value = ad.lookup(e.attr);
  out.push_back(value);
  if (value != nullptr) collect_reads(ad, *value, seen, out);
}

}  // namespace

bool ClassAd::reads_target() const {
  return std::any_of(attrs_.begin(), attrs_.end(), [&](const auto& attr) {
    return reads_target_in(*this, *attr.second);
  });
}

bool same_expr(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->kind != b->kind || a->children.size() != b->children.size()) {
    return false;
  }
  switch (a->kind) {
    case Expr::Kind::kLiteral:
      if (!same_literal(a->literal, b->literal)) return false;
      break;
    case Expr::Kind::kAttrRef:
      if (a->scope != b->scope || a->attr != b->attr) return false;
      break;
    case Expr::Kind::kUnary:
      if (a->unary_op != b->unary_op) return false;
      break;
    case Expr::Kind::kBinary:
      if (a->binary_op != b->binary_op) return false;
      break;
    case Expr::Kind::kTernary: break;
    case Expr::Kind::kCall:
      if (a->function != b->function) return false;
      break;
  }
  for (std::size_t i = 0; i < a->children.size(); ++i) {
    if (!same_expr(a->children[i], b->children[i])) return false;
  }
  return true;
}

bool operator==(const MatchSignature& a, const MatchSignature& b) {
  if (a.hash != b.hash || a.reads.size() != b.reads.size() ||
      !same_expr(a.requirements, b.requirements)) {
    return false;
  }
  for (std::size_t i = 0; i < a.reads.size(); ++i) {
    if (!same_expr(a.reads[i], b.reads[i])) return false;
  }
  return true;
}

MatchSignature match_signature(const ClassAd& ad) {
  MatchSignature sig;
  sig.requirements = ad.lookup("Requirements");
  if (sig.requirements == nullptr) return sig;
  std::vector<const std::string*> seen;
  collect_reads(ad, *sig.requirements, seen, sig.reads);
  hash_into(sig.hash, *sig.requirements);
  for (const ExprPtr& read : sig.reads) {
    if (read == nullptr) {
      mix(sig.hash, 0);
    } else {
      hash_into(sig.hash, *read);
    }
  }
  return sig;
}

bool requirements_met(const ClassAd& ad, const ClassAd& target) {
  ExprPtr req = ad.lookup("Requirements");
  if (req == nullptr) return true;
  const Value v = evaluate(*req, EvalContext{&ad, &target});
  return v.is_boolean() && v.as_boolean();
}

bool symmetric_match(const ClassAd& a, const ClassAd& b) {
  return requirements_met(a, b) && requirements_met(b, a);
}

double eval_rank(const ClassAd& ad, const ClassAd& target) {
  ExprPtr rank = ad.lookup("Rank");
  if (rank == nullptr) return 0.0;
  const Value v = evaluate(*rank, EvalContext{&ad, &target});
  return v.is_number() ? v.number() : 0.0;
}

ClassAd parse_classad(std::string_view text) {
  ClassAd ad;
  std::size_t line_start = 0;
  std::size_t line_no = 0;
  while (line_start <= text.size()) {
    const std::size_t nl = text.find('\n', line_start);
    std::string_view line = text.substr(
        line_start, nl == std::string_view::npos ? text.size() - line_start
                                                 : nl - line_start);
    ++line_no;
    line_start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;

    // Strip comments (a '#' outside of string literals) and whitespace.
    bool in_string = false;
    std::size_t comment = line.size();
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '"' && (i == 0 || line[i - 1] != '\\')) {
        in_string = !in_string;
      } else if (line[i] == '#' && !in_string) {
        comment = i;
        break;
      }
    }
    line = line.substr(0, comment);
    while (!line.empty() && std::isspace(static_cast<unsigned char>(line.front()))) {
      line.remove_prefix(1);
    }
    while (!line.empty() && std::isspace(static_cast<unsigned char>(line.back()))) {
      line.remove_suffix(1);
    }
    if (line.empty()) continue;

    // Split on the first '=' that is not part of ==, =?=, =!=, <=, >=, !=.
    std::size_t eq = std::string_view::npos;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] != '=') continue;
      const char prev = i > 0 ? line[i - 1] : '\0';
      const char next = i + 1 < line.size() ? line[i + 1] : '\0';
      if (prev == '<' || prev == '>' || prev == '!' || prev == '=') continue;
      if (next == '=' || next == '?' || next == '!') continue;
      eq = i;
      break;
    }
    if (eq == std::string_view::npos) {
      throw ParseError("expected 'Name = expression' on line " +
                           std::to_string(line_no),
                       0);
    }
    std::string name(line.substr(0, eq));
    while (!name.empty() && std::isspace(static_cast<unsigned char>(name.back()))) {
      name.pop_back();
    }
    if (name.empty()) {
      throw ParseError("missing attribute name on line " +
                           std::to_string(line_no),
                       0);
    }
    ad.insert(std::move(name), parse(line.substr(eq + 1)));
  }
  return ad;
}

}  // namespace phisched::classad
