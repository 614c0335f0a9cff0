#include "classad/eval.hpp"

#include <algorithm>
#include <cmath>

#include "classad/classad.hpp"

namespace phisched::classad {

namespace {

constexpr int kMaxDepth = 64;  // guards against attribute reference cycles

Value eval_node(const Expr& expr, const EvalContext& ctx, int depth);

Value eval_attr_ref(const Expr& expr, const EvalContext& ctx, int depth) {
  auto resolve = [&](const ClassAd* ad, const ClassAd* other) -> Value {
    if (ad == nullptr) return Value::undefined();
    ExprPtr e = ad->lookup(expr.attr);
    if (e == nullptr) return Value::undefined();
    // The referenced expression evaluates in the scope of the ad that owns
    // it: MY becomes that ad, TARGET the other side.
    EvalContext inner{ad, other};
    return eval_node(*e, inner, depth + 1);
  };

  switch (expr.scope) {
    case AttrScope::kMy:
      return resolve(ctx.my, ctx.target);
    case AttrScope::kTarget:
      return resolve(ctx.target, ctx.my);
    case AttrScope::kNone: {
      if (ctx.my != nullptr && ctx.my->lookup(expr.attr) != nullptr) {
        return resolve(ctx.my, ctx.target);
      }
      return resolve(ctx.target, ctx.my);
    }
  }
  return Value::error();
}

/// A real result of int()/floor()/ceiling()/round() as an integer, or
/// error when it does not fit int64.
Value integer_or_error(double x) {
  const auto i = real_to_integer(x);
  return i.has_value() ? Value::integer(*i) : Value::error();
}

Value call_builtin(const std::string& name, const std::vector<Value>& args) {
  auto arity = [&](std::size_t n) { return args.size() == n; };

  if (iequals(name, "isUndefined")) {
    return arity(1) ? Value::boolean(args[0].is_undefined()) : Value::error();
  }
  if (iequals(name, "isError")) {
    return arity(1) ? Value::boolean(args[0].is_error()) : Value::error();
  }
  if (iequals(name, "ifThenElse")) {
    if (!arity(3)) return Value::error();
    const Value cond = args[0];
    if (cond.is_boolean()) return cond.as_boolean() ? args[1] : args[2];
    if (cond.is_number()) return cond.number() != 0.0 ? args[1] : args[2];
    return Value::error();
  }
  if (iequals(name, "int")) {
    if (!arity(1)) return Value::error();
    if (args[0].is_integer()) return args[0];
    if (args[0].is_real()) return integer_or_error(args[0].as_real());
    if (args[0].is_boolean()) return Value::integer(args[0].as_boolean() ? 1 : 0);
    return Value::error();
  }
  if (iequals(name, "real")) {
    if (!arity(1)) return Value::error();
    if (args[0].is_number()) return Value::real(args[0].number());
    return Value::error();
  }
  if (iequals(name, "string")) {
    if (!arity(1)) return Value::error();
    if (args[0].is_string()) return args[0];
    return Value::string(args[0].to_string());
  }
  if (iequals(name, "floor")) {
    if (!arity(1) || !args[0].is_number()) return Value::error();
    return integer_or_error(std::floor(args[0].number()));
  }
  if (iequals(name, "ceiling")) {
    if (!arity(1) || !args[0].is_number()) return Value::error();
    return integer_or_error(std::ceil(args[0].number()));
  }
  if (iequals(name, "round")) {
    if (!arity(1) || !args[0].is_number()) return Value::error();
    // std::round rounds halves away from zero, as llround does.
    return integer_or_error(std::round(args[0].number()));
  }
  if (iequals(name, "min") || iequals(name, "max")) {
    if (args.empty()) return Value::error();
    const bool want_min = iequals(name, "min");
    bool all_int = true;
    std::size_t best = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i].is_undefined()) return Value::undefined();
      if (!args[i].is_number()) return Value::error();
      all_int = all_int && args[i].is_integer();
      const double x = args[i].number();
      const double y = args[best].number();
      if (want_min ? x < y : x > y) best = i;
    }
    // The winning argument itself, so an integer result never makes a
    // lossy round trip through double.
    return all_int ? args[best] : Value::real(args[best].number());
  }
  if (iequals(name, "strcat")) {
    std::string out;
    for (const auto& a : args) {
      if (a.is_undefined()) return Value::undefined();
      out += a.is_string() ? a.as_string() : a.to_string();
    }
    return Value::string(std::move(out));
  }
  if (iequals(name, "toLower") || iequals(name, "toUpper")) {
    if (!arity(1)) return Value::error();
    if (args[0].is_undefined()) return Value::undefined();
    if (!args[0].is_string()) return Value::error();
    std::string s = args[0].as_string();
    const bool up = iequals(name, "toUpper");
    std::transform(s.begin(), s.end(), s.begin(), [up](char c) {
      const auto u = static_cast<unsigned char>(c);
      return static_cast<char>(up ? std::toupper(u) : std::tolower(u));
    });
    return Value::string(std::move(s));
  }
  if (iequals(name, "size")) {
    if (!arity(1)) return Value::error();
    if (args[0].is_undefined()) return Value::undefined();
    if (!args[0].is_string()) return Value::error();
    return Value::integer(static_cast<std::int64_t>(args[0].as_string().size()));
  }
  if (iequals(name, "pow")) {
    if (!arity(2)) return Value::error();
    if (args[0].is_undefined() || args[1].is_undefined()) return Value::undefined();
    if (!args[0].is_number() || !args[1].is_number()) return Value::error();
    return Value::real(std::pow(args[0].number(), args[1].number()));
  }
  if (iequals(name, "stringListMember") || iequals(name, "stringListSize")) {
    // Condor string-list helpers: lists are delimiter-separated strings,
    // default delimiters ", ". Membership is case-insensitive, matching
    // Condor's stringListIMember behaviour for machine names.
    const bool is_member = iequals(name, "stringListMember");
    const std::size_t list_arg = is_member ? 1 : 0;
    const std::size_t min_args = is_member ? 2 : 1;
    if (args.size() < min_args || args.size() > min_args + 1) {
      return Value::error();
    }
    for (const Value& a : args) {
      if (a.is_undefined()) return Value::undefined();
      if (!a.is_string()) return Value::error();
    }
    const std::string delims =
        args.size() == min_args + 1 ? args[min_args].as_string() : ", ";
    // Split the list on any delimiter character, skipping empties.
    std::vector<std::string> items;
    std::string current;
    for (char c : args[list_arg].as_string()) {
      if (delims.find(c) != std::string::npos) {
        if (!current.empty()) items.push_back(std::move(current));
        current.clear();
      } else {
        current += c;
      }
    }
    if (!current.empty()) items.push_back(std::move(current));

    if (!is_member) {
      return Value::integer(static_cast<std::int64_t>(items.size()));
    }
    for (const std::string& item : items) {
      if (iequals(item, args[0].as_string())) return Value::boolean(true);
    }
    return Value::boolean(false);
  }
  return Value::error();  // unknown function
}

Value eval_node(const Expr& expr, const EvalContext& ctx, int depth) {
  if (depth > kMaxDepth) return Value::error();  // probable reference cycle

  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kAttrRef:
      return eval_attr_ref(expr, ctx, depth);
    case Expr::Kind::kUnary: {
      const Value v = eval_node(*expr.children[0], ctx, depth + 1);
      return expr.unary_op == UnaryOp::kNot ? op_not(v) : op_neg(v);
    }
    case Expr::Kind::kBinary: {
      const Value a = eval_node(*expr.children[0], ctx, depth + 1);
      // Short-circuit: op_and / op_or yield a boolean beside an undefined
      // operand only when the left side alone decides them (false for
      // &&, true for ||), and evaluation has no side effects.
      if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
        const Value decided = expr.binary_op == BinaryOp::kAnd
                                  ? op_and(a, Value::undefined())
                                  : op_or(a, Value::undefined());
        if (decided.is_boolean()) return decided;
      }
      const Value b = eval_node(*expr.children[1], ctx, depth + 1);
      switch (expr.binary_op) {
        case BinaryOp::kAdd: return op_add(a, b);
        case BinaryOp::kSub: return op_sub(a, b);
        case BinaryOp::kMul: return op_mul(a, b);
        case BinaryOp::kDiv: return op_div(a, b);
        case BinaryOp::kMod: return op_mod(a, b);
        case BinaryOp::kEq: return op_eq(a, b);
        case BinaryOp::kNe: return op_ne(a, b);
        case BinaryOp::kLt: return op_lt(a, b);
        case BinaryOp::kLe: return op_le(a, b);
        case BinaryOp::kGt: return op_gt(a, b);
        case BinaryOp::kGe: return op_ge(a, b);
        case BinaryOp::kIs: return op_is(a, b);
        case BinaryOp::kIsnt: return op_isnt(a, b);
        case BinaryOp::kAnd: return op_and(a, b);
        case BinaryOp::kOr: return op_or(a, b);
      }
      return Value::error();
    }
    case Expr::Kind::kTernary: {
      const Value cond = eval_node(*expr.children[0], ctx, depth + 1);
      if (cond.is_error()) return Value::error();
      if (cond.is_undefined()) return Value::undefined();
      bool truthy = false;
      if (cond.is_boolean()) truthy = cond.as_boolean();
      else if (cond.is_number()) truthy = cond.number() != 0.0;
      else return Value::error();
      return eval_node(*expr.children[truthy ? 1 : 2], ctx, depth + 1);
    }
    case Expr::Kind::kCall: {
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const auto& child : expr.children) {
        args.push_back(eval_node(*child, ctx, depth + 1));
      }
      return call_builtin(expr.function, args);
    }
  }
  return Value::error();
}

}  // namespace

Value evaluate(const Expr& expr, const EvalContext& ctx) {
  return eval_node(expr, ctx, 0);
}

}  // namespace phisched::classad
