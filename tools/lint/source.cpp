// phisched_lint — shared lexing layer: the comment/string stripper,
// offset→line mapping, suppression lookup, and small token helpers.
//
// The stripper is the load-bearing piece: every pass pattern-matches on
// its output, so a mis-lexed literal turns into phantom findings (or
// silently hidden ones) with wrong line numbers. It is hardened against
// the three lexing traps tests/lint/fixtures/stripper pins down:
//
//   * raw string literals `R"delim(...)delim"`, including the encoding
//     prefixes u8R/uR/UR/LR, whose bodies may contain `//`, `"` and `)"`
//     without ending the literal (a malformed delimiter — too long, or
//     containing a character the standard forbids — falls back to plain
//     string lexing rather than swallowing the rest of the file);
//   * CRLF line endings: `\r` never terminates or extends any state by
//     itself, and the offset→line map stays byte-exact;
//   * backslash line continuations: phase-2 splicing happens before
//     comments are recognized, so a `//` comment whose physical line
//     ends in `\` (or `\` CRLF) continues onto the next physical line.

#include "lint/lint.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

namespace phisched::lint {

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool is_ident_start(char c) { return is_ident_char(c) && !(c >= '0' && c <= '9'); }

namespace {

/// True when the characters at `i` are a backslash line continuation:
/// `\` directly followed by `\n` or `\r\n`. Sets `skip` to the number of
/// characters the splice covers (2 or 3).
bool is_continuation(const std::string& s, std::size_t i, std::size_t& skip) {
  if (s[i] != '\\') return false;
  if (i + 1 < s.size() && s[i + 1] == '\n') {
    skip = 2;
    return true;
  }
  if (i + 2 < s.size() && s[i + 1] == '\r' && s[i + 2] == '\n') {
    skip = 3;
    return true;
  }
  return false;
}

/// A raw-string delimiter may be at most 16 characters and must not
/// contain space, parentheses, or backslash. Returns false when the text
/// after R" is not a well-formed raw-string opener (fall back to plain
/// string lexing so a typo cannot swallow the rest of the file).
bool parse_raw_delim(const std::string& s, std::size_t quote,
                     std::string& delim) {
  delim.clear();
  for (std::size_t j = quote + 1; j < s.size(); ++j) {
    const char c = s[j];
    if (c == '(') return true;
    if (c == ' ' || c == ')' || c == '\\' || c == '\n' || c == '\r' ||
        delim.size() >= 16) {
      return false;
    }
    delim += c;
  }
  return false;
}

/// True when the `"` at `i` opens a raw string literal, i.e. is directly
/// preceded by R (optionally with a u8/u/U/L encoding prefix) that is not
/// the tail of a longer identifier.
bool is_raw_string_open(const std::string& s, std::size_t i) {
  if (i == 0 || s[i - 1] != 'R') return false;
  std::size_t p = i - 1;  // at 'R'
  if (p >= 2 && s[p - 2] == 'u' && s[p - 1] == '8') {
    p -= 2;
  } else if (p >= 1 && (s[p - 1] == 'u' || s[p - 1] == 'U' || s[p - 1] == 'L')) {
    p -= 1;
  }
  return p == 0 || !is_ident_char(s[p - 1]);
}

}  // namespace

std::string sanitize(const std::string& text, bool keep_strings) {
  std::string out = text;
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  St st = St::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  auto blank = [&](std::size_t i) {
    if (out[i] != '\n' && out[i] != '\r') out[i] = ' ';
  };
  auto blank_literal = [&](std::size_t i) {
    if (!keep_strings) blank(i);
  };
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    std::size_t splice = 0;
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          if (is_raw_string_open(out, i) && parse_raw_delim(out, i, raw_delim)) {
            st = St::kRaw;
          } else {
            st = St::kString;
          }
        } else if (c == '\'') {
          // Digit separators (1'000'000) are not char literals.
          if (!(i > 0 && is_ident_char(out[i - 1]))) st = St::kChar;
        }
        break;
      case St::kLineComment:
        // Phase-2 splice: a physical line ending in `\` (or `\` CRLF)
        // continues the comment onto the next physical line.
        if (is_continuation(out, i, splice)) {
          out[i] = ' ';
          i += splice - 1;  // leave the newline bytes intact, stay in state
        } else if (c == '\n') {
          st = St::kCode;
        } else {
          blank(i);
        }
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = St::kCode;
        } else {
          blank(i);
        }
        break;
      case St::kString:
        if (is_continuation(out, i, splice)) {
          blank_literal(i);
          i += splice - 1;
        } else if (c == '\\' && next != '\0') {
          blank_literal(i);
          blank_literal(i + 1);
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        } else if (c == '\n') {
          st = St::kCode;  // unterminated literal: do not swallow the file
        } else {
          blank_literal(i);
        }
        break;
      case St::kChar:
        if (c == '\\' && next != '\0') {
          blank_literal(i);
          blank_literal(i + 1);
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c == '\n') {
          st = St::kCode;
        } else {
          blank_literal(i);
        }
        break;
      case St::kRaw: {
        const std::string close = ")" + raw_delim + "\"";
        if (out.compare(i, close.size(), close) == 0) {
          for (std::size_t j = 0; j < close.size(); ++j) blank_literal(i + j);
          i += close.size() - 1;
          st = St::kCode;
        } else {
          blank_literal(i);
        }
        break;
      }
    }
  }
  return out;
}

std::size_t FileText::line_of(std::size_t offset) const {
  auto it = std::upper_bound(line_starts.begin(), line_starts.end(), offset);
  return static_cast<std::size_t>(it - line_starts.begin());
}

std::string_view FileText::raw_line(std::size_t line) const {
  if (line == 0 || line > line_starts.size()) return {};
  const std::size_t begin = line_starts[line - 1];
  std::size_t end = line < line_starts.size() ? line_starts[line] : raw.size();
  while (end > begin && (raw[end - 1] == '\n' || raw[end - 1] == '\r')) --end;
  return std::string_view(raw).substr(begin, end - begin);
}

namespace {

/// Directories whose contents count as "decision paths": code here feeds
/// scheduling and event-ordering decisions, so iteration-order hazards
/// are correctness bugs, not style. core/ joined the list with the
/// interference-aware add-on: its device views and bandwidth trims pick
/// placements, so they carry the same bit-identical promise. Files named
/// strategy* or batch* qualify wherever they live — the matchmaking
/// strategies (condor/strategy*) and the batch packer (knapsack/batch*)
/// both promise bit-identical decisions from a given snapshot, so moving
/// such a file out of its directory must not drop it from the lint's
/// scope.
bool path_is_decision(const fs::path& p) {
  const std::string stem = p.filename().string();
  if (stem.rfind("strategy", 0) == 0 || stem.rfind("batch", 0) == 0) {
    return true;
  }
  for (const auto& part : p) {
    const std::string s = part.string();
    if (s == "sim" || s == "phi" || s == "cosmic" || s == "condor" ||
        s == "cluster" || s == "core") {
      return true;
    }
  }
  return false;
}

bool path_has_component(const fs::path& p, std::string_view name) {
  for (const auto& part : p) {
    if (part.string() == name) return true;
  }
  return false;
}

}  // namespace

bool load_file(const fs::path& path, const std::string& rel,
               const std::string& root, FileText& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "phisched_lint: cannot open '" << path.string() << "'\n";
    return false;
  }
  out.path = path.generic_string();
  out.rel = rel;
  out.root = root;
  out.raw.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  out.code = sanitize(out.raw, /*keep_strings=*/false);
  out.code_strings = sanitize(out.raw, /*keep_strings=*/true);
  out.line_starts.clear();
  out.line_starts.push_back(0);
  for (std::size_t i = 0; i < out.raw.size(); ++i) {
    if (out.raw[i] == '\n') out.line_starts.push_back(i + 1);
  }
  out.decision_path = path_is_decision(path);
  out.rng_file = path.generic_string().find("common/rng") != std::string::npos;
  // bench/ and tools/ legitimately read the wall clock: they time the
  // simulator from outside it. Their *randomness* still has to come from
  // seeded streams, so only wall-clock is relaxed there.
  out.timing_exempt =
      path_has_component(path, "bench") || path_has_component(path, "tools");
  return true;
}

std::size_t skip_spaces(const std::string& s, std::size_t pos) {
  while (pos < s.size() &&
         (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' || s[pos] == '\r')) {
    ++pos;
  }
  return pos;
}

std::size_t skip_angles(const std::string& s, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '<') ++depth;
    else if (c == '>') {
      if (--depth == 0) return i + 1;
    } else if (c == ';') {
      return std::string::npos;  // not a template argument list after all
    }
  }
  return std::string::npos;
}

std::size_t skip_balanced(const std::string& s, std::size_t pos, char open,
                          char close) {
  int depth = 0;
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (s[i] == open) ++depth;
    else if (s[i] == close) {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

std::string ident_before(const std::string& s, std::size_t pos) {
  while (pos > 0 && (s[pos - 1] == ' ' || s[pos - 1] == '\t')) --pos;
  std::size_t end = pos;
  while (pos > 0 && is_ident_char(s[pos - 1])) --pos;
  return s.substr(pos, end - pos);
}

bool contains_word(const std::string& s, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = s.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(s[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= s.size() || !is_ident_char(s[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

bool is_suppressed(const FileText& f, std::size_t line, const std::string& rule) {
  for (std::size_t l : {line, line > 1 ? line - 1 : line}) {
    const std::string_view text = f.raw_line(l);
    const std::size_t mark = text.find("phisched-lint:");
    if (mark == std::string_view::npos) continue;
    const std::size_t open = text.find("allow(", mark);
    if (open == std::string_view::npos) continue;
    const std::size_t close = text.find(')', open);
    if (close == std::string_view::npos) continue;
    std::string list(text.substr(open + 6, close - open - 6));
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const std::size_t b = item.find_first_not_of(" \t");
      if (b == std::string::npos) continue;
      const std::size_t e = item.find_last_not_of(" \t");
      const std::string name = item.substr(b, e - b + 1);
      if (name == rule || name == "all") return true;
    }
  }
  return false;
}

}  // namespace phisched::lint
