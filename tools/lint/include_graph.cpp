// phisched_lint — whole-program include-graph passes.
//
// Three rules run over the project include graph (quoted includes only —
// system headers are not part of the architecture):
//
//   layering        an include edge that climbs the architecture layer DAG
//                   (e.g. phi/ including cosmic/) or crosses between
//                   unrelated layers. The DAG is the one documented in
//                   docs/architecture.md; --list-layers prints the table
//                   and the lint_layer_sync test diffs the two.
//   include-cycle   a strongly connected component of project files. Even
//                   guard-protected cycles make build order and refactors
//                   fragile, so they are banned outright.
//   unused-include  a quoted include whose header contributes no name the
//                   including file mentions. Heuristic, marker-based:
//                   headers export type/function/macro/enumerator names;
//                   an include is credited when any marker (its own, or —
//                   transitively — one from a header it re-exports)
//                   appears in the includer. Headers with no recognizable
//                   markers are never flagged.

#include "lint/lint.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <set>

namespace phisched::lint {

namespace {

// ---------------------------------------------------------------------------
// The architecture layer DAG
// ---------------------------------------------------------------------------

struct Layer {
  const char* name;
  std::vector<const char*> deps;  // layers this one may include from
};

// Order matters only for presentation; every layer implicitly depends on
// itself. tools/bench/tests/examples sit on top and may include anything.
const std::vector<Layer>& layers() {
  static const std::vector<Layer> kLayers = {
      {"common", {}},
      {"obs", {"common"}},
      {"classad", {"common"}},
      {"workload", {"common"}},
      {"knapsack", {"common"}},
      {"sim", {"common"}},
      {"phi", {"common", "obs", "sim"}},
      {"cosmic", {"common", "obs", "sim", "phi"}},
      {"condor", {"common", "obs", "sim", "classad", "workload", "knapsack"}},
      {"core",
       {"common", "obs", "sim", "classad", "workload", "knapsack", "condor"}},
      {"cluster",
       {"common", "obs", "sim", "classad", "workload", "knapsack", "phi",
        "cosmic", "condor", "core"}},
  };
  return kLayers;
}

const std::set<std::string, std::less<>>& top_layers() {
  static const std::set<std::string, std::less<>> kTop = {"tools", "bench",
                                                          "tests", "examples"};
  return kTop;
}

/// The layer a path belongs to: the first path component (left to right)
/// naming a src layer or a top layer; otherwise the file's root argument
/// (so `phisched_lint src` assigns stray files to "src", which is
/// unknown and therefore unconstrained).
std::string layer_of(const FileText& f) {
  std::string component;
  auto classify = [](const std::string& c) -> bool {
    for (const Layer& l : layers()) {
      if (c == l.name) return true;
    }
    return top_layers().count(c) > 0;
  };
  for (const std::string& path : {f.rel, f.path}) {
    component.clear();
    for (char ch : path) {
      if (ch == '/') {
        if (classify(component)) return component;
        component.clear();
      } else {
        component += ch;
      }
    }
    if (classify(component)) return component;
  }
  return f.root;
}

const Layer* find_layer(const std::string& name) {
  for (const Layer& l : layers()) {
    if (name == l.name) return &l;
  }
  return nullptr;
}

/// True when layer `from` may include from layer `to`.
bool edge_allowed(const std::string& from, const std::string& to) {
  if (from == to) return true;
  if (top_layers().count(from) > 0) return true;  // harnesses see everything
  const Layer* l = find_layer(from);
  if (l == nullptr) return true;  // unknown includer — unconstrained
  const Layer* t = find_layer(to);
  if (t == nullptr && top_layers().count(to) == 0) return true;  // unknown dep
  for (const char* d : l->deps) {
    if (to == d) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Include extraction and resolution
// ---------------------------------------------------------------------------

struct Include {
  std::size_t offset = 0;   // of the '#'
  std::string spelling;     // the quoted path as written
  int target = -1;          // index into files, -1 when unresolved
  bool exported = false;    // carries an export pragma
};

/// Every `#include "..."` directive in the file (angle includes are
/// system/stdlib and ignored). Parsed from code_strings so the quoted
/// path survives sanitization; a directive must be the first token on
/// its (logical) line.
std::vector<Include> parse_includes(const FileText& f) {
  std::vector<Include> out;
  const std::string& code = f.code_strings;
  std::size_t pos = 0;
  while ((pos = code.find('#', pos)) != std::string::npos) {
    const std::size_t hash = pos;
    ++pos;
    // Only at the start of a line (allowing leading whitespace).
    std::size_t p = hash;
    while (p > 0 && (code[p - 1] == ' ' || code[p - 1] == '\t')) --p;
    if (p != 0 && code[p - 1] != '\n') continue;
    p = skip_spaces(code, hash + 1);
    if (code.compare(p, 7, "include") != 0) continue;
    p = skip_spaces(code, p + 7);
    if (p >= code.size() || code[p] != '"') continue;
    const std::size_t close = code.find('"', p + 1);
    if (close == std::string::npos) continue;
    Include inc;
    inc.offset = hash;
    inc.spelling = code.substr(p + 1, close - p - 1);
    // Export pragma on the same raw line keeps re-exported names credited.
    const std::string_view line = f.raw_line(f.line_of(hash));
    inc.exported = line.find("IWYU pragma: export") != std::string_view::npos ||
                   line.find("phisched-lint: export") != std::string_view::npos;
    out.push_back(std::move(inc));
    pos = close;
  }
  return out;
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// Lexically normalizes "a/b/../c" and "a/./c".
std::string normalize(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  auto push = [&]() {
    if (cur.empty() || cur == ".") {
    } else if (cur == ".." && !parts.empty() && parts.back() != "..") {
      parts.pop_back();
    } else {
      parts.push_back(cur);
    }
    cur.clear();
  };
  for (char c : path) {
    if (c == '/') push();
    else cur += c;
  }
  push();
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += '/';
    out += p;
  }
  return out;
}

// ---------------------------------------------------------------------------
// unused-include markers
// ---------------------------------------------------------------------------

bool is_keyword(const std::string& w) {
  static const std::set<std::string, std::less<>> kKeywords = {
      "if",       "for",      "while",    "switch",   "return",  "sizeof",
      "alignof",  "decltype", "static",   "const",    "constexpr","inline",
      "noexcept", "new",      "delete",   "operator", "template","typename",
      "class",    "struct",   "enum",     "union",    "namespace","using",
      "public",   "private",  "protected","virtual",  "override","final",
      "case",     "default",  "do",       "else",     "goto",    "try",
      "catch",    "throw",    "explicit", "friend",   "typedef", "void",
      "bool",     "char",     "int",      "long",     "short",   "float",
      "double",   "unsigned", "signed",   "auto",     "extern",  "static_assert",
      "requires", "concept",  "co_await", "co_return","co_yield","assert"};
  return kKeywords.count(w) > 0;
}

/// Names a header exports: classes/structs/enums/unions, `using X = `,
/// `#define X`, enumerators, and namespace-scope function/variable names.
/// Brace nesting is tracked so only namespace-scope declarations count as
/// function/variable markers (members are reached via their class name).
std::set<std::string> header_markers(const FileText& f) {
  std::set<std::string> markers;
  const std::string& code = f.code;

  auto word_at = [&](std::size_t p) -> std::string {
    std::size_t q = p;
    while (q < code.size() && is_ident_char(code[q])) ++q;
    return q > p && is_ident_start(code[p]) ? code.substr(p, q - p)
                                            : std::string();
  };

  // class/struct/enum/union NAME, using NAME =, plus enumerator capture.
  for (std::string_view kw : {"class", "struct", "enum", "union"}) {
    std::size_t pos = 0;
    while ((pos = code.find(kw, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += kw.size();
      if ((start > 0 && is_ident_char(code[start - 1])) ||
          (pos < code.size() && is_ident_char(code[pos]))) {
        continue;
      }
      std::size_t p = skip_spaces(code, pos);
      // enum class NAME / enum struct NAME
      if (kw == "enum") {
        for (std::string_view k2 : {"class", "struct"}) {
          if (code.compare(p, k2.size(), k2) == 0 &&
              !is_ident_char(code[p + k2.size()])) {
            p = skip_spaces(code, p + k2.size());
            break;
          }
        }
      }
      const std::string name = word_at(p);
      if (name.empty() || is_keyword(name)) continue;
      markers.insert(name);
      // Enumerators are usable without naming the enum type.
      if (kw == "enum") {
        std::size_t b = p + name.size();
        // Skip an optional `: underlying_type` up to '{' or ';'.
        while (b < code.size() && code[b] != '{' && code[b] != ';') ++b;
        if (b < code.size() && code[b] == '{') {
          const std::size_t be = skip_balanced(code, b, '{', '}');
          if (be != std::string::npos) {
            std::size_t e = b + 1;
            while (e < be - 1) {
              e = skip_spaces(code, e);
              const std::string en = word_at(e);
              if (!en.empty()) markers.insert(en);
              // Advance to past the next top-level ','.
              int depth = 0;
              while (e < be - 1) {
                const char c = code[e];
                if (c == '{' || c == '(' || c == '[') ++depth;
                else if (c == '}' || c == ')' || c == ']') --depth;
                else if (c == ',' && depth == 0) {
                  ++e;
                  break;
                }
                ++e;
              }
            }
          }
        }
      }
    }
  }

  // using NAME = ...;
  {
    std::size_t pos = 0;
    while ((pos = code.find("using", pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += 5;
      if ((start > 0 && is_ident_char(code[start - 1])) ||
          (pos < code.size() && is_ident_char(code[pos]))) {
        continue;
      }
      const std::size_t p = skip_spaces(code, pos);
      const std::string name = word_at(p);
      if (name.empty() || is_keyword(name)) continue;
      const std::size_t eq = skip_spaces(code, p + name.size());
      if (eq < code.size() && code[eq] == '=') markers.insert(name);
    }
  }

  // #define NAME — from code_strings' raw layout via the raw text, since
  // sanitize never touches preprocessor names.
  {
    const std::string& src = f.code_strings;
    std::size_t pos = 0;
    while ((pos = src.find("#define", pos)) != std::string::npos) {
      std::size_t p = pos;
      while (p > 0 && (src[p - 1] == ' ' || src[p - 1] == '\t')) --p;
      const bool at_line_start = p == 0 || src[p - 1] == '\n';
      pos += 7;
      if (!at_line_start) continue;
      const std::size_t n = skip_spaces(src, pos);
      const std::string name = word_at(n);
      if (!name.empty()) markers.insert(name);
    }
  }

  // Namespace-scope function and variable names. Walk braces, tracking
  // whether each open brace belongs to a namespace (declarations inside
  // stay "top-level") or anything else (skipped).
  {
    std::vector<bool> ns_stack;  // true = namespace-like scope
    auto at_top = [&]() {
      for (bool ns : ns_stack) {
        if (!ns) return false;
      }
      return true;
    };
    std::size_t i = 0;
    std::string last_word;
    std::string prev_word;
    bool pending_ns = false;  // saw `namespace` since the last ';' or brace
    char last_nonspace = 0;   // previous non-space char before current token
    while (i < code.size()) {
      const char c = code[i];
      if (is_ident_start(c) && (i == 0 || !is_ident_char(code[i - 1]))) {
        std::size_t q = i;
        while (q < code.size() && is_ident_char(code[q])) ++q;
        prev_word = last_word;
        last_word = code.substr(i, q - i);
        // `namespace` opens a namespace-scope brace unless it is part of
        // `using namespace ...;` (which ends at ';', clearing the flag).
        if (last_word == "namespace" && prev_word != "using") pending_ns = true;
        // Function candidate: IDENT '(' at namespace scope, where the
        // char before IDENT suggests a declarator tail, and IDENT is not
        // a keyword or macro-like control word.
        if (at_top() && !is_keyword(last_word)) {
          const std::size_t after = skip_spaces(code, q);
          if (after < code.size() && code[after] == '(' &&
              (is_ident_char(last_nonspace) || last_nonspace == '>' ||
               last_nonspace == '&' || last_nonspace == '*' ||
               last_nonspace == ']')) {
            markers.insert(last_word);
          }
          // Variable candidate: IDENT then '=' or ';' at namespace scope,
          // preceded by a type-ish char.
          if (after < code.size() && (code[after] == '=' || code[after] == ';') &&
              (after + 1 >= code.size() || code[after + 1] != '=') &&
              (is_ident_char(last_nonspace) || last_nonspace == '>' ||
               last_nonspace == '&' || last_nonspace == '*')) {
            markers.insert(last_word);
          }
        }
        last_nonspace = code[q - 1];
        i = q;
        continue;
      }
      if (c == '{') {
        ns_stack.push_back(pending_ns);
        pending_ns = false;
      } else if (c == '}') {
        if (!ns_stack.empty()) ns_stack.pop_back();
      } else if (c == ';') {
        pending_ns = false;
      }
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') last_nonspace = c;
      ++i;
    }
  }

  markers.erase("");
  return markers;
}

/// Markers of `file` plus, transitively, markers of headers it re-exports
/// (all its quoted includes — a header including another makes the
/// included names reachable through it, which is what "credited" means
/// for the heuristic). Memoized; cycles terminate via the visiting set.
const std::set<std::string>& credited_markers(
    std::size_t idx, const std::vector<FileText>& files,
    const std::vector<std::vector<Include>>& includes,
    std::vector<std::set<std::string>>& memo, std::vector<int>& state) {
  if (state[idx] != 0) return memo[idx];  // done or in-progress (cycle)
  state[idx] = 1;
  std::set<std::string> all = header_markers(files[idx]);
  for (const Include& inc : includes[idx]) {
    if (inc.target < 0) continue;
    const std::set<std::string>& sub = credited_markers(
        static_cast<std::size_t>(inc.target), files, includes, memo, state);
    all.insert(sub.begin(), sub.end());
  }
  memo[idx] = std::move(all);
  state[idx] = 2;
  return memo[idx];
}

std::string stem_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

// ---------------------------------------------------------------------------
// Tarjan SCC for include-cycle
// ---------------------------------------------------------------------------

struct Tarjan {
  static constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  const std::vector<std::vector<std::size_t>>& adj;
  std::vector<std::size_t> index, low;
  std::vector<char> on_stack;
  std::vector<std::size_t> stack;
  std::size_t counter = 0;
  std::vector<std::vector<std::size_t>> sccs;

  explicit Tarjan(const std::vector<std::vector<std::size_t>>& a)
      : adj(a),
        index(a.size(), kUnvisited),
        low(a.size(), 0),
        on_stack(a.size(), 0) {}

  void run() {
    for (std::size_t v = 0; v < adj.size(); ++v) {
      if (index[v] == kUnvisited) strongconnect(v);
    }
  }

  void strongconnect(std::size_t v) {
    // Iterative DFS (explicit stack) — include graphs are shallow but the
    // tool should not assume so.
    struct Frame {
      std::size_t v;
      std::size_t next_edge;
    };
    std::vector<Frame> frames{{v, 0}};
    while (!frames.empty()) {
      Frame& fr = frames.back();
      if (fr.next_edge == 0) {
        index[fr.v] = low[fr.v] = counter++;
        stack.push_back(fr.v);
        on_stack[fr.v] = 1;
      }
      bool descended = false;
      while (fr.next_edge < adj[fr.v].size()) {
        const std::size_t w = adj[fr.v][fr.next_edge++];
        if (index[w] == kUnvisited) {
          frames.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[w] != 0) low[fr.v] = std::min(low[fr.v], index[w]);
      }
      if (descended) continue;
      if (low[fr.v] == index[fr.v]) {
        std::vector<std::size_t> scc;
        std::size_t w;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          scc.push_back(w);
        } while (w != fr.v);
        if (scc.size() > 1) sccs.push_back(std::move(scc));
      }
      const std::size_t child = fr.v;
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().v] = std::min(low[frames.back().v], low[child]);
      }
    }
  }
};

}  // namespace

std::string layer_table_text() {
  std::string out;
  std::size_t width = 0;
  for (const Layer& l : layers()) width = std::max(width, std::string(l.name).size());
  for (const Layer& l : layers()) {
    std::string line = l.name;
    line.append(width - line.size() + 1, ' ');
    line += "-> ";
    if (l.deps.empty()) {
      line += "(none)";
    } else {
      for (std::size_t i = 0; i < l.deps.size(); ++i) {
        if (i != 0) line += ' ';
        line += l.deps[i];
      }
    }
    out += line;
    out += '\n';
  }
  out += "tools/bench/tests/examples -> (any)\n";
  return out;
}

bool run_include_passes(const std::vector<FileText>& files,
                        const std::string& dot_out,
                        std::vector<Finding>& out) {
  // Resolution map: every file is registered under its rel path; when the
  // rel path starts with "src/" the stripped form is registered too, so
  // `#include "phi/device.hpp"` resolves whether the tool was pointed at
  // the repo root or at src/ itself.
  std::map<std::string, int> by_name;
  for (std::size_t i = 0; i < files.size(); ++i) {
    by_name[files[i].rel] = static_cast<int>(i);
  }

  std::vector<std::vector<Include>> includes(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    includes[i] = parse_includes(files[i]);
    for (Include& inc : includes[i]) {
      const auto hit = by_name.find(normalize(inc.spelling));
      if (hit != by_name.end()) {
        inc.target = hit->second;
        continue;
      }
      // Sibling resolution: relative to the including file's directory.
      const std::string dir = dirname_of(files[i].rel);
      if (!dir.empty()) {
        const auto sib = by_name.find(normalize(dir + "/" + inc.spelling));
        if (sib != by_name.end()) inc.target = sib->second;
      }
    }
  }

  // --- layering ---
  std::vector<std::string> layer(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) layer[i] = layer_of(files[i]);
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const Include& inc : includes[i]) {
      if (inc.target < 0) continue;
      const std::string& from = layer[i];
      const std::string& to = layer[static_cast<std::size_t>(inc.target)];
      if (edge_allowed(from, to)) continue;
      out.push_back(
          {files[i].path, files[i].line_of(inc.offset), "layering",
           "include of \"" + inc.spelling + "\" crosses the layer DAG: " +
               from + " may not depend on " + to +
               " (allowed deps for " + from + ": " +
               [&]() -> std::string {
                 const Layer* l = find_layer(from);
                 if (l == nullptr || l->deps.empty()) return "(none)";
                 std::string s;
                 for (std::size_t k = 0; k < l->deps.size(); ++k) {
                   if (k != 0) s += ' ';
                   s += l->deps[k];
                 }
                 return s;
               }() +
               ") — see docs/architecture.md, or invert the dependency"});
    }
  }

  // --- include-cycle ---
  std::vector<std::vector<std::size_t>> adj(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const Include& inc : includes[i]) {
      if (inc.target >= 0) adj[i].push_back(static_cast<std::size_t>(inc.target));
    }
  }
  Tarjan tarjan(adj);
  tarjan.run();
  for (std::vector<std::size_t>& scc : tarjan.sccs) {
    std::sort(scc.begin(), scc.end(), [&](std::size_t a, std::size_t b) {
      return files[a].path < files[b].path;
    });
    std::string members;
    for (std::size_t k = 0; k < scc.size(); ++k) {
      if (k != 0) members += " <-> ";
      members += files[scc[k]].path;
    }
    // Anchor the finding at the first member's include of another member.
    const std::size_t head = scc[0];
    std::size_t line = 1;
    for (const Include& inc : includes[head]) {
      if (inc.target >= 0 &&
          std::find(scc.begin(), scc.end(),
                    static_cast<std::size_t>(inc.target)) != scc.end()) {
        line = files[head].line_of(inc.offset);
        break;
      }
    }
    out.push_back({files[head].path, line, "include-cycle",
                   "include cycle between project files: " + members +
                       " — break the cycle with a forward declaration or by "
                       "moving the shared piece down a layer"});
  }

  // --- unused-include ---
  std::vector<std::set<std::string>> memo(files.size());
  std::vector<int> state(files.size(), 0);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string own_stem = stem_of(files[i].rel);
    for (const Include& inc : includes[i]) {
      if (inc.target < 0 || inc.exported) continue;
      // A .cpp including its own header is definitionally fine.
      if (stem_of(inc.spelling) == own_stem) continue;
      const std::set<std::string>& markers = credited_markers(
          static_cast<std::size_t>(inc.target), files, includes, memo, state);
      if (markers.empty()) continue;  // nothing recognizable — stay quiet
      bool used = false;
      for (const std::string& m : markers) {
        if (contains_word(files[i].code, m)) {
          used = true;
          break;
        }
      }
      if (used) continue;
      out.push_back(
          {files[i].path, files[i].line_of(inc.offset), "unused-include",
           "include of \"" + inc.spelling +
               "\" contributes no name used in this file — remove it, or "
               "mark it '// phisched-lint: export' if it is re-exported on "
               "purpose"});
    }
  }

  // --- DOT graph ---
  if (!dot_out.empty()) {
    std::ofstream dot(dot_out);
    if (!dot) {
      std::cerr << "phisched_lint: cannot write " << dot_out << "\n";
      return false;
    }
    dot << "digraph includes {\n  rankdir=LR;\n  node [shape=box, "
           "fontname=\"monospace\"];\n";
    // Cluster files by layer for readability.
    std::map<std::string, std::vector<std::size_t>> by_layer;
    for (std::size_t i = 0; i < files.size(); ++i) {
      by_layer[layer[i]].push_back(i);
    }
    int cluster = 0;
    for (const auto& [lname, members] : by_layer) {
      dot << "  subgraph cluster_" << cluster++ << " {\n    label=\"" << lname
          << "\";\n";
      for (std::size_t idx : members) {
        dot << "    \"" << files[idx].path << "\";\n";
      }
      dot << "  }\n";
    }
    for (std::size_t i = 0; i < files.size(); ++i) {
      for (const Include& inc : includes[i]) {
        if (inc.target < 0) continue;
        const bool bad = !edge_allowed(
            layer[i], layer[static_cast<std::size_t>(inc.target)]);
        dot << "  \"" << files[i].path << "\" -> \""
            << files[static_cast<std::size_t>(inc.target)].path << "\"";
        if (bad) dot << " [color=red, penwidth=2]";
        dot << ";\n";
      }
    }
    dot << "}\n";
    if (!dot) {
      std::cerr << "phisched_lint: error writing " << dot_out << "\n";
      return false;
    }
  }

  return true;
}

}  // namespace phisched::lint
