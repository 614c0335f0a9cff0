// phisched_lint — multi-pass whole-program analyzer for the simulator tree.
//
// Every equivalence suite in this repo (SwitchOffEquivalence, harness
// step-vs-oneshot, telemetry identity, the golden bench gates) relies on the
// discrete-event core being bit-identical across runs, seeds, and snapshot
// interleavings, and on the twelve src/ layers keeping their documented
// dependency shape as the tree grows. This tool is a lightweight analyzer
// (no libclang) that makes both machine-checked. Three pass families:
//
//   pattern rules (tools/lint/rules.cpp) — per-file determinism scans:
//     unordered-iter     iteration over std::unordered_{map,set,...} in a
//                        decision path (sim/ phi/ cosmic/ condor/ cluster/
//                        core/, or any file named strategy*/batch*)
//     wall-clock         wall-clock reads (time, clock, system_clock, ...)
//                        outside bench/ and tools/ harnesses
//     rng-discipline     randomness outside the seeded-engine plumbing in
//                        common/rng (rand, random_device, mt19937, shuffle)
//     float-order        floating-point reduction in hash-table iteration
//                        order (fp addition is not associative)
//     pointer-key        std::map / std::set keyed by a raw pointer
//     nontotal-sort      sort/heap comparator using <= or >= (not a strict
//                        weak ordering — undefined behaviour in libstdc++)
//     schedule-tiebreak  std::sort/heap comparator ordering by a timestamp
//                        with no secondary key
//
//   include graph (tools/lint/include_graph.cpp) — whole-program:
//     layering           an include edge that violates the architecture
//                        layer DAG (--list-layers prints the table, which
//                        docs/architecture.md mirrors literally)
//     include-cycle      a cycle of project files in the include graph
//     unused-include     a quoted include contributing no name the file uses
//
//   telemetry schema (tools/lint/schema.cpp) — whole-program:
//     schema-undocumented  a metric/event registration whose name pattern
//                          matches nothing in docs/telemetry.md
//     schema-orphan        a documented name no code emits (or a documented
//                          bench name absent from the goldens)
//     schema-golden        a golden bench metric name absent from the docs
//
// Suppression: `// phisched-lint: allow(<rule>[, <rule>...])` on the same
// line or the line immediately above. `allow(all)` suppresses every rule.
// Suppressed findings are still counted and reported (JSON mode lists them)
// so a stale suppression stays visible.
//
// Exit codes: 0 clean (suppressed-only is clean), 1 unsuppressed findings,
// 2 usage or I/O error.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "lint/lint.hpp"

namespace {

using namespace phisched::lint;

constexpr RuleInfo kRules[] = {
    {"unordered-iter",
     "iteration over an unordered container in a decision path"},
    {"wall-clock", "wall-clock call in simulator code"},
    {"rng-discipline", "randomness outside the seeded-engine plumbing"},
    {"float-order",
     "floating-point reduction in hash-table iteration order"},
    {"pointer-key", "ordered container keyed by a raw pointer"},
    {"nontotal-sort", "sort/heap comparator that is not a strict weak order"},
    {"schedule-tiebreak",
     "timestamp comparator without a deterministic tie-break"},
    {"layering", "include edge that violates the architecture layer DAG"},
    {"include-cycle", "cycle of project files in the include graph"},
    {"unused-include", "quoted include contributing no name the file uses"},
    {"schema-undocumented",
     "metric/event name pattern missing from docs/telemetry.md"},
    {"schema-orphan", "documented metric/event/bench name nothing emits"},
    {"schema-golden", "golden bench metric name missing from the docs"},
};

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".cxx";
}

int usage(std::ostream& os, int code) {
  os << "usage: phisched_lint [options] <file-or-dir>...\n"
        "\n"
        "Whole-program analyzer for the phisched simulator tree: determinism\n"
        "pattern rules, architecture-layer conformance over the include\n"
        "graph, and telemetry-schema extraction/cross-checks. See\n"
        "docs/static-analysis.md.\n"
        "\n"
        "options:\n"
        "  --json              machine-readable report on stdout\n"
        "  --list-rules        print every rule id with a summary and exit\n"
        "  --list-layers       print the enforced layer DAG table and exit\n"
        "                      (docs/architecture.md mirrors it literally)\n"
        "  --graph-out FILE    write the project include graph as DOT\n"
        "  --schema-out FILE   write the extracted telemetry schema as JSON\n"
        "  --schema-docs FILE  telemetry doc to cross-check (the fenced\n"
        "                      telemetry-schema block); when a scanned root\n"
        "                      is named 'src', ../docs/telemetry.md is used\n"
        "                      automatically if present\n"
        "  --golden PATH       golden bench JSON file or directory of them\n"
        "                      (repeatable; auto-discovered from\n"
        "                      ../bench/golden next to a 'src' root)\n"
        "\n"
        "Suppress a finding with\n"
        "  // phisched-lint: allow(<rule>)\n"
        "on the same line or the line above.\n"
        "\n"
        "exit status: 0 clean, 1 unsuppressed findings, 2 error\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string graph_out;
  SchemaOptions schema;
  bool schema_docs_given = false;
  bool golden_given = false;
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "phisched_lint: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules) {
        std::cout << r.id << "\t" << r.summary << "\n";
      }
      return 0;
    } else if (arg == "--list-layers") {
      std::cout << layer_table_text();
      return 0;
    } else if (arg == "--graph-out") {
      const char* v = value("--graph-out");
      if (v == nullptr) return usage(std::cerr, 2);
      graph_out = v;
    } else if (arg == "--schema-out") {
      const char* v = value("--schema-out");
      if (v == nullptr) return usage(std::cerr, 2);
      schema.schema_out = v;
    } else if (arg == "--schema-docs") {
      const char* v = value("--schema-docs");
      if (v == nullptr) return usage(std::cerr, 2);
      schema.docs_path = v;
      schema_docs_given = true;
    } else if (arg == "--golden") {
      const char* v = value("--golden");
      if (v == nullptr) return usage(std::cerr, 2);
      schema.golden_paths.emplace_back(v);
      golden_given = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "phisched_lint: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    } else {
      roots.emplace_back(std::string(arg));
    }
  }
  if (roots.empty()) return usage(std::cerr, 2);

  // Auto-discovery: pointing the tool at a directory named `src` opts into
  // the full repo gate — the telemetry doc and golden bench files that live
  // beside it are picked up so plain `phisched_lint src` enforces
  // everything. Explicit flags always win.
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (!fs::is_directory(root, ec) || root.filename() != "src") continue;
    const fs::path repo = root.parent_path().empty() ? fs::path(".")
                                                     : root.parent_path();
    if (!schema_docs_given) {
      const fs::path docs = repo / "docs" / "telemetry.md";
      if (fs::is_regular_file(docs, ec)) {
        schema.docs_path = docs.generic_string();
        schema_docs_given = true;
      }
    }
    if (!golden_given) {
      const fs::path golden = repo / "bench" / "golden";
      if (fs::is_directory(golden, ec)) {
        schema.golden_paths.push_back(golden.generic_string());
        golden_given = true;
      }
    }
  }

  // Expand --golden directories into their *.json members.
  {
    std::vector<std::string> expanded;
    for (const std::string& gp : schema.golden_paths) {
      std::error_code ec;
      if (fs::is_directory(gp, ec)) {
        for (const auto& entry : fs::directory_iterator(gp, ec)) {
          if (entry.is_regular_file() &&
              entry.path().extension() == ".json") {
            expanded.push_back(entry.path().generic_string());
          }
        }
      } else if (fs::is_regular_file(gp, ec)) {
        expanded.push_back(gp);
      } else {
        std::cerr << "phisched_lint: cannot read '" << gp << "'\n";
        return 2;
      }
    }
    std::sort(expanded.begin(), expanded.end());
    schema.golden_paths = std::move(expanded);
  }

  // Deterministic file order regardless of filesystem enumeration order.
  // Each file remembers its root so include spellings resolve relative to
  // the scanned roots (with a leading src/ stripped, the include style the
  // tree uses).
  struct Pending {
    fs::path path;
    std::string rel;
    std::string root;
  };
  std::vector<Pending> pending;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      const std::string root_name = root.filename().generic_string();
      for (auto it = fs::recursive_directory_iterator(root, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && lintable(it->path())) {
          std::string rel =
              it->path().lexically_relative(root).generic_string();
          if (rel.rfind("src/", 0) == 0) rel = rel.substr(4);
          pending.push_back({it->path(), std::move(rel), root_name});
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      pending.push_back({root, root.filename().generic_string(),
                         root.filename().generic_string()});
    } else {
      std::cerr << "phisched_lint: cannot read '" << root.string() << "'\n";
      return 2;
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) { return a.path < b.path; });
  pending.erase(std::unique(pending.begin(), pending.end(),
                            [](const Pending& a, const Pending& b) {
                              return a.path == b.path;
                            }),
                pending.end());

  std::vector<FileText> files;
  files.reserve(pending.size());
  for (const Pending& p : pending) {
    FileText f;
    if (!load_file(p.path, p.rel, p.root, f)) return 2;
    files.push_back(std::move(f));
  }

  std::vector<Finding> findings;
  for (const FileText& f : files) scan_pattern_rules(f, findings);
  if (!run_include_passes(files, graph_out, findings)) return 2;
  if (!schema.docs_path.empty() || !schema.schema_out.empty()) {
    if (!run_schema_pass(files, schema, findings)) return 2;
  }

  // Apply suppressions. Findings in scanned files use their FileText; the
  // schema pass marks suppressions for doc/golden files itself.
  std::map<std::string, const FileText*> by_path;
  for (const FileText& f : files) by_path[f.path] = &f;
  for (Finding& fd : findings) {
    if (fd.suppressed) continue;
    const auto hit = by_path.find(fd.file);
    if (hit != by_path.end()) {
      fd.suppressed = is_suppressed(*hit->second, fd.line, fd.rule);
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  const std::size_t suppressed = static_cast<std::size_t>(std::count_if(
      findings.begin(), findings.end(),
      [](const Finding& fd) { return fd.suppressed; }));
  const std::size_t active = findings.size() - suppressed;

  if (json) {
    phisched::JsonWriter w(/*pretty=*/true);
    w.begin_object();
    w.member("tool", "phisched_lint");
    w.member("schema_version", 2);
    w.member("files_scanned", static_cast<std::uint64_t>(files.size()));
    w.member("findings", static_cast<std::uint64_t>(active));
    w.member("suppressed", static_cast<std::uint64_t>(suppressed));
    w.key("results");
    w.begin_array();
    for (const Finding& fd : findings) {
      w.begin_object();
      w.member("file", fd.file);
      w.member("line", static_cast<std::uint64_t>(fd.line));
      w.member("rule", fd.rule);
      w.member("suppressed", fd.suppressed);
      w.member("message", fd.message);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::cout << std::move(w).str() << "\n";
  } else {
    for (const Finding& fd : findings) {
      if (fd.suppressed) continue;
      std::cout << fd.file << ":" << fd.line << ": [" << fd.rule << "] "
                << fd.message << "\n";
    }
    std::cout << "phisched_lint: " << active << " finding(s), " << suppressed
              << " suppressed, " << files.size() << " file(s) scanned\n";
  }
  return active == 0 ? 0 : 1;
}
