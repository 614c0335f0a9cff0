# phisched_lint fixture tests. Four sections:
#
#   1. human mode over the full fixture tree — exact `file:line: [rule]`
#      positions for every rule family (pattern rules, the layering /
#      include-cycle / unused-include graph passes, the rng-discipline and
#      float-order determinism rules, and the sanitizer regression fixtures
#      under stripper/), the suppression behaviour, and the summary counts
#   2. JSON mode over the same tree — machine-readable records with exact
#      (file, line, rule) triples, including suppressed entries
#   3. the telemetry-schema pass over fixtures/schema with its own
#      telemetry.md and golden/ — schema-undocumented, schema-orphan (doc
#      orphans, malformed lines, bench ghosts) and schema-golden, in both
#      output modes, plus the --schema-out artifact
#   4. exit-code contract: 0 on clean input, 1 on findings, 2 on usage
#      errors, and --list-rules covering all thirteen rule ids
#
# Invoked by ctest as:
#   cmake -DLINT=<phisched_lint> -DFIXTURES=<tests/lint/fixtures>
#         -DWORKDIR=<scratch dir> -P lint_fixtures.cmake

function(assert_contains haystack needle what)
  string(FIND "${haystack}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${what}: expected to find '${needle}' in:\n${haystack}")
  endif()
endfunction()

function(assert_not_contains haystack needle what)
  string(FIND "${haystack}" "${needle}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${what}: must NOT contain '${needle}':\n${haystack}")
  endif()
endfunction()

# Asserts one pretty-printed JSON record: the file suffix, line, rule, and
# suppressed flag must appear as one contiguous block.
function(assert_json_record haystack file line rule suppressed what)
  set(needle "${file}\",\n      \"line\": ${line},\n      \"rule\": \"${rule}\",\n      \"suppressed\": ${suppressed}")
  assert_contains("${haystack}" "${needle}" "${what}")
endfunction()

if(NOT DEFINED WORKDIR)
  set(WORKDIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

# ---------------------------------------------------------------------------
# 1. Human mode over the full fixture tree: exit 1, exact file:line rules
# ---------------------------------------------------------------------------
execute_process(
  COMMAND ${LINT} ${FIXTURES}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "human mode: expected exit 1 on fixtures, got ${rc}\n${out}${err}")
endif()

# Pattern rules.
assert_contains("${out}" "sim/unordered_iter.cpp:12: [unordered-iter]" "human")
assert_contains("${out}" "sim/wall_clock.cpp:7: [wall-clock]" "human")
assert_contains("${out}" "sim/wall_clock.cpp:7: [rng-discipline]" "human rand on same line")
assert_contains("${out}" "sim/pointer_key.cpp:8: [pointer-key]" "human")
assert_contains("${out}" "sim/nontotal_sort.cpp:12: [nontotal-sort]" "human")
assert_contains("${out}" "sim/schedule_tiebreak.cpp:12: [schedule-tiebreak]" "human")
assert_contains("${out}" "matchmaking/strategy_order.cpp:22: [unordered-iter]" "human strategy scope")
assert_contains("${out}" "matchmaking/batch_packer.cpp:14: [pointer-key]" "human batch scope")
assert_contains("${out}" "core/addon_bw.cpp:15: [unordered-iter]" "human core scope")

# rng-discipline: anywhere tokens, call tokens, and declaration immunity.
assert_contains("${out}" "sim/rng_discipline.cpp:11: [rng-discipline]" "human random_device")
assert_contains("${out}" "sim/rng_discipline.cpp:16: [rng-discipline]" "human mt19937")
assert_contains("${out}" "sim/rng_discipline.cpp:17: [rng-discipline]" "human shuffle")
assert_not_contains("${out}" "rng_discipline.cpp:28" "member decl 'int rand()' is not a call")
assert_not_contains("${out}" "rng_discipline.cpp:29" "member decl 'static int random()' is not a call")
assert_not_contains("${out}" "rng_discipline.cpp:32" "member/qualified access is not libc")

# float-order fires everywhere (obs/ is not a decision path).
assert_contains("${out}" "obs/float_order.cpp:14: [float-order]" "human range-for reduction")
assert_contains("${out}" "obs/float_order.cpp:31: [float-order]" "human std::accumulate")
assert_not_contains("${out}" "float_order.cpp:41" "integral accumulator is order-independent")
assert_contains("${out}" "sim/unordered_iter.cpp:12: [float-order]" "human float-order stacks with unordered-iter")

# Layering / include-cycle / unused-include over the include graph.
assert_contains("${out}" "layering/phi/uplink.hpp:8: [layering]" "human layering")
assert_contains("${out}" "phi may not depend on cosmic" "human layering message names layers")
assert_contains("${out}" "layering/sim/a.hpp:9: [include-cycle]" "human cycle anchor")
assert_contains("${out}" "a.hpp <-> " "human cycle members listed")
assert_contains("${out}" "layering/common/consumer.cpp:6: [unused-include]" "human unused include")
assert_not_contains("${out}" "consumer.cpp:5" "used.hpp is credited via UsedThing")

# Sanitizer regressions: raw strings, CRLF endings, comment continuations.
assert_contains("${out}" "stripper/raw_string.cpp:9: [wall-clock]" "human after raw strings")
assert_not_contains("${out}" "raw_string.cpp:5" "violations inside R\"(...)\" bodies")
assert_not_contains("${out}" "raw_string.cpp:6" "violations inside prefixed raw strings")
assert_not_contains("${out}" "raw_string.cpp:7" "fake )\" close inside delimited raw string")
assert_contains("${out}" "stripper/crlf.cpp:4: [wall-clock]" "human CRLF line mapping")
assert_not_contains("${out}" "crlf.cpp:2" "comment under CRLF stays a comment")
assert_contains("${out}" "stripper/continuation.cpp:5: [wall-clock]" "human after continued comment")
assert_not_contains("${out}" "continuation.cpp:2" "backslash-continued comment line 2")
assert_not_contains("${out}" "continuation.cpp:3" "backslash-continued comment line 3")

assert_contains("${out}" "24 finding(s), 12 suppressed, 23 file(s) scanned" "human summary")

# Suppressed instances must not surface as findings in human mode.
assert_not_contains("${out}" "addon_bw.cpp:25: [unordered-iter]" "human suppressed")
assert_not_contains("${out}" "consumer.cpp:8: [unused-include]" "human suppressed")
assert_not_contains("${out}" "uplink.hpp:10: [layering]" "human suppressed")
assert_not_contains("${out}" "batch_packer.cpp:18: [pointer-key]" "human suppressed")
assert_not_contains("${out}" "strategy_order.cpp:32: [unordered-iter]" "human suppressed")
assert_not_contains("${out}" "float_order.cpp:24: [float-order]" "human suppressed")
assert_not_contains("${out}" "nontotal_sort.cpp:20: [nontotal-sort]" "human suppressed")
assert_not_contains("${out}" "pointer_key.cpp:12: [pointer-key]" "human suppressed")
assert_not_contains("${out}" "rng_discipline.cpp:22: [rng-discipline]" "human suppressed")
assert_not_contains("${out}" "schedule_tiebreak.cpp:36: [schedule-tiebreak]" "human suppressed")
assert_not_contains("${out}" "unordered_iter.cpp:20: [unordered-iter]" "human suppressed")
assert_not_contains("${out}" "wall_clock.cpp:12: [wall-clock]" "human suppressed")

# Path-scoped rules must stay quiet outside decision paths.
assert_not_contains("${out}" "outside_decision_path" "negative control")

# The schema fixture source produces no findings without --schema-docs:
# the schema pass only runs when asked (or auto-discovered beside a src root).
assert_not_contains("${out}" "schema-undocumented" "schema pass off by default")

# ---------------------------------------------------------------------------
# 2. JSON mode: machine-readable findings incl. suppressed entries
# ---------------------------------------------------------------------------
execute_process(
  COMMAND ${LINT} --json ${FIXTURES}
  OUTPUT_VARIABLE jout
  ERROR_VARIABLE jerr
  RESULT_VARIABLE jrc)
if(NOT jrc EQUAL 1)
  message(FATAL_ERROR "json mode: expected exit 1 on fixtures, got ${jrc}\n${jout}${jerr}")
endif()
assert_contains("${jout}" "\"tool\": \"phisched_lint\"" "json header")
assert_contains("${jout}" "\"schema_version\": 2" "json schema version")
assert_contains("${jout}" "\"files_scanned\": 23" "json counts")
assert_contains("${jout}" "\"findings\": 24" "json counts")
assert_contains("${jout}" "\"suppressed\": 12" "json counts")
foreach(rule unordered-iter wall-clock rng-discipline float-order pointer-key
             nontotal-sort schedule-tiebreak layering include-cycle
             unused-include)
  assert_contains("${jout}" "\"rule\": \"${rule}\"" "json rule ids")
endforeach()

# Exact (file, line, rule, suppressed) records, one per rule family.
assert_json_record("${jout}" "sim/wall_clock.cpp" 7 "wall-clock" "false" "json wall-clock")
assert_json_record("${jout}" "sim/rng_discipline.cpp" 11 "rng-discipline" "false" "json rng")
assert_json_record("${jout}" "obs/float_order.cpp" 14 "float-order" "false" "json float-order")
assert_json_record("${jout}" "obs/float_order.cpp" 31 "float-order" "false" "json accumulate")
assert_json_record("${jout}" "layering/phi/uplink.hpp" 8 "layering" "false" "json layering")
assert_json_record("${jout}" "layering/sim/a.hpp" 9 "include-cycle" "false" "json cycle")
assert_json_record("${jout}" "layering/common/consumer.cpp" 6 "unused-include" "false" "json unused")
assert_json_record("${jout}" "stripper/crlf.cpp" 4 "wall-clock" "false" "json crlf")
# Suppressed records stay listed in JSON so stale allows remain visible.
assert_json_record("${jout}" "layering/phi/uplink.hpp" 10 "layering" "true" "json suppressed layering")
assert_json_record("${jout}" "sim/rng_discipline.cpp" 22 "rng-discipline" "true" "json suppressed rng")
assert_json_record("${jout}" "obs/float_order.cpp" 24 "float-order" "true" "json suppressed float-order")

# ---------------------------------------------------------------------------
# 3. Telemetry-schema pass over fixtures/schema (own docs + goldens)
# ---------------------------------------------------------------------------
set(schema_args ${FIXTURES}/schema
    --schema-docs ${FIXTURES}/schema/telemetry.md
    --golden ${FIXTURES}/schema/golden
    --schema-out ${WORKDIR}/lint_fixture_schema.json)
execute_process(
  COMMAND ${LINT} ${schema_args}
  OUTPUT_VARIABLE sout
  ERROR_VARIABLE serr
  RESULT_VARIABLE src)
if(NOT src EQUAL 1)
  message(FATAL_ERROR "schema mode: expected exit 1, got ${src}\n${sout}${serr}")
endif()
assert_contains("${sout}" "src/phi/dev.cpp:20: [schema-undocumented]" "schema typo at call site")
assert_contains("${sout}" "phi.node0.mic0.oom_kils" "schema typo names the extracted pattern")
assert_contains("${sout}" "src/phi/dev.cpp:32: [schema-undocumented]" "schema malformed emits annotation")
assert_contains("${sout}" "telemetry.md:19: [schema-orphan]" "schema doc orphan (typo's other face)")
assert_contains("${sout}" "telemetry.md:22: [schema-orphan]" "schema doc orphan (ghost gauge)")
assert_contains("${sout}" "telemetry.md:25: [schema-orphan]" "schema malformed doc line")
assert_contains("${sout}" "telemetry.md:28: [schema-orphan]" "schema bench ghost")
assert_contains("${sout}" "golden/BENCH_fixture.json:6: [schema-golden]" "schema golden typo")
assert_not_contains("${sout}" "telemetry.md:24" "allow(schema-orphan) suppresses the doc line")
assert_not_contains("${sout}" "oversub_episodes" "documented concatenated counter matches")
assert_not_contains("${sout}" "job_completed" "documented event matches")
assert_not_contains("${sout}" "job_failed" "emits() annotation covers the indirection")
assert_contains("${sout}" "7 finding(s), 1 suppressed, 1 file(s) scanned" "schema summary")

# The extracted-schema artifact: wildcarded concatenation and the
# annotation-declared event must both be present.
file(READ ${WORKDIR}/lint_fixture_schema.json sjson)
assert_contains("${sjson}" "\"kind\": \"counter\", \"pattern\": \"phi.node0.mic*.oversub_episodes\"" "schema-out concat pattern")
assert_contains("${sjson}" "\"kind\": \"event\", \"pattern\": \"job_failed\"" "schema-out annotation event")
assert_contains("${sjson}" "\"kind\": \"gauge\", \"pattern\": \"phi.node0.mic0.oom_kils\"" "schema-out records the typo too")

# JSON mode carries the schema rules with the same positions.
execute_process(
  COMMAND ${LINT} --json ${schema_args}
  OUTPUT_VARIABLE sjout
  RESULT_VARIABLE sjrc)
if(NOT sjrc EQUAL 1)
  message(FATAL_ERROR "schema json mode: expected exit 1, got ${sjrc}\n${sjout}")
endif()
assert_contains("${sjout}" "\"findings\": 7" "schema json counts")
assert_contains("${sjout}" "\"suppressed\": 1" "schema json counts")
assert_json_record("${sjout}" "src/phi/dev.cpp" 20 "schema-undocumented" "false" "schema json typo")
assert_json_record("${sjout}" "telemetry.md" 22 "schema-orphan" "false" "schema json orphan")
assert_json_record("${sjout}" "telemetry.md" 24 "schema-orphan" "true" "schema json suppressed orphan")
assert_json_record("${sjout}" "golden/BENCH_fixture.json" 6 "schema-golden" "false" "schema json golden")

# ---------------------------------------------------------------------------
# 4. Exit-code contract and rule listing
# ---------------------------------------------------------------------------
execute_process(
  COMMAND ${LINT} ${FIXTURES}/other
  OUTPUT_VARIABLE cout
  RESULT_VARIABLE crc)
if(NOT crc EQUAL 0)
  message(FATAL_ERROR "clean dir: expected exit 0, got ${crc}\n${cout}")
endif()
assert_contains("${cout}" "0 finding(s), 0 suppressed" "clean summary")

execute_process(COMMAND ${LINT} RESULT_VARIABLE urc OUTPUT_QUIET ERROR_QUIET)
if(NOT urc EQUAL 2)
  message(FATAL_ERROR "no-args: expected exit 2, got ${urc}")
endif()
execute_process(COMMAND ${LINT} ${FIXTURES}/does_not_exist
  RESULT_VARIABLE mrc OUTPUT_QUIET ERROR_QUIET)
if(NOT mrc EQUAL 2)
  message(FATAL_ERROR "missing path: expected exit 2, got ${mrc}")
endif()

execute_process(
  COMMAND ${LINT} --list-rules
  OUTPUT_VARIABLE rules
  RESULT_VARIABLE rrc)
if(NOT rrc EQUAL 0)
  message(FATAL_ERROR "--list-rules: expected exit 0, got ${rrc}")
endif()
foreach(rule unordered-iter wall-clock rng-discipline float-order pointer-key
             nontotal-sort schedule-tiebreak layering include-cycle
             unused-include schema-undocumented schema-orphan schema-golden)
  assert_contains("${rules}" "${rule}\t" "--list-rules covers every rule")
endforeach()

message(STATUS "lint fixture assertions passed")
