# Golden test for beepmis_report: renders the markdown report and the
# beepmis.report.v1 document over checked-in artifacts and diffs both against
# report.md and report.json beside this script, with only the generation
# timestamp masked. The inputs are the tool goldens in this directory plus
# the small fixtures under report/ (bench capture and baseline, dirty
# manifest, sharded trace, traces at three more sizes, sweep), chosen so that
# every section of both renderings is non-empty. It then checks that
# malformed run.v1, sweep.v1 and JSONL inputs and the removed periodic-sample
# schema are rejected, that the report ingests fresh CLI and soak artifacts,
# and that a bench capture compared with itself passes the regression gate.
#
#   cmake -DREPORT=<beepmis_report> -DCLI=<beepmis_cli> -DSOAK=<beepmis_soak>
#         -DBENCH=<bench_e11_micro> -DGOLDEN=<this directory>
#         -DWORK=<scratch directory> [-DUPDATE=ON] -P report_golden.cmake
#
# UPDATE=ON rewrites report.md and report.json from the current binary.

cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var REPORT CLI SOAK BENCH GOLDEN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "report_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# run(<expected exit code> <command...>): runs the command in run_dir
# (default WORK) and stores its stderr in run_stderr; any other exit code
# fails the test.
set(run_dir "${WORK}")
function(run expected)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${run_dir}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expected}")
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "exit ${rc} (expected ${expected}): ${cmd}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(run_stderr "${err}" PARENT_SCOPE)
endfunction()

# expect_text(<golden name> <text>): byte comparison (or capture).
function(expect_text golden text)
  if(UPDATE)
    file(WRITE "${GOLDEN}/${golden}" "${text}")
    return()
  endif()
  file(WRITE "${WORK}/${golden}.actual" "${text}")
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${GOLDEN}/${golden}" "${WORK}/${golden}.actual" RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${WORK}/${golden}.actual differs from golden "
                        "${GOLDEN}/${golden}")
  endif()
endfunction()

# expect_rows(<report.v1 file> <member path...>): the array is non-empty.
function(expect_rows file)
  file(READ "${WORK}/${file}" json)
  string(JSON n LENGTH "${json}" ${ARGN})
  if(n EQUAL 0)
    message(FATAL_ERROR "${file}: [${ARGN}] is empty")
  endif()
endfunction()

# expect_in(<file> <text>): the file contains the text.
function(expect_in file text)
  file(READ "${WORK}/${file}" content)
  string(FIND "${content}" "${text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${file} lacks \"${text}\"")
  endif()
endfunction()

# The golden report. Inputs are named relative to GOLDEN, so the rendered
# input list is stable; the baseline regresses one cpu_ns and one
# /real_time real_ns, so the report exits 2.
string(JOIN "," inputs sweep.json report/sweep.json recovery.json
       waves-recovery.json soak-recovery.json dump.json waves-dump.json
       events.jsonl report/bench.json report/dirty.json report/trace.json
       report/trace-n256.json report/trace-n512.json report/trace-n1024.json)
set(run_dir "${GOLDEN}")
run(2 "${REPORT}" --in ${inputs} --baseline report/baseline.json
    --out "${WORK}/report.md" --json-out "${WORK}/report.json")
set(run_dir "${WORK}")
file(READ "${WORK}/report.md" md)
string(REGEX REPLACE "\nGenerated [^ ]+ from " "\nGenerated <timestamp> from "
       md "${md}")
expect_text(report.md "${md}")
file(READ "${WORK}/report.json" json)
string(REGEX REPLACE "\"generated\":\"[^\"]*\""
       "\"generated\":\"<timestamp>\"" json "${json}")
expect_text(report.json "${json}")
foreach(section stabilization growth_fits recovery speedups kernel_speedups
        overheads trace_spans phase_breakdown imbalance round_ms_fits
        dirty_inputs dropped_trace_inputs anomalies)
  expect_rows(report.json ${section})
endforeach()
expect_rows(report.json baseline regressions)

# Malformed inputs fail with "<source>: <error>" and exit 1: a run.v1 with a
# negative size and count, a sweep.v1 size beyond 2^53, and an event stream
# with a negative round.
file(READ "${GOLDEN}/report/dirty.json" dirty)
string(REPLACE "\"n\": 1024" "\"n\": -3" bad "${dirty}")
string(REPLACE "\"count\": 6" "\"count\": -1" bad "${bad}")
file(WRITE "${WORK}/bad-run.json" "${bad}")
file(READ "${GOLDEN}/report/sweep.json" sweep)
string(REPLACE "\"n\":512" "\"n\":1e300" bad "${sweep}")
file(WRITE "${WORK}/bad-sweep.json" "${bad}")
file(WRITE "${WORK}/bad-events.jsonl"
     "{\"round\":1,\"active\":5}\n{\"round\":-2,\"active\":0}\n")
foreach(bad bad-run.json bad-sweep.json bad-events.jsonl)
  run(1 "${REPORT}" --quiet --in ${bad})
  if(NOT run_stderr MATCHES "^beepmis_report: ${bad}: .")
    message(FATAL_ERROR "${bad}: expected \"beepmis_report: ${bad}: "
                        "<error>\", got:\n${run_stderr}")
  endif()
endforeach()

# A document of the removed periodic-sample schema (deleted with its writer;
# traces carry its timings) is rejected like any other unknown schema.
file(WRITE "${WORK}/ts.json"
     "{\"schema\":\"beepmis.timeseries.v1\",\"every\":4,\"capacity\":4096,"
     "\"recorded\":1,\"dropped\":0,\"context\":{},\"samples\":[{\"round\":4,"
     "\"active\":0,\"beeps\":3,\"mis\":2}]}\n")
run(1 "${REPORT}" --quiet --in ts.json)
if(NOT run_stderr MATCHES "^beepmis_report: ts.json: unrecognized schema")
  message(FATAL_ERROR "ts.json: expected \"beepmis_report: ts.json: "
                      "unrecognized schema\", got:\n${run_stderr}")
endif()

# Fresh artifacts, same sizes and flags as the runs the goldens came from.
# (1) Sharded telemetry: traced 8-worker runs at three sizes feed the
# phase-breakdown and imbalance tables and the wall-time-per-round growth
# fit.
foreach(n 1024 4096 16384)
  run(0 "${CLI}" --family er-avg8 --n ${n} --seed 7 --kernel sharded
      --shard-threads 8 --trace-out trace-fit-n${n}.json)
endforeach()
string(JOIN "," inputs trace-fit-n1024.json trace-fit-n4096.json
       trace-fit-n16384.json)
run(0 "${REPORT}" --in ${inputs} --out tel-report.md
    --json-out tel-report.json)
expect_in(tel-report.md "Sharded kernel phase breakdown")
expect_in(tel-report.md "Shard load imbalance")
foreach(section phase_breakdown imbalance round_ms_fits)
  expect_rows(tel-report.json ${section})
endforeach()

# (2) Recovery: a monitored CLI run with fault waves and a capped soak.
run(0 "${CLI}" --family er-avg8 --n 256 --algorithm v1 --seed 7 --faults 32
    --waves 2 --kernel scalar --monitor --recovery-out rec-scalar.json)
run(0 "${SOAK}" --seconds 120 --scenarios 12 --threads 1 --monitor
    --recovery-out soak-rec-t1.json)
run(0 "${REPORT}" --in rec-scalar.json,soak-rec-t1.json
    --out recovery-report.md --json-out recovery-report.json)
expect_in(recovery-report.md "Recovery epochs")
expect_rows(recovery-report.json recovery)

# (3) Run manifests and event streams of every variant aggregate into a
# report.v1 that parses, and a bench capture (the fixture and a fresh one)
# compared with itself never regresses.
foreach(v v1 v2 v3)
  run(0 "${CLI}" --family er-avg8 --n 256 --algorithm ${v}
      --metrics-out m-${v}.json --events-out e-${v}.jsonl)
endforeach()
string(JOIN "," inputs m-v1.json m-v2.json m-v3.json e-v1.jsonl e-v2.jsonl
       e-v3.jsonl)
run(0 "${REPORT}" --quiet --in ${inputs} --json-out smoke-report.json)
expect_rows(smoke-report.json stabilization)
run(0 "${REPORT}" --quiet --in "${GOLDEN}/report/bench.json"
    --baseline "${GOLDEN}/report/bench.json" --tolerance 0.10)
run(0 "${BENCH}" --benchmark_filter=BM_RngBernoulliPow2
    --bench-out=bench-self.json)
run(0 "${REPORT}" --quiet --in bench-self.json --baseline bench-self.json
    --tolerance 0.10)
