# Golden test for the command-line tools: drives beepmis_cli, beepmis_soak,
# beepmis_trace_check and beepmis_figures end to end and diffs every
# deterministic output against the files checked in beside this script.
# Artifacts that carry wall-clock timing (trace.v2) are validated through
# beepmis_trace_check instead, and run.v1 is checked for its key set.
# Tracing must not change a byte of any other output. The option count and
# names that docs/cli.md states are held to what `beepmis_cli --help` prints.
#
#   cmake -DCLI=<beepmis_cli> -DSOAK=<beepmis_soak> -DCHECK=<beepmis_trace_check>
#         -DFIGURES=<beepmis_figures> -DGOLDEN=<this directory>
#         -DWORK=<scratch directory>
#         [-DUPDATE=ON] -P tools_golden.cmake
#
# UPDATE=ON rewrites the golden files from the current binaries instead of
# diffing against them. Every tool runs with WORK as its working directory
# and relative output paths, so the paths printed to stdout are stable.

cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var CLI SOAK CHECK FIGURES GOLDEN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "tools_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# run(<expected exit code> <out-var> <command...>): runs the command in WORK
# and stores its stdout in <out-var> and its stderr in run_stderr; any other
# exit code fails the test.
function(run expected out_var)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expected}")
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "exit ${rc} (expected ${expected}): ${cmd}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(run_stderr "${err}" PARENT_SCOPE)
endfunction()

# Drops the "wrote <path>" notices: they name output paths, not results.
function(strip_wrote var)
  string(REGEX REPLACE "\nwrote [^\n]*" "" text "\n${${var}}")
  string(SUBSTRING "${text}" 1 -1 text)
  set(${var} "${text}" PARENT_SCOPE)
endfunction()

# expect_file(<golden name> <file in WORK>): byte comparison (or capture).
function(expect_file golden actual)
  if(UPDATE)
    file(COPY_FILE "${WORK}/${actual}" "${GOLDEN}/${golden}")
    return()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${GOLDEN}/${golden}" "${WORK}/${actual}" RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${WORK}/${actual} differs from golden "
                        "${GOLDEN}/${golden}")
  endif()
endfunction()

function(expect_text golden text)
  file(WRITE "${WORK}/${golden}.actual" "${text}")
  expect_file("${golden}" "${golden}.actual")
endfunction()

function(validate file)
  run(0 ignored "${CHECK}" --in "${file}")
endfunction()

# validate_trace(<stem>): a traced run wrote exactly one trace file,
# <stem>.json, and it validates.
function(validate_trace stem)
  file(GLOB written RELATIVE "${WORK}" "${WORK}/${stem}.*json")
  if(NOT written STREQUAL "${stem}.json")
    message(FATAL_ERROR "expected the one trace file ${stem}.json, found: "
                        "${written}")
  endif()
  validate("${stem}.json")
endfunction()

# expect_same(<file> <file>): two files in WORK are byte-identical.
function(expect_same a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK}/${a}" "${WORK}/${b}" RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${WORK}/${a} differs from ${WORK}/${b}")
  endif()
endfunction()

# expect_keys(<file> <member path...> KEYS <key...>): the JSON object at the
# member path has exactly these keys (in any order: CMake's JSON reader sorts
# them).
function(expect_keys file)
  cmake_parse_arguments(PARSE_ARGV 1 arg "" "" "KEYS")
  file(READ "${WORK}/${file}" json)
  string(JSON n LENGTH "${json}" ${arg_UNPARSED_ARGUMENTS})
  set(keys "")
  if(n GREATER 0)
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
      string(JSON key MEMBER "${json}" ${arg_UNPARSED_ARGUMENTS} ${i})
      list(APPEND keys "${key}")
    endforeach()
  endif()
  set(expected ${arg_KEYS})
  list(SORT keys)
  list(SORT expected)
  if(NOT keys STREQUAL expected)
    message(FATAL_ERROR "${file} [${arg_UNPARSED_ARGUMENTS}] keys are\n"
                        "  ${keys}\nexpected\n  ${expected}")
  endif()
endfunction()

# The CLI reference: "These are all N options" counts the --name entries
# that --help prints (--help itself aside), and the reference names each.
run(0 ignored "${CLI}" --help)  # the usage goes to stderr
string(REGEX MATCHALL "\n  --[a-z0-9-]+" help_names "\n${run_stderr}")
list(TRANSFORM help_names REPLACE "^\n  " "")
list(REMOVE_ITEM help_names --help)
list(LENGTH help_names help_count)
file(READ "${GOLDEN}/../../docs/cli.md" cli_doc)
if(NOT cli_doc MATCHES "These are all ([0-9]+) options")
  message(FATAL_ERROR "docs/cli.md lacks \"These are all N options\"")
endif()
if(NOT CMAKE_MATCH_1 EQUAL help_count)
  message(FATAL_ERROR "docs/cli.md counts ${CMAKE_MATCH_1} options; "
                      "beepmis_cli --help lists ${help_count}")
endif()
foreach(name IN LISTS help_names)
  if(NOT cli_doc MATCHES "${name}[^a-z0-9-]")
    message(FATAL_ERROR "docs/cli.md does not name ${name}")
  endif()
endforeach()

set(RUN_KEYS schema tool timestamp seed graph algorithm build timing obs
             extra metrics)
set(OBS_KEYS trace_dropped peak_rss_bytes)

# Single run: fault waves under the monitor, every deterministic artifact,
# and a flight recorder forced to fire (a storm threshold of 0 over a
# one-round window trips on round 1).
run(0 out "${CLI}" --family er-avg8 --n 256 --algorithm v1 --seed 7
    --faults 32 --waves 2 --monitor --recovery-out recovery.json
    --events-out events.jsonl --metrics-out run.json
    --flight-recorder dump.json
    --anomaly-storm-fraction 0 --anomaly-storm-window 1)
strip_wrote(out)
expect_text(run.txt "${out}")
expect_file(recovery.json recovery.json)
expect_file(events.jsonl events.jsonl)
expect_file(dump.json dump.json)
validate(recovery.json)
validate(dump.json)
expect_keys(run.json KEYS ${RUN_KEYS})
expect_keys(run.json obs KEYS ${OBS_KEYS})
expect_keys(run.json metrics KEYS counters gauges timers digests)
expect_keys(run.json extra KEYS stabilized rounds_total engine
            engine_requested kernel shard_threads_requested shards duplex
            faults_per_wave waves noise_fp noise_fn)

# Monitored fault waves under non-default monitor and anomaly settings: the
# probe cadence lands in recovery.v1's config, the stall multiple (low
# enough to fire) and the Lemma 3.1 window in the dump's. Each wave is
# repaired by the kernel's local patch, and one shard or three must not
# change a byte of it.
foreach(threads 1 3)
  run(0 out "${CLI}" --family er-avg8 --n 1024 --algorithm v1 --seed 11
      --faults 256 --waves 4 --monitor --monitor-every 8
      --anomaly-stall-multiple 0.005 --anomaly-lemma-window 4
      --engine fast --shard-threads ${threads}
      --recovery-out waves-recovery.json --flight-recorder waves-dump.json)
  strip_wrote(out)
  expect_text(waves.txt "${out}")
  expect_file(waves-recovery.json waves-recovery.json)
  expect_file(waves-dump.json waves-dump.json)
endforeach()

# 400 fault waves, each re-stabilizing well within the budget: the stall
# and Lemma 3.1 horizons count from the last settled round, not from round
# 0, so the armed flight recorder stays silent and writes no dump.
function(quiet_waves)
  run(0 out "${CLI}" --family er-avg8 --n 1024 --seed 3 --waves 400
      --flight-recorder fr.json ${ARGN})
  if(EXISTS "${WORK}/fr.json" OR
     NOT out MATCHES "\nflight recorder: no anomalies\n")
    string(REPLACE ";" " " flags "${ARGN}")
    message(FATAL_ERROR "settled fault waves tripped the flight recorder "
                        "(${flags}):\n${out}")
  endif()
endfunction()
quiet_waves(--faults 16)
quiet_waves(--faults 64 --anomaly-lemma-window 4
            --anomaly-stall-multiple 100)

# Paper-facing flags, the baselines and the applications: one small run
# each, stdout pinned in one golden (each run under a "# <flags>" header),
# plus the deterministic --svg chart byte for byte.
set(flags_out "")
function(flag_run)
  run(0 out "${CLI}" --family er-avg8 --n 256 --seed 3 ${ARGN})
  strip_wrote(out)
  string(REPLACE ";" " " flags "${ARGN}")
  set(flags_out "${flags_out}# ${flags}\n${out}" PARENT_SCOPE)
endfunction()
flag_run(--init fake-mis)
flag_run(--init all-min)
flag_run(--c1 3)
flag_run(--noise-fp 0.01 --noise-fn 0.01)
flag_run(--relabel)
foreach(algorithm jsx afek afek-noknow luby coloring)
  flag_run(--algorithm ${algorithm})
endforeach()
flag_run(--algorithm ruling --alpha 2)
flag_run(--svg chart.svg)
flag_run(--trace)
expect_text(flags.txt "${flags_out}")
expect_file(chart.svg chart.svg)

# Receiver noise under fault waves, stdout and events byte for byte: v1
# re-stabilizes after its wave, v3 exhausts a short budget (exit 1).
function(noisy_run expected algorithm)
  run(${expected} out "${CLI}" --family er-avg8 --n 256 --seed 3
      --algorithm ${algorithm} --noise-fp 0.01 --noise-fn 0.02 --faults 16
      --waves 1 --events-out noisy-${algorithm}.jsonl ${ARGN})
  strip_wrote(out)
  expect_text(noisy-${algorithm}.txt "${out}")
  expect_file(noisy-${algorithm}.jsonl noisy-${algorithm}.jsonl)
endfunction()
noisy_run(0 v1)
noisy_run(1 v3 --max-rounds 150)

# usage_error(<command...>): the command exits 2 with exactly one line on
# stderr, which is left in run_stderr, and nothing on stdout: every usage
# error is reported before any graph is built.
function(usage_error)
  run(2 out ${ARGN})
  string(REGEX MATCHALL "\n" lines "${run_stderr}")
  list(LENGTH lines count)
  if(NOT count EQUAL 1 OR NOT out STREQUAL "")
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "${cmd}: expected one stderr line and no stdout, "
                        "got:\nstdout:\n${out}\nstderr:\n${run_stderr}")
  endif()
  set(run_stderr "${run_stderr}" PARENT_SCOPE)
endfunction()

# A noise rate outside [0, 1] (NaN included), or noise on the noise-free fast
# engine, is a usage error: one line on stderr and exit 2.
foreach(bad "--noise-fp;2" "--noise-fn;-0.5" "--noise-fp;nan"
            "--engine;fast;--noise-fp;0.01")
  usage_error("${CLI}" --n 64 ${bad})
endforeach()

# So are an unknown algorithm, init policy, duplex mode or engine, and the
# removed --kernel option.
foreach(bad "--algorithm;bogus" "--init;bogus" "--duplex;quarter"
            "--engine;bogus" "--kernel;sharded")
  usage_error("${CLI}" --n 64 ${bad})
endforeach()

# So is a numeric option given text, and a negative thread count (it would
# wrap to SIZE_MAX workers): the one line names the option, and the tool
# exits before any worker pool is built.
function(bad_option option)
  usage_error(${ARGN})
  if(NOT run_stderr MATCHES "^${option} ")
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "${cmd}: the usage error does not name ${option}:\n"
                        "${run_stderr}")
  endif()
endfunction()
bad_option(--noise-fp "${CLI}" --n 64 --noise-fp abc)
bad_option(--seed "${CLI}" --n 64 --seed x)
bad_option(--c1 "${CLI}" --n 64 --c1 abc)
bad_option(--shard-threads "${CLI}" --n 64 --shard-threads -1)
bad_option(--threads "${CLI}" --sweep --threads -1)
bad_option(--shard-threads "${CLI}" --sweep --shard-threads -1)
bad_option(--threads "${SOAK}" --threads -1)
bad_option(--shard-threads "${SOAK}" --shard-threads -1)
bad_option(--seconds "${SOAK}" --seconds x)
# The round budget and the fault schedule are read before the graph is
# built too, and a wave larger than the graph is rejected before any run.
bad_option(--max-rounds "${CLI}" --n 64 --max-rounds x)
bad_option(--faults "${CLI}" --n 64 --faults x)
bad_option(--waves "${CLI}" --n 64 --waves -3)
bad_option(--faults "${CLI}" --n 64 --faults 100 --waves 1)

# run.v1 and the trace record the shard count of the engine that ran, not
# the one requested: 64 vertices are one bitset word, so four shard workers
# clamp to one shard; a noisy run is on the shardless reference engine; and
# 10^5 vertices split four ways.
function(expect_shards expected)
  run(0 ignored "${CLI}" --seed 3 --shard-threads 4
      --metrics-out shards-run.json --trace-out shards-trace.json ${ARGN})
  file(READ "${WORK}/shards-run.json" run_json)
  file(READ "${WORK}/shards-trace.json" trace_json)
  string(JSON in_run GET "${run_json}" extra shards)
  string(JSON in_trace GET "${trace_json}" otherData shards)
  if(NOT in_run STREQUAL "${expected}" OR NOT in_trace STREQUAL "${expected}")
    string(REPLACE ";" " " flags "${ARGN}")
    message(FATAL_ERROR "${flags}: shards run.v1=${in_run} "
                        "trace=${in_trace}, expected ${expected}")
  endif()
endfunction()
expect_shards(1 --n 64)
expect_shards(1 --n 64 --noise-fp 0.01)
expect_shards(4 --n 100000)

# Traced single run: the trace validates, and the simulation output matches
# the untraced golden.
run(0 out "${CLI}" --family torus --n 256 --algorithm v3 --seed 7
    --trace-out trace.json --metrics-out traced-run.json)
strip_wrote(out)
expect_text(traced-run.txt "${out}")
run(0 out "${CLI}" --family torus --n 256 --algorithm v3 --seed 7)
expect_text(traced-run.txt "${out}")
validate_trace(trace)
expect_keys(traced-run.json KEYS ${RUN_KEYS})
expect_keys(traced-run.json obs KEYS ${OBS_KEYS})

# Sweep: stdout and sweep.v1 are deterministic; notices go to stderr.
run(0 out "${CLI}" --sweep --family er-avg8 --algorithm v1 --sizes 64,128
    --sweep-seeds 4 --seed 5 --threads 2 --sweep-out sweep.json
    --metrics-out sweep-run.json --trace-out sweep-trace.json)
expect_text(sweep.txt "${out}")
expect_file(sweep.json sweep.json)
validate_trace(sweep-trace)
expect_keys(sweep-run.json KEYS ${RUN_KEYS})
expect_keys(sweep-run.json extra KEYS mode sizes seeds_per_size
            threads_requested shard_threads_requested)

# sweep.v1's "kernel" names the round kernel of the engine that ran, as
# run.v1's does: "sharded" in the fast-engine golden above, "none" on the
# reference engine.
run(0 ignored "${CLI}" --sweep --family er-avg8 --algorithm v1 --sizes 64
    --sweep-seeds 2 --engine reference --sweep-out sweep-reference.json)
file(READ "${WORK}/sweep-reference.json" sweep_json)
string(JSON sweep_kernel GET "${sweep_json}" kernel)
if(NOT sweep_kernel STREQUAL "none")
  message(FATAL_ERROR "sweep.v1 on the reference engine records kernel "
                      "\"${sweep_kernel}\", expected \"none\"")
endif()

# Soak under a scenario budget: the folded recovery.v1 is identical at every
# --threads value.
foreach(threads 1 4)
  run(0 out "${SOAK}" --seconds 600 --scenarios 12 --monitor
      --threads ${threads} --recovery-out soak-recovery-t${threads}.json
      --metrics-out soak-run-t${threads}.json
      --trace-out soak-trace-t${threads}.json)
  strip_wrote(out)
  expect_text(soak.txt "${out}")
  expect_file(soak-recovery.json soak-recovery-t${threads}.json)
  validate(soak-recovery-t${threads}.json)
  validate_trace(soak-trace-t${threads})
  expect_keys(soak-run-t${threads}.json KEYS ${RUN_KEYS})
  expect_keys(soak-run-t${threads}.json extra KEYS scenarios recovery_epochs
              engine shard_threads result)
endforeach()

# Tracing reads clocks and writes private buffers only, so sweep stdout and
# sweep.v1 are byte-identical with --trace-out on or off at every thread
# count (0 = one worker per hardware thread).
foreach(threads 1 8 0)
  set(sweep --sweep --family er-avg8 --algorithm v1 --sizes 64,128,256
      --sweep-seeds 8 --seed 5 --threads ${threads})
  run(0 out "${CLI}" ${sweep} --sweep-out sweep-t${threads}.json)
  file(WRITE "${WORK}/sweep-t${threads}.txt" "${out}")
  run(0 out "${CLI}" ${sweep} --sweep-out sweep-traced-t${threads}.json
      --trace-out trace-t${threads}.json)
  file(WRITE "${WORK}/sweep-traced-t${threads}.txt" "${out}")
  expect_same(sweep-t${threads}.json sweep-traced-t${threads}.json)
  expect_same(sweep-t${threads}.txt sweep-traced-t${threads}.txt)
  validate_trace(trace-t${threads})
endforeach()

# Soak under tracing: the heartbeat carries the anomaly and trace-drop
# counters.
run(0 ignored "${SOAK}" --seconds 3 --threads 4 --heartbeat 1
    --trace-out trace-soak.json)
foreach(counter trace-dropped= anomalies=)
  if(NOT run_stderr MATCHES "${counter}")
    message(FATAL_ERROR "soak heartbeat lacks ${counter}:\n${run_stderr}")
  endif()
endforeach()
validate_trace(trace-soak)

# A document of the removed periodic-sample schema (deleted with its writer;
# traces carry its timings) is rejected like any other unknown schema.
file(WRITE "${WORK}/ts.json"
     "{\"schema\":\"beepmis.timeseries.v1\",\"every\":4,\"capacity\":4096,"
     "\"recorded\":1,\"dropped\":0,\"context\":{},\"samples\":[{\"round\":4,"
     "\"active\":0,\"beeps\":3,\"mis\":2}]}\n")
run(1 ignored "${CHECK}" --in ts.json)
if(NOT run_stderr MATCHES "^trace_check: not a beepmis")
  message(FATAL_ERROR "ts.json: expected \"trace_check: not a beepmis...\", "
                      "got:\n${run_stderr}")
endif()

# Figures: the three SVGs are deterministic, byte for byte.
run(0 ignored "${FIGURES}" --out-dir .)
foreach(figure scaling convergence recovery)
  expect_file(${figure}.svg ${figure}.svg)
endforeach()
