# Traced-run determinism gate. A live tracing session turns on the sharded
# kernel's phase spans, shard counters and ShardTelemetry collection, and
# none of that may change a result: a traced run prints the same stdout
# (modulo the "wrote <path>" notices) at every --shard-threads value and
# the same as an untraced run, and every trace validates. In --sweep mode
# --progress is a single-run feature, refused with a stderr notice, and
# sweep stdout and sweep.v1 with tracing and --progress on match the
# untraced one-worker sweep at every shard count.
#
#   cmake -DCLI=<beepmis_cli> -DCHECK=<beepmis_trace_check>
#         -DWORK=<scratch directory> -P traced_determinism.cmake

cmake_minimum_required(VERSION 3.16)

foreach(var CLI CHECK WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "traced_determinism.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# cli(<name> <cli args...>): runs the CLI in WORK, writes its stdout without
# the "wrote <path>" notices to <name>.txt and its stderr to <name>.err.
function(cli name)
  execute_process(COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "exit ${rc}: ${CLI} ${cmd}\nstderr:\n${err}")
  endif()
  string(REGEX REPLACE "\nwrote [^\n]*" "" out "\n${out}")
  string(SUBSTRING "${out}" 1 -1 out)
  file(WRITE "${WORK}/${name}.txt" "${out}")
  file(WRITE "${WORK}/${name}.err" "${err}")
endfunction()

# validate(<file>): beepmis_trace_check accepts the file in WORK.
function(validate file)
  execute_process(COMMAND "${CHECK}" --in "${file}"
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "trace_check rejects ${WORK}/${file}:\n${err}")
  endif()
endfunction()

# expect_same(<file> <file>): two files in WORK are byte-identical.
function(expect_same a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK}/${a}" "${WORK}/${b}" RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${WORK}/${a} differs from ${WORK}/${b}")
  endif()
endfunction()

# Single run: traced at 1, 8 and one-per-hardware-thread (0) workers, then
# untraced at 8.
set(run --family er-avg8 --n 4096 --seed 7 --engine fast)
foreach(t 1 8 0)
  cli(tel-run-t${t} ${run} --shard-threads ${t}
      --trace-out trace-teln-t${t}.json)
  validate(trace-teln-t${t}.json)
  expect_same(tel-run-t1.txt tel-run-t${t}.txt)
endforeach()
cli(tel-run-bare ${run} --shard-threads 8)
expect_same(tel-run-t8.txt tel-run-bare.txt)

# Sweep mode: the untraced one-worker sweep against traced sweeps with
# --progress at 1, 3, 8 and 0 shard workers.
set(sweep --sweep --family er-avg8 --algorithm v1 --sizes 64,128,256
    --sweep-seeds 8 --seed 5 --engine fast)
cli(sweep-shard-t1 ${sweep} --shard-threads 1
    --sweep-out sweep-shard-t1.json)
foreach(t 1 3 8 0)
  cli(sweep-tel-t${t} ${sweep} --shard-threads ${t} --progress 16
      --trace-out trace-sweeptel-t${t}.json
      --sweep-out sweep-tel-t${t}.json)
  file(READ "${WORK}/sweep-tel-t${t}.err" err)
  string(FIND "${err}" "--progress is a single-run feature" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "sweep at --shard-threads ${t} lacks the "
                        "single-run notice on stderr:\n${err}")
  endif()
  expect_same(sweep-shard-t1.json sweep-tel-t${t}.json)
  expect_same(sweep-shard-t1.txt sweep-tel-t${t}.txt)
endforeach()
