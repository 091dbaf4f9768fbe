# Recovery observability gate: the recovery.v1 artifact and stdout of
# monitored runs with mid-run corrupt_random waves. A seeded CLI run with
# the invariant monitor armed must emit a valid recovery.v1 whose epochs
# classify the injected faults as recovered (or masked), never stall or
# safety violation, with zero spurious invariant violations. The artifact
# is a pure function of the stream-identical event sequence, so it diffs
# byte for byte across --kernel values and shard counts, and a capped
# soak's folded artifact diffs byte for byte across --threads values.
#
#   cmake -DCLI=<beepmis_cli> -DSOAK=<beepmis_soak>
#         -DCHECK=<beepmis_trace_check> -DWORK=<scratch directory>
#         -P recovery_gate.cmake

cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var CLI SOAK CHECK WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "recovery_gate.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# run(<out file or "-"> <command...>): runs the command in WORK, writes its
# stdout without the "wrote <path>" notices (they name output paths, not
# results) to <out file>, and keeps its stderr in run_stderr. A nonzero
# exit fails the test.
function(run out)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "exit ${rc}: ${cmd}\nstdout:\n${stdout}\n"
                        "stderr:\n${err}")
  endif()
  if(NOT out STREQUAL "-")
    string(REGEX REPLACE "\nwrote [^\n]*" "" stdout "\n${stdout}")
    string(SUBSTRING "${stdout}" 1 -1 stdout)
    file(WRITE "${WORK}/${out}" "${stdout}")
  endif()
  set(run_stderr "${err}" PARENT_SCOPE)
endfunction()

# expect_same(<file> <file>): two files in WORK are byte-identical.
function(expect_same a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK}/${a}" "${WORK}/${b}" RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${WORK}/${a} differs from ${WORK}/${b}")
  endif()
endfunction()

function(validate file)
  run(- "${CHECK}" --in "${file}")
endfunction()

# Scalar vs sharded kernel.
foreach(k scalar sharded)
  run(rec-${k}.txt "${CLI}" --family er-avg8 --n 256 --algorithm v1
      --seed 7 --faults 32 --waves 2 --kernel ${k} --monitor
      --recovery-out rec-${k}.json)
endforeach()
expect_same(rec-scalar.json rec-sharded.json)
expect_same(rec-scalar.txt rec-sharded.txt)
validate(rec-scalar.json)

# The sharded kernel repairs each wave with a local patch of its counts,
# masks and shard slices; the artifact and stdout must not depend on how
# many shards own the touched vertices.
foreach(f er-avg8 ba-m3)
  foreach(t 1 3 8 0)
    run(rec-${f}-t${t}.txt "${CLI}" --family ${f} --n 4096 --algorithm v1
        --seed 7 --faults 256 --waves 4 --kernel sharded --shard-threads ${t}
        --monitor --recovery-out rec-${f}-t${t}.json)
  endforeach()
  foreach(t 3 8 0)
    expect_same(rec-${f}-t1.json rec-${f}-t${t}.json)
    expect_same(rec-${f}-t1.txt rec-${f}-t${t}.txt)
  endforeach()
endforeach()

# The scalar run's summary: both waves closed, at least one recovered,
# nothing stalled or unsafe, and no spurious invariant violation.
file(READ "${WORK}/rec-scalar.json" json)
string(JSON summary GET "${json}" summary)
foreach(field epochs recovered stall safety_violation invariant_violations)
  string(JSON ${field} GET "${summary}" ${field})
endforeach()
if(NOT epochs EQUAL 2 OR recovered LESS 1 OR NOT stall EQUAL 0
   OR NOT safety_violation EQUAL 0 OR NOT invariant_violations EQUAL 0)
  message(FATAL_ERROR "recovery summary out of contract: ${summary}")
endif()

# Soak determinism: with a scenario-count cap the scenario set is
# thread-count-invariant and the coordinator folds per-scenario summaries
# in draw order, so the folded recovery artifact is byte-identical at
# every --threads value.
foreach(t 1 8 0)
  run(- "${SOAK}" --seconds 120 --scenarios 12 --threads ${t} --monitor
      --recovery-out soak-rec-t${t}.json)
endforeach()
# Heartbeat fields need a wall-clock run (the capped runs finish before
# the first beat fires).
run(- "${SOAK}" --seconds 3 --threads 4 --monitor --heartbeat 1
    --recovery-out soak-rec-wall.json)
foreach(counter epochs= violations=)
  if(NOT run_stderr MATCHES "${counter}")
    message(FATAL_ERROR "soak heartbeat lacks ${counter}:\n${run_stderr}")
  endif()
endforeach()
validate(soak-rec-wall.json)
expect_same(soak-rec-t1.json soak-rec-t8.json)
expect_same(soak-rec-t1.json soak-rec-t0.json)
validate(soak-rec-t1.json)
