# Engine equality gate: the fast engine and the reference simulator are
# stream-identical for the same seed, so whole beepmis_cli runs, fault waves
# and half duplex included, print the same stdout under either --engine.
#
#   cmake -DCLI=<beepmis_cli> -DWORK=<scratch directory>
#         -P engine_equality.cmake

cmake_minimum_required(VERSION 3.16)

foreach(var CLI WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "engine_equality.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# engine_run(<out-var> <engine> <tolerate nonzero exit> <cli args...>)
function(engine_run out_var engine tolerate)
  execute_process(COMMAND "${CLI}" ${ARGN} --engine ${engine}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT tolerate AND NOT rc STREQUAL "0")
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "exit ${rc}: ${CLI} ${cmd} --engine ${engine}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# expect_equal(<name> <tolerate nonzero exit> <cli args...>): the fast and
# the reference run print byte-identical stdout.
function(expect_equal name tolerate)
  engine_run(fast fast ${tolerate} ${ARGN})
  engine_run(ref reference ${tolerate} ${ARGN})
  if(NOT fast STREQUAL ref)
    file(WRITE "${WORK}/fast-${name}.txt" "${fast}")
    file(WRITE "${WORK}/ref-${name}.txt" "${ref}")
    message(FATAL_ERROR "fast and reference stdout differ: "
                        "${WORK}/fast-${name}.txt vs ${WORK}/ref-${name}.txt")
  endif()
endfunction()

foreach(v v1 v2 v3)
  expect_equal(${v} OFF --family er-avg8 --n 256 --algorithm ${v} --seed 7
               --faults 16 --waves 2)
  # Half duplex may exhaust the round budget and exit nonzero; both engines
  # must still print the same run.
  expect_equal(half-${v} ON --family torus --n 256 --algorithm ${v} --seed 9
               --duplex half --max-rounds 2000)
endforeach()
