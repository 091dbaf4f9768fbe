# Packed round-trip gate: a packed graph file written by
# `beepmis_graphgen --stream-out` and loaded (and revalidated) by
# `beepmis_cli --graph-file` reproduces the in-process run at the same
# (family, n, seed) byte for byte, as docs/cli.md promises.
#
#   cmake -DCLI=<beepmis_cli> -DGRAPHGEN=<beepmis_graphgen>
#         -DWORK=<scratch directory> -P packed_roundtrip.cmake

cmake_minimum_required(VERSION 3.16)

foreach(var CLI GRAPHGEN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "packed_roundtrip.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# run(<out-var> <command...>): runs the command in WORK, stores its stdout
# in <out-var>; a nonzero exit fails the test.
function(run out_var)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "exit ${rc}: ${cmd}\nstdout:\n${out}\n"
                        "stderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

foreach(family er-avg8 ba-m3 rgg-avg8 4-regular)
  run(ignored "${GRAPHGEN}" --family ${family} --n 100000 --seed 11
      --stream-out ${family}-1e5.bmp)
  run(from_file "${CLI}" --graph-file ${family}-1e5.bmp --seed 11)
  run(generated "${CLI}" --family ${family} --n 100000 --seed 11)
  if(NOT from_file STREQUAL generated)
    file(WRITE "${WORK}/packed-file-${family}.txt" "${from_file}")
    file(WRITE "${WORK}/packed-gen-${family}.txt" "${generated}")
    message(FATAL_ERROR "${family}: the packed-file run differs from the "
                        "in-process run: ${WORK}/packed-file-${family}.txt vs "
                        "${WORK}/packed-gen-${family}.txt")
  endif()
endforeach()
