# Kernel equivalence and shard determinism gates. The fast engine's sharded
# round kernel is stream-identical to the reference engine, and its output
# does not depend on how many workers run its shards, so whole beepmis_cli
# runs (fault waves and half duplex included) print the same stdout under
# --engine reference and fast and every --shard-threads value, and sweep
# stdout and sweep.v1 match across thread counts and, modulo the provenance
# "kernel" field, across engines. (Without AVX-512 the kernel's dense sweeps
# fall back to their indexed loops, which tests/test_kernels.cpp proves
# equal to the sweeps wherever AVX-512 exists.)
#
#   cmake -DCLI=<beepmis_cli> -DWORK=<scratch directory>
#         -P kernel_equivalence.cmake

cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var CLI WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "kernel_equivalence.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# cli(<name> <tolerate nonzero exit> <cli args...>): runs the CLI in WORK
# and writes its stdout to <name>.txt.
function(cli name tolerate)
  execute_process(COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_FILE "${WORK}/${name}.txt"
    ERROR_VARIABLE err)
  if(NOT tolerate AND NOT rc STREQUAL "0")
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "exit ${rc}: ${CLI} ${cmd}\nstderr:\n${err}")
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

# drop_kernel(<sweep.v1 file> <out file>): the summary without its
# provenance "kernel" field.
function(drop_kernel in out)
  file(READ "${WORK}/${in}" json)
  string(JSON json REMOVE "${json}" kernel)
  file(WRITE "${WORK}/${out}" "${json}")
endfunction()

set(waves --family er-avg8 --n 256 --seed 7 --faults 16 --waves 2)
# Half duplex may exhaust the round budget and exit nonzero; every engine
# must still print the same run.
set(half --family torus --n 256 --seed 9 --duplex half --max-rounds 2000)
set(sweep --sweep --family er-avg8 --algorithm v1 --sizes 64,128,256
    --sweep-seeds 8 --seed 5)

# Reference vs fast: single runs, then sweeps at every thread count.
foreach(v v1 v2 v3)
  foreach(e reference fast)
    cli(engine-${v}-${e} OFF ${waves} --algorithm ${v} --engine ${e})
    cli(engine-half-${v}-${e} ON ${half} --algorithm ${v} --engine ${e})
  endforeach()
  expect_same(engine-${v}-reference.txt engine-${v}-fast.txt)
  expect_same(engine-half-${v}-reference.txt engine-half-${v}-fast.txt)
endforeach()
foreach(e reference fast)
  foreach(t 1 8 0)
    cli(sweep-e${e}-t${t} OFF ${sweep} --threads ${t} --engine ${e}
        --sweep-out sweep-e${e}-t${t}.json)
    expect_same(sweep-e${e}-t1.txt sweep-e${e}-t${t}.txt)
    expect_same(sweep-e${e}-t1.json sweep-e${e}-t${t}.json)
  endforeach()
  drop_kernel(sweep-e${e}-t1.json sweep-e${e}-t1.nok.json)
  expect_same(sweep-ereference-t1.nok.json sweep-e${e}-t1.nok.json)
  expect_same(sweep-ereference-t1.txt sweep-e${e}-t1.txt)
endforeach()

# Sharded at 1, 3, 8 and one-per-hardware-thread (0) workers: identical to
# one worker and to the reference engine.
foreach(v v1 v2 v3)
  foreach(t 1 3 8 0)
    cli(shard-${v}-t${t} OFF ${waves} --algorithm ${v} --engine fast
        --shard-threads ${t})
    expect_same(shard-${v}-t1.txt shard-${v}-t${t}.txt)
    cli(shard-half-${v}-t${t} ON ${half} --algorithm ${v} --engine fast
        --shard-threads ${t})
    expect_same(shard-half-${v}-t1.txt shard-half-${v}-t${t}.txt)
  endforeach()
  expect_same(engine-${v}-reference.txt shard-${v}-t1.txt)
  expect_same(engine-half-${v}-reference.txt shard-half-${v}-t1.txt)
  # Power-law hubs: their rows cross every shard boundary, so several
  # shards push into the same mask words and neighbor counts in one phase.
  # 64 words make 3 and 8 real shards.
  set(ba --family ba-m3 --n 4096 --algorithm ${v} --seed 7 --faults 64
      --waves 2)
  cli(shard-ba-${v}-reference OFF ${ba} --engine reference)
  foreach(t 1 3 8 0)
    cli(shard-ba-${v}-t${t} OFF ${ba} --engine fast --shard-threads ${t})
    expect_same(shard-ba-${v}-reference.txt shard-ba-${v}-t${t}.txt)
  endforeach()
endforeach()
# Sweep artifacts are shard-count-invariant too (sweep.v1 excludes thread
# counts and wall-clock by design), and match the reference engine's sweep
# modulo the provenance field.
foreach(t 1 3 8 0)
  cli(sweep-shard-t${t} OFF ${sweep} --engine fast --shard-threads ${t}
      --sweep-out sweep-shard-t${t}.json)
  expect_same(sweep-shard-t1.json sweep-shard-t${t}.json)
  expect_same(sweep-shard-t1.txt sweep-shard-t${t}.txt)
endforeach()
drop_kernel(sweep-shard-t1.json sweep-shard.nok.json)
expect_same(sweep-ereference-t1.nok.json sweep-shard.nok.json)
