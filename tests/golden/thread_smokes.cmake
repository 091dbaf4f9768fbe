# Multi-threaded smoke runs of beepmis_cli and beepmis_soak: a 4-thread
# sweep (bare and traced), 4-shard runs at n=10^5 (er-avg8 and the ba-m3
# hubs, fault waves, a traced run) and a 4-thread monitored, traced soak.
# Each must exit 0. They exist for the thread sanitizer build, which runs
# the whole suite: the pool hand-off, the sharded kernel's barrier
# protocol, patch() between rounds and the tracer's per-thread rings all
# run under real contention here.
#
#   cmake -DCLI=<beepmis_cli> -DSOAK=<beepmis_soak>
#         -DWORK=<scratch directory> -P thread_smokes.cmake

cmake_minimum_required(VERSION 3.16)

foreach(var CLI SOAK WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "thread_smokes.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# run(<command...>): runs the command in WORK; a nonzero exit fails the test.
function(run)
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
endfunction()

# A 4-thread sweep, then the same sweep with a live tracing session: pool
# workers record into per-thread rings while the coordinator reads the
# session atomics.
set(sweep --sweep --family er-avg8 --algorithm v1 --sizes 64,128
    --sweep-seeds 8 --seed 5 --threads 4 --sweep-out /dev/null)
run("${CLI}" ${sweep})
run("${CLI}" ${sweep} --trace-out trace-tsan.json)

# The sharded kernel at 4 workers: each shard pushes its own beepers',
# crossers' and new members' rows into any shard's mask words and neighbor
# counts with relaxed atomic ORs and adds, which the next barrier
# publishes; the ba-m3 hubs make many shards push into the same words at
# once. Fault waves add patch() writes between rounds on the coordinator,
# which the next round's workers must see through the pool's batch
# hand-off. The traced run streams phase spans and shard counters from the
# workers while the coordinator folds ShardTelemetry.
set(shard --n 100000 --seed 3 --engine fast --shard-threads 4)
run("${CLI}" --family er-avg8 ${shard})
run("${CLI}" --family ba-m3 ${shard})
run("${CLI}" --family er-avg8 ${shard} --faults 1000 --waves 3)
run("${CLI}" --family er-avg8 ${shard} --trace-out trace-shard-tsan.json)

# Every scenario builds its own flight recorder -> monitor -> tracker stack
# on a pool worker while the coordinator folds summaries and the tracer
# records from every thread.
run("${SOAK}" --seconds 60 --scenarios 16 --threads 4 --monitor
    --trace-out soak-tsan.json)
