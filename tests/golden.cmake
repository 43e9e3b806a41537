# The simulated numbers of one exhibit: run HARNESS at --smoke with
# HWST_TIER=TIER and JOBS workers, check its envelope's schema, and
# compare it with GOLDEN_DIR/BENCH_<NAME>.json through json_check
# --equiv, which names the first key that moved. A tier or a worker
# count may change host speed, never a simulated number, so every leg
# compares with the same golden. With -DUPDATE=ON (the golden-update
# target) it writes the envelope there instead, host-side fields
# stripped: only for a change that means to move a simulated number.
# Arguments after `--` go to HARNESS.
#   cmake -DNAME=... -DHARNESS=... -DTIER=dbt -DJOBS=1 -DJSON_CHECK=...
#         -DGOLDEN_DIR=... [-DUPDATE=ON] -P golden.cmake [-- flags...]
function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " shown "${ARGN}")
    message(FATAL_ERROR "exit ${rc}: ${shown}")
  endif()
endfunction()

set(flags "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(n RANGE ${last})
  if(DEFINED started)
    list(APPEND flags "${CMAKE_ARGV${n}}")
  elseif("${CMAKE_ARGV${n}}" STREQUAL "--")
    set(started ON)
  endif()
endforeach()

set(live BENCH_${NAME}_golden_${TIER}${JOBS}.json)
run(${CMAKE_COMMAND} -E env HWST_TIER=${TIER}
    ${HARNESS} --smoke --jobs ${JOBS} ${flags} --json ${live})
run(${JSON_CHECK} ${live})
if(UPDATE)
  run(${JSON_CHECK} --strip ${live} ${GOLDEN_DIR}/BENCH_${NAME}.json)
else()
  run(${JSON_CHECK} --equiv ${GOLDEN_DIR}/BENCH_${NAME}.json ${live})
endif()
