# fault_campaign's golden envelopes: the smoke campaign in both fault
# modes must stay json_check --equiv-identical to the envelopes kept in
# bench/golden/, so a change that moves one of its simulated numbers
# fails here. With -DUPDATE=ON (the golden-update target) it rewrites
# them, host-side fields stripped, instead: only for a change that means
# to move a simulated number.
#   cmake -DFAULT_CAMPAIGN=... -DJSON_CHECK=... -DGOLDEN_DIR=...
#         [-DUPDATE=ON] -P fault_golden.cmake
function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " shown "${ARGN}")
    message(FATAL_ERROR "exit ${rc}: ${shown}")
  endif()
endfunction()

# golden(NAME [flags...])
function(golden name)
  run(${FAULT_CAMPAIGN} --smoke --jobs 1 ${ARGN}
      --json BENCH_${name}_golden_run.json)
  if(UPDATE)
    run(${JSON_CHECK} --strip BENCH_${name}_golden_run.json
        ${GOLDEN_DIR}/BENCH_${name}.json)
  else()
    run(${JSON_CHECK} --equiv ${GOLDEN_DIR}/BENCH_${name}.json
        BENCH_${name}_golden_run.json)
  endif()
endfunction()

golden(fault_campaign)
golden(fault_campaign_stuck --mode stuck-at)
