# fault_campaign's tier equivalence (docs/performance.md "Execution
# tiers"): the smoke campaign on the interpreter and on the dispatcher
# must produce identical envelopes modulo host-side fields, in both
# fault modes. Both modes also run on the dispatcher with 4 workers,
# which share each Program's golden-prefix checkpoint store.
#   cmake -DFAULT_CAMPAIGN=... -DJSON_CHECK=... -P fault_tier_equiv.cmake
function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " shown "${ARGN}")
    message(FATAL_ERROR "exit ${rc}: ${shown}")
  endif()
endfunction()

# campaign(TIER JOBS JSON [flags...])
function(campaign tier jobs json)
  run(${CMAKE_COMMAND} -E env HWST_TIER=${tier}
      ${FAULT_CAMPAIGN} --smoke --jobs ${jobs} ${ARGN} --json ${json})
endfunction()

campaign(interp 1 BENCH_fault_campaign_tier_interp.json)
campaign(dbt 1 BENCH_fault_campaign_tier_dbt.json)
campaign(dbt 4 BENCH_fault_campaign_tier_dbt4.json)
run(${JSON_CHECK} --equiv BENCH_fault_campaign_tier_interp.json
    BENCH_fault_campaign_tier_dbt.json)
run(${JSON_CHECK} --equiv BENCH_fault_campaign_tier_dbt.json
    BENCH_fault_campaign_tier_dbt4.json)

campaign(interp 1 BENCH_fault_campaign_stuck_tier_interp.json
         --mode stuck-at)
campaign(dbt 1 BENCH_fault_campaign_stuck_tier_dbt.json --mode stuck-at)
campaign(dbt 4 BENCH_fault_campaign_stuck_tier_dbt4.json --mode stuck-at)
run(${JSON_CHECK} --equiv BENCH_fault_campaign_stuck_tier_interp.json
    BENCH_fault_campaign_stuck_tier_dbt.json)
run(${JSON_CHECK} --equiv BENCH_fault_campaign_stuck_tier_dbt.json
    BENCH_fault_campaign_stuck_tier_dbt4.json)
