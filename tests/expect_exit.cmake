# Run each command given after `--` and fail unless every one exits with
# EXPECT and, if MATCH is given, prints something that matches it.
# Commands are separated by `---`:
#   cmake -DEXPECT=2 [-DMATCH=regex] -P expect_exit.cmake --
#         prog --flag -1 --- prog --flag 1x
set(cmd "")
set(started OFF)
foreach(n RANGE ${CMAKE_ARGC})
  if(n EQUAL CMAKE_ARGC)
    set(arg "---") # flush the last command
  else()
    set(arg "${CMAKE_ARGV${n}}")
  endif()
  if(NOT started)
    if(arg STREQUAL "--")
      set(started ON)
    endif()
  elseif(arg STREQUAL "---")
    if(cmd)
      execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                      OUTPUT_VARIABLE out ERROR_VARIABLE out)
      string(REPLACE ";" " " shown "${cmd}")
      if(NOT rc STREQUAL "${EXPECT}")
        message(FATAL_ERROR "exit ${rc}, expected ${EXPECT}: ${shown}")
      endif()
      if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
        message(FATAL_ERROR "no match for '${MATCH}': ${shown}\n${out}")
      endif()
      message(STATUS "exit ${rc}: ${shown}")
    endif()
    set(cmd "")
  else()
    list(APPEND cmd "${arg}")
  endif()
endforeach()
