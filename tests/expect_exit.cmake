# Run a command and fail unless it exits with EXPECT_EXIT (and, when
# EXPECT_OUTPUT is set, its output matches that regex): the CLI's exit-code
# contract, which ctest's own zero/nonzero verdict cannot state.
#
#   cmake -DEXPECT_EXIT=2 [-DEXPECT_OUTPUT=REGEX] -P expect_exit.cmake -- PROGRAM ARGS...
set(cmd)
set(take FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(take)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(take TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
message("${out}")
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT_EXIT}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()
