# Run a command and fail unless it exits 0 and its stdout is byte-identical
# to a checked-in answer file under tests/answers/: an output of the model
# that no engine or data-layout change may move.
#
#   cmake -DANSWER=FILE -DOUTPUT=PATH -P same_answer.cmake -- PROGRAM ARGS...
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
file(REMOVE "${OUTPUT}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_FILE "${OUTPUT}")
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "exit status ${rc}, expected 0")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${ANSWER}" "${OUTPUT}"
                RESULT_VARIABLE differ)
if(NOT differ STREQUAL "0")
  message(FATAL_ERROR "stdout (${OUTPUT}) differs from the answer ${ANSWER}")
endif()
