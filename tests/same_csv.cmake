# Run a command twice, once as given and once with the flags in SECOND_FLAGS
# (a ;-list) added, each writing its CSV through --csv, and fail unless both
# runs exit 0 and the two files are byte-identical: two paths of the CLI
# that must give the same answer.
#
#   cmake -DSECOND_FLAGS=FLAGS -DCSV_PREFIX=PATH -P same_csv.cmake -- PROGRAM ARGS...
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
foreach(run first second)
  set(flags)
  if(run STREQUAL "second")
    set(flags ${SECOND_FLAGS})
  endif()
  set(csv "${CSV_PREFIX}_${run}.csv")
  file(REMOVE "${csv}")
  execute_process(COMMAND ${cmd} ${flags} --csv "${csv}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  message("${out}")
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${run} run: exit status ${rc}, expected 0")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${CSV_PREFIX}_first.csv" "${CSV_PREFIX}_second.csv"
                RESULT_VARIABLE differ)
if(NOT differ STREQUAL "0")
  message(FATAL_ERROR "the CSVs differ with '${SECOND_FLAGS}' added")
endif()
