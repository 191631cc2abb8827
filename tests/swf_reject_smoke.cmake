# ctest regression for malformed SWF numbers: each case is a two-record
# trace whose second record carries one non-finite, oversized or
# overflowing field.  swf_replay must refuse it up front with a located
# parse error (line 2, the field named) and a non-zero exit, rather than
# abort on an uncaught exception mid-run, stall, or replay it.  The
# timeout bounds each replay, so a regression to a stall fails fast.
# Invoked as
#   cmake -DSWF_REPLAY=<swf_replay> -DWORK_DIR=<build dir>
#         -P swf_reject_smoke.cmake

set(good "1 0 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0")
# field index (0-based) | token | field name in the diagnostic
set(cases
    "1|nan|submit" "1|inf|submit" "1|1e308|submit"
    "3|nan|run_time" "3|inf|run_time" "3|1e308|run_time"
    "4|12345678901234567890|used_procs")

set(index 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 field)
  list(GET parts 1 token)
  list(GET parts 2 name)
  set(record "2 5 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0")
  string(REPLACE " " ";" fields "${record}")
  list(REMOVE_AT fields ${field})
  list(INSERT fields ${field} ${token})
  string(REPLACE ";" " " record "${fields}")
  set(trace "${WORK_DIR}/swf_reject_${index}.swf")
  file(WRITE ${trace} "${good}\n${record}\n")
  execute_process(COMMAND ${SWF_REPLAY} ${trace}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc
                  TIMEOUT 20)
  if(rc EQUAL 0)
    message(FATAL_ERROR "swf_replay accepted ${name}=${token}:\n${out}")
  endif()
  set(expected "line 2: field [0-9]+ \\(${name}\\) is out of range")
  if(NOT err MATCHES "${expected}")
    message(FATAL_ERROR "${name}=${token}: expected a located parse error, "
                        "got rc=${rc}\nstderr:\n${err}")
  endif()
  math(EXPR index "${index} + 1")
endforeach()

message(STATUS "swf_reject_smoke: ${index} malformed traces rejected")
