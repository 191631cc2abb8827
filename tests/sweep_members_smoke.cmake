# ctest smoke for a long federation member mix: the sweep's summary row
# must stay one valid JSON object however long the --members spec is.
# Invoked as
#   cmake -DSWEEP=<sweep binary> -P sweep_members_smoke.cmake

# 41 members: a 24-node member first (every smoke job fits somewhere),
# then forty 8-node ones.
set(spec "1x24:name=alpha")
foreach(i RANGE 0 39)
  if(i LESS 10)
    set(i "0${i}")
  endif()
  string(APPEND spec ",1x8:name=member${i}")
endforeach()

execute_process(COMMAND ${SWEEP} smoke clusters=2 --members ${spec}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep --members exited with ${rc}\nstderr:\n${err}")
endif()

string(STRIP "${out}" out)
string(FIND "${out}" "\n" last_newline REVERSE)
math(EXPR last_start "${last_newline} + 1")
string(SUBSTRING "${out}" ${last_start} -1 summary)

string(JSON is_summary ERROR_VARIABLE json_error GET "${summary}" summary)
if(json_error)
  message(FATAL_ERROR "summary row is not valid JSON (${json_error}):\n"
                      "${summary}")
endif()
if(NOT is_summary)
  message(FATAL_ERROR "last line is not the summary row:\n${summary}")
endif()
string(JSON members GET "${summary}" members)
if(NOT members STREQUAL spec)
  message(FATAL_ERROR "summary members field truncated:\n${members}\n"
                      "expected:\n${spec}")
endif()

string(LENGTH "${summary}" length)
message(STATUS "sweep_members_smoke: ${length}-byte summary row parses")
