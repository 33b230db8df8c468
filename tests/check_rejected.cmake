# Runs scenario_runner on a scenario whose fault plan the pre-flight must
# reject: exit code 3, and the error names the offending scenario line.
#   cmake -DRUNNER=<scenario_runner> -DSCENARIO=<file> -DLINE=<n> -P check_rejected.cmake
execute_process(COMMAND ${RUNNER} ${SCENARIO}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "expected exit code 3, got '${rc}': ${err}")
endif()
if(NOT err MATCHES "scenario line ${LINE}\\)")
  message(FATAL_ERROR "error does not name scenario line ${LINE}: ${err}")
endif()
