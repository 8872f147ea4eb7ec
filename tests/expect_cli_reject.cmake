# CTest driver for the CLI input-rejection cases (see tests/CMakeLists.txt):
#   cmake -DEXE=<binary> "-DARGS=<space-separated args>" -DFLAG=<name> -P ...
# Passes iff the binary exits with status 2 (not a crash, not a run) and
# names the offending flag on stderr as "--<name> ".
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "'${ARGS}': exit status '${rc}', expected 2\n${err}")
endif()
if(NOT err MATCHES "--${FLAG} ")
  message(FATAL_ERROR "'${ARGS}': stderr does not name --${FLAG}:\n${err}")
endif()
