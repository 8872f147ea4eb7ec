# CTest driver for the CLI stdout goldens (see tests/CMakeLists.txt):
#   cmake -DEXE=<binary> "-DARGS=<space-separated args>" -DGOLDEN=<file> -P ...
# Passes iff the binary exits 0 and its whole stdout equals GOLDEN byte for
# byte.  An intentional output change re-records the golden from the new
# binary: `<binary> <args> > <golden>`.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "'${ARGS}': exit status '${rc}', expected 0\n${err}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "'${ARGS}': stdout differs from ${GOLDEN}\n"
                      "--- expected:\n${expected}--- got:\n${out}")
endif()
