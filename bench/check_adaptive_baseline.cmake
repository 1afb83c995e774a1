# Runs a program and byte-compares what it writes with a committed golden.
# Invoked by the bench_adaptive_baseline and example_* golden tests:
#   cmake -DPROGRAM=<binary> -DOUT=<fresh file> -DBASELINE=<committed file>
#         [-DSTDOUT=ON] -DREGEN=<how to rewrite the golden>
#         -P check_adaptive_baseline.cmake
# With STDOUT=ON the program runs without arguments and its stdout is the
# output; otherwise it runs as `<binary> --out <fresh file>`.
if(STDOUT)
  execute_process(COMMAND ${PROGRAM} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
else()
  execute_process(COMMAND ${PROGRAM} --out ${OUT} RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${BASELINE}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the committed ${BASELINE}; "
                      "regenerate it with ${REGEN} "
                      "only if the change is intended")
endif()
