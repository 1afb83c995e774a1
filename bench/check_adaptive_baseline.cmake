# Runs bench_adaptive and byte-compares its JSON with the committed
# baseline. Invoked by the bench_adaptive_baseline test:
#   cmake -DBENCH=<bench_adaptive> -DOUT=<fresh.json> -DBASELINE=<committed.json>
#         -P check_adaptive_baseline.cmake
execute_process(COMMAND ${BENCH} --out ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_adaptive exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${BASELINE}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the committed ${BASELINE}; "
                      "regenerate it with the bench_adaptive_json target "
                      "only if the change is intended")
endif()
