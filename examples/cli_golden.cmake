# Byte-compares one epserve_cli invocation's stdout against a committed
# golden file under examples/golden/ (a PASS_REGULAR_EXPRESSION only shows
# that some line appeared; this pins every byte). Invoked per golden file by
# examples/CMakeLists.txt:
#   cmake -DCLI_BIN=<binary> -DCLI_ARGS="<space-separated args>"
#         -DGOLDEN=<golden file> -DOUT=<output file> -P cli_golden.cmake
#
# Only text renders are pinned: their 1-2 decimals absorb last-digit libm
# differences between toolchains that the %.10g JSON renders would expose.

separate_arguments(args UNIX_COMMAND "${CLI_ARGS}")
execute_process(COMMAND ${CLI_BIN} ${args}
                RESULT_VARIABLE code
                OUTPUT_FILE ${OUT}
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "epserve_cli ${CLI_ARGS} failed (${code}): ${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR
          "epserve_cli ${CLI_ARGS} output differs from ${GOLDEN} "
          "(diff ${OUT} against it; regenerate only for an intended change: "
          "build/examples/epserve_cli ${CLI_ARGS} > ${GOLDEN})")
endif()
