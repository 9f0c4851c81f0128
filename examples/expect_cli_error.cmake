# Runs one invocation of a command-line binary (scprt_cli or a bench) that
# must be rejected: it has to exit with code 2 and print EXPECT on stderr.
#
#   cmake -DCLI=<binary> -DARGS=<args joined by |> -DEXPECT=<text>
#         -P expect_cli_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${CLI} ${args}: exit '${rc}', want 2\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${CLI} ${args}: stderr lacks \"${EXPECT}\":\n${err}")
endif()
