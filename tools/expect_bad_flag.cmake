# Runs one command line that carries a bad flag and fails unless it exits
# with the usage status 2 before doing any work (nothing on stdout) and its
# error names FLAG. WANT=value: a malformed value, so the error must not
# carry the usage text (a leniently parsed value would instead run and exit
# 0). WANT=usage: an unknown flag, so the usage text must follow.
#
#   cmake -DFLAG=--nodes -DWANT=value \
#         "-DCOMMAND=<binary>;--structure=linear;--nodes=4abc" \
#         -P expect_bad_flag.cmake
execute_process(
  COMMAND ${COMMAND}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${COMMAND}: exit status ${status}, want 2")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${COMMAND}: ran before failing, stdout: ${out}")
endif()
string(FIND "${err}" "${FLAG}" named)
string(FIND "${err}" "usage:" usage)
if(named EQUAL -1)
  message(FATAL_ERROR "${COMMAND}: error does not name ${FLAG}: ${err}")
endif()
if(WANT STREQUAL "value" AND NOT usage EQUAL -1)
  message(FATAL_ERROR "${COMMAND}: malformed value prints usage: ${err}")
endif()
if(WANT STREQUAL "usage" AND usage EQUAL -1)
  message(FATAL_ERROR "${COMMAND}: unknown flag prints no usage: ${err}")
endif()
