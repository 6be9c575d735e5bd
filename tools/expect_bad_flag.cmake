# Runs pdspbench with one malformed numeric flag after a valid plan
# selection and fails unless it exits with the usage status 2 and an error
# that names the flag (not the generic usage text). A leniently parsed
# value would instead simulate the plan and exit 0.
#
#   cmake -DPDSPBENCH=<binary> -DBAD_FLAG=--nodes=4abc -P expect_bad_flag.cmake
string(REGEX REPLACE "=.*" "" flag "${BAD_FLAG}")
execute_process(
  COMMAND ${PDSPBENCH} --structure=linear --rate=1000 --duration=0.6
          ${BAD_FLAG}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${BAD_FLAG}: exit status ${status}, want 2")
endif()
string(FIND "${err}" "${flag}" named)
string(FIND "${err}" "usage:" usage)
if(named EQUAL -1 OR NOT usage EQUAL -1)
  message(FATAL_ERROR "${BAD_FLAG}: error does not name ${flag}: ${err}")
endif()
