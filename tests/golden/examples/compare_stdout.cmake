# Runs one example-golden case:
#
#   cmake -DPROGRAM=<exe> -DARGS=<args> -DGOLDEN=<file> -DINPUTS=<dir>
#         -DWORK=<dir> -P compare_stdout.cmake
#
# PROGRAM runs with ARGS (split like a shell command line) inside a fresh
# WORK directory that holds copies of the .dag files of INPUTS, so programs
# that write files (paper_figures) write them there.  The case fails unless
# PROGRAM exits 0 and its stdout equals GOLDEN byte for byte; the actual
# stdout is left in WORK/stdout.txt.

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(GLOB inputs "${INPUTS}/*.dag")
file(COPY ${inputs} DESTINATION "${WORK}")

execute_process(COMMAND "${PROGRAM}" ${args}
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
file(WRITE "${WORK}/stdout.txt" "${actual}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "stdout of ${PROGRAM} ${ARGS} differs from ${GOLDEN}; "
          "see ${WORK}/stdout.txt")
endif()
