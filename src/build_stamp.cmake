# Writes OUTPUT: a header defining ORIGIN_GIT_DESCRIBE as
# `git describe --always --dirty --tags` of SOURCE_DIR ("unknown" without
# git or outside a checkout). The file is rewritten only when its text
# changes, so an unchanged tree recompiles nothing.
#
#   cmake -DSOURCE_DIR=<dir> -DOUTPUT=<header> -P build_stamp.cmake
execute_process(
  COMMAND git describe --always --dirty --tags
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE describe
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE status
  ERROR_QUIET)
if(NOT status EQUAL 0 OR NOT describe)
  set(describe "unknown")
endif()
set(text "#pragma once\n#define ORIGIN_GIT_DESCRIBE \"${describe}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUTPUT} "${text}")
endif()
