# vcc --connect must report a failed job as a failure, driven by ctest:
#   cmake -DVCC=<vcc> -DVCCD=<vccd> -DSRC=<valid .mc program>
#         -DWORK=<scratch dir> -P this-file
#
# Starts a live vccd on a temporary socket and submits through it:
# 1. an ill-typed program (`return y;` with y undeclared): exit 1, and a
#    "vcc: FAILED: <file> (<error>)" line naming the file and the error;
# 2. a valid program with --wcet=nosuch: exit 1, naming the file and the
#    missing function;
# 3. `--batch` on a directory with no .mc files: exit 1 and a "no .mc
#    files under <dir>" line, as plain `vcc --batch` does;
# 4. the same program with a real --wcet function: exit 0, "<file>: ok"
#    (the daemon is healthy and the checks above are not vacuous).
# The daemon is stopped on every path.

file(MAKE_DIRECTORY "${WORK}")
set(BAD "${WORK}/bad.mc")
file(WRITE "${BAD}" "func i32 f(i32 x) {\n  return y;\n}\n")
string(RANDOM LENGTH 10 ALPHABET "abcdefghijklmnopqrstuvwxyz0123456789" tag)
set(SOCK "/tmp/vcc-connect-check-${tag}.sock")

execute_process(
  COMMAND sh -c "\"${VCCD}\" --socket=\"${SOCK}\" --jobs=1 >/dev/null 2>&1 & echo $!"
  OUTPUT_VARIABLE daemon_pid
  OUTPUT_STRIP_TRAILING_WHITESPACE)

macro(stop_daemon)
  execute_process(COMMAND kill ${daemon_pid})
  file(REMOVE "${SOCK}")
endmacro()

macro(fail message_text)
  stop_daemon()
  message(FATAL_ERROR "${message_text}")
endmacro()

set(waited 0)
while(NOT EXISTS "${SOCK}")
  if(waited GREATER 100)
    fail("vccd did not create ${SOCK} within 10 s")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  math(EXPR waited "${waited} + 1")
endwhile()

# Runs `vcc --connect` with the given extra arguments; expects `want_exit`
# and every remaining argument as a substring of its output.
function(expect_connect label want_exit args)
  execute_process(
    COMMAND ${VCC} --connect=${SOCK} ${args}
    RESULT_VARIABLE got_exit
    OUTPUT_VARIABLE got_out
    ERROR_VARIABLE got_err)
  if(NOT got_exit EQUAL want_exit)
    set(failure "${label}: expected exit ${want_exit}, got ${got_exit}\nstdout: ${got_out}\nstderr: ${got_err}"
        PARENT_SCOPE)
    return()
  endif()
  foreach(needle ${ARGN})
    string(FIND "${got_err}${got_out}" "${needle}" pos)
    if(pos EQUAL -1)
      set(failure "${label}: output is missing '${needle}'\nstdout: ${got_out}\nstderr: ${got_err}"
          PARENT_SCOPE)
      return()
    endif()
  endforeach()
  set(failure "" PARENT_SCOPE)
endfunction()

expect_connect("ill-typed program" 1 "${BAD}"
               "vcc: FAILED: ${BAD} (" "'y'")
if(failure)
  fail("${failure}")
endif()

expect_connect("unknown --wcet function" 1 "--wcet=nosuch;${SRC}"
               "vcc: FAILED: ${SRC} (" "nosuch")
if(failure)
  fail("${failure}")
endif()

set(EMPTY "${WORK}/empty")
file(REMOVE_RECURSE "${EMPTY}")
file(MAKE_DIRECTORY "${EMPTY}")
expect_connect("empty --batch directory" 1 "--batch;${EMPTY}"
               "vcc: no .mc files under ${EMPTY}")
if(failure)
  fail("${failure}")
endif()

get_filename_component(entry "${SRC}" NAME_WE)
expect_connect("valid program" 0 "--wcet=${entry};${SRC}" "${SRC}: ok")
if(failure)
  fail("${failure}")
endif()

stop_daemon()
