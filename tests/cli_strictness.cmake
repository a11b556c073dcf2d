# Every binary rejects a bad command line before any work starts, driven by
# ctest:
#   cmake -DVCC=<vcc> -DVCCD=<vccd> -DBENCH=<bench_service>
#         -DSRC=<valid .mc program> -P this-file
#
# Each case must exit 2 with a diagnostic naming the offending flag: empty
# values, an explicit --jobs=0, contradictory repeats, malformed counts and
# unknown flags. No case can start work even if a binary wrongly accepted
# it: the vccd cases give no --socket, and the bench_service cases point
# --vccd at a missing binary over a one-node suite.

set(failures "")

# Runs `binary args...` and expects exit 2 with `needle` (the diagnostic's
# mention of the flag) in its stderr.
function(expect_usage_error needle binary)
  execute_process(
    COMMAND ${binary} ${ARGN}
    RESULT_VARIABLE got_exit
    OUTPUT_VARIABLE got_out
    ERROR_VARIABLE got_err
    TIMEOUT 120)
  get_filename_component(name "${binary}" NAME)
  string(REPLACE ";" " " shown "${name} ${ARGN}")
  if(NOT got_exit STREQUAL "2")
    string(APPEND failures
        "\n${shown}: expected exit 2, got ${got_exit}\n  stderr: ${got_err}")
  else()
    string(FIND "${got_err}" "${needle}" pos)
    if(pos EQUAL -1)
      string(APPEND failures
          "\n${shown}: diagnostic lacks ${needle}\n  stderr: ${got_err}")
    endif()
  endif()
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

expect_usage_error("'--wcet='" ${VCC} --wcet= ${SRC})
expect_usage_error("'--run='" ${VCC} --run= ${SRC})
expect_usage_error("--jobs:" ${VCC} --jobs=0 ${SRC})
expect_usage_error("values for --target" ${VCC} --target=ppc --target=rv32
                   ${SRC})
expect_usage_error("'--bogus'" ${VCC} --bogus ${SRC})

expect_usage_error("values for --jobs" ${VCCD} --jobs=1 --jobs=4)
expect_usage_error("--jobs:" ${VCCD} --jobs=0)
expect_usage_error("'--cache-dir='" ${VCCD} --cache-dir=)
expect_usage_error("'--socket='" ${VCCD} --socket=)

set(safe --nodes=1 --vccd=/nonexistent/vccd)
expect_usage_error("--clients:" ${BENCH} --clients=2x ${safe})
expect_usage_error("'--emit-suite='" ${BENCH} --emit-suite= ${safe})
expect_usage_error("'--vccd='" ${BENCH} --nodes=1 --vccd=)
expect_usage_error("--jobs:" ${BENCH} --jobs=0 ${safe})
expect_usage_error("values for --nodes" ${BENCH} --nodes=1 --nodes=8 ${safe})

if(failures)
  message(FATAL_ERROR "bad command lines were not rejected:${failures}")
endif()
