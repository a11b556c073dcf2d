# The target-neutral layers never name a target, driven by ctest:
#   cmake -DSRC_DIR=<repo>/src -P this-file
#
# Every source under src/{mach,regalloc,validate,wcet,machine} reads its
# machine facts from a mach::TargetDesc. None of them may
#   - include a header from src/targets,
#   - name a concrete target's symbol (ppc_* / rv32_*), or
#   - spell a target's name as a string literal ("ppc" / "rv32"), which is
#     how a comparison against a target's name would look.
# Target-specific code belongs in src/targets/<name>.

set(violations "")
foreach(layer mach regalloc validate wcet machine)
  file(GLOB_RECURSE sources
       "${SRC_DIR}/${layer}/*.cpp" "${SRC_DIR}/${layer}/*.hpp")
  if(NOT sources)
    message(FATAL_ERROR "no sources under ${SRC_DIR}/${layer}")
  endif()
  foreach(source ${sources})
    file(READ "${source}" text)
    # Leading newline so a match at the start of the file has a left
    # neighbour for the word-boundary class below.
    set(text "\n${text}")
    foreach(pattern
        "#[ \t]*include[ \t]*[<\"]targets/"
        "[^A-Za-z0-9_](ppc|rv32)_[A-Za-z0-9_]+"
        "\"(ppc|rv32)\"")
      string(REGEX MATCHALL "${pattern}" hits "${text}")
      foreach(hit ${hits})
        string(STRIP "${hit}" hit)
        file(RELATIVE_PATH rel "${SRC_DIR}" "${source}")
        string(APPEND violations "\n  src/${rel}: ${hit}")
      endforeach()
    endforeach()
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR
      "target-neutral layers name a concrete target:${violations}")
endif()
